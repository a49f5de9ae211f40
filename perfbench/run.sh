#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet_batched --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under
# ${CARGO_TARGET_DIR:-.bench_build}/perfbench: the binary, the Go build
# cache, the go command's temporary and configuration files, and the
# traced run's spans. The module needs nothing from the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
