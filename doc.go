// Package anole is a from-scratch Go reproduction of "Anole: Adapting
// Diverse Compressed Models for Cross-scene Prediction on Mobile Devices"
// (Li et al., ICDCS 2024).
//
// The public entry points live under internal/ and are exercised by the
// binaries in cmd/ and the runnable programs in examples/. See README.md
// for the architecture overview, DESIGN.md for the system inventory and
// substitution decisions, and EXPERIMENTS.md for the paper-vs-measured
// record of every reproduced table and figure. The root-level
// bench_test.go regenerates each of those artifacts as a testing.B
// benchmark.
//
// Concurrency: core.Runtime serves a single frame stream;
// core.MultiRuntime multiplexes N streams over one shared
// modelcache.Cache, with every stream running on the same frozen
// bundle (models are immutable nn.Weights programs executed against
// pooled per-call scratch, so N streams hold one resident copy of the
// repertoire — DESIGN.md §8). A 1-stream MultiRuntime is
// frame-for-frame identical to Runtime. bench_multistream_test.go
// sweeps streams x cache slots and measures the aggregate simulated
// throughput gain over running the same streams sequentially; the
// concurrency suite is written to pass `go test -race ./...`, and the
// untrusted-byte decoders (internal/trace, internal/repo) carry fuzz
// targets — see README.md "Testing".
package anole
