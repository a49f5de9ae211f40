package anole_test

// Overload-survival evaluation: the pressure machinery behind DESIGN.md's
// "Overload and recovery" section. The surge test drives a 4× stream
// surge into thermal saturation under a tight frame deadline and asserts
// the survival contract: every offered frame gets exactly one terminal
// verdict (served / downgraded / shed / quarantined), the shed ladder
// engages and is counted in anole_pressure_* metrics, and the p99
// latency of the frames that WERE served stays bounded relative to the
// deadline — overload degrades output, it never degrades the latency of
// what is still emitted. The kill-and-restart test snapshots a running
// fleet's warm state (Markov counts + cache residency manifest) through
// the versioned checkpoint codec, restores it into a fresh process-worth
// of fleet, and asserts recovery: nothing outside the deployed bundle is
// admitted, and the warm restart pays strictly fewer cold misses than a
// cold start over the same traffic. Corrupt checkpoints must cost only
// warmth — error, cold start, never a panic or partial restore.
//
// CI runs these under -race across the ANOLE_CHAOS_SEED matrix; every
// assertion is seed-independent.

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
	"anole/internal/xrand"
)

// surgeThermal models a chassis far past its envelope: heat saturates
// within a frame and compute derates to 10% of nominal — the thermal
// half of the surge.
func surgeThermal() *device.ThermalModel {
	return &device.ThermalModel{SustainedW: 0.5, TimeConstant: time.Millisecond, MaxDerate: 0.9}
}

// dealTestStreams deals the fixture's test frames round-robin into n
// streams of perStream frames, starting at offset so disjoint workloads
// can be cut from one corpus.
func dealTestStreams(tb testing.TB, fx testutil.Fixture, n, perStream, offset int) [][]*synth.Frame {
	tb.Helper()
	frames := fx.Corpus.Frames(synth.Test)
	if len(frames) == 0 {
		tb.Fatal("fixture has no test frames")
	}
	streams := make([][]*synth.Frame, n)
	for s := range streams {
		streams[s] = make([]*synth.Frame, perStream)
		for i := range streams[s] {
			streams[s][i] = frames[(offset+s*perStream+i)%len(frames)]
		}
	}
	return streams
}

// nominalFrameLatency measures the fleet's mean per-frame simulated
// latency with no thermal model and no deadline — the baseline the
// surge deadline is set against.
func nominalFrameLatency(tb testing.TB, fx testutil.Fixture, streams, perStream int) time.Duration {
	tb.Helper()
	mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: fx.Bundle.NumModels(),
		Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer mrt.Close()
	if _, err := mrt.ProcessStreams(dealTestStreams(tb, fx, streams, perStream, 0), nil); err != nil {
		tb.Fatal(err)
	}
	st := mrt.Stats()
	if st.Frames == 0 {
		tb.Fatal("baseline served no frames")
	}
	return st.TotalLatency / time.Duration(st.Frames)
}

// surgeOutcome aggregates one surge run for assertions and benchmark
// metrics.
type surgeOutcome struct {
	offered   int
	served    int
	shed      int
	quarFrame int
	p99Served time.Duration
	stats     core.RunStats
	press     *core.PressureStats
	metrics   map[string]float64
}

// runSurge drives surgeStreams streams (a 4× surge over the 2-stream
// baseline the deadline budget assumes) into thermal saturation under
// deadline, and folds every frame's verdict.
func runSurge(tb testing.TB, fx testutil.Fixture, surgeStreams, perStream int, deadline time.Duration) surgeOutcome {
	tb.Helper()
	reg := telemetry.NewRegistry()
	mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    surgeStreams,
		CacheSlots: fx.Bundle.NumModels(),
		Fleet:      device.UniformFleet(device.JetsonTX2NX, surgeStreams),
		Thermal:    surgeThermal(),
		Deadline:   deadline,
		Metrics:    reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer mrt.Close()
	inputs := dealTestStreams(tb, fx, surgeStreams, perStream, int(chaosSeed()))
	results, err := mrt.ProcessStreams(inputs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var out surgeOutcome
	var servedLat []time.Duration
	for s := range results {
		for _, res := range results[s] {
			out.offered++
			switch res.Verdict {
			case core.VerdictServed, core.VerdictDowngraded:
				out.served++
				servedLat = append(servedLat, res.Latency)
			case core.VerdictShed:
				out.shed++
			case core.VerdictQuarantined:
				out.quarFrame++
			default:
				tb.Fatalf("stream %d: frame without a terminal verdict: %v", s, res.Verdict)
			}
		}
	}
	if len(servedLat) > 0 {
		sort.Slice(servedLat, func(i, j int) bool { return servedLat[i] < servedLat[j] })
		out.p99Served = servedLat[len(servedLat)*99/100]
	}
	out.stats = mrt.Stats()
	out.press = mrt.PressureStats()
	out.metrics = telemetry.Map(reg)
	return out
}

// TestPressureSurgeEveryFrameHasVerdict is the admission-control
// acceptance check: under a 4× surge at thermal saturation with a
// deadline near the nominal frame latency, the ladder engages, every
// offered frame resolves to exactly one terminal verdict, and the p99
// latency of served frames stays within a fixed multiple of the
// deadline.
func TestPressureSurgeEveryFrameHasVerdict(t *testing.T) {
	fx := testutil.Shared(t)
	const baseStreams, surgeStreams, perStream = 2, 8, 150
	nominal := nominalFrameLatency(t, fx, baseStreams, 40)
	deadline := 2 * nominal
	out := runSurge(t, fx, surgeStreams, perStream, deadline)

	if out.offered != surgeStreams*perStream {
		t.Fatalf("offered %d frames, expected %d", out.offered, surgeStreams*perStream)
	}
	if got := out.served + out.shed + out.quarFrame; got != out.offered {
		t.Fatalf("verdicts %d ≠ offered %d: a frame escaped without a terminal verdict", got, out.offered)
	}
	if out.stats.ShedFrames == 0 {
		t.Fatalf("thermal saturation at deadline %v never engaged the shed ladder: %+v", deadline, out.press)
	}
	if out.served == 0 {
		t.Fatal("fleet shed everything: the drop-rung probe must keep serving")
	}
	// Served-frame latency stays bounded: a downgraded frame pays the
	// smallest resident model at worst-case derate, far under the full
	// pipeline at saturation. 8× covers the escalation transient.
	if limit := 8 * deadline; out.p99Served > limit {
		t.Fatalf("p99 served latency %v exceeds %v (deadline %v)", out.p99Served, limit, deadline)
	}
	// The damage is observable: pressure counters partition the sheds by
	// ladder rung.
	ladder := out.metrics["anole_pressure_shed_prefetch_total"] +
		out.metrics["anole_pressure_shed_downgrade_total"] +
		out.metrics["anole_pressure_shed_dropped_total"]
	if ladder == 0 {
		t.Fatalf("shed ladder engaged but anole_pressure_shed_* all zero: %v", out.metrics)
	}
	if out.metrics["anole_pressure_shed_dropped_total"] != float64(out.stats.ShedFrames) {
		t.Fatalf("dropped metric %v ≠ ShedFrames %d", out.metrics["anole_pressure_shed_dropped_total"], out.stats.ShedFrames)
	}
	t.Logf("seed %d: offered %d served %d (p99 %v, deadline %v) shed %d downgraded %d quarantined %d, level %s rung %s",
		chaosSeed(), out.offered, out.served, out.p99Served, deadline,
		out.stats.ShedFrames, out.stats.DowngradedServed, out.quarFrame, out.press.Level, out.press.Rung)
}

// TestPressureNominalBatchedBitIdentical pins the PR6 guarantee through
// the pressure machinery: with the deadline generous enough that the
// ladder never leaves ShedNone, a batched pressure-enabled run is
// bit-for-bit identical to the plain unbatched run.
func TestPressureNominalBatchedBitIdentical(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 4, 60
	run := func(batch bool, deadline time.Duration) [][]core.FrameResult {
		mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 3,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
			Batch:      batch,
			Deadline:   deadline,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mrt.Close()
		results, err := mrt.ProcessStreams(dealTestStreams(t, fx, streams, perStream, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	// An hour-long deadline is never missed, so the controller stays at
	// ShedNone for the whole run on both arms.
	const lax = time.Hour
	plain := run(false, 0)
	batched := run(true, lax)
	unbatched := run(false, lax)
	for s := range plain {
		for i := range plain[s] {
			if plain[s][i] != batched[s][i] {
				t.Fatalf("stream %d frame %d: batched+pressure diverged from plain:\n%+v\n%+v", s, i, batched[s][i], plain[s][i])
			}
			if plain[s][i] != unbatched[s][i] {
				t.Fatalf("stream %d frame %d: unbatched+pressure diverged from plain:\n%+v\n%+v", s, i, unbatched[s][i], plain[s][i])
			}
		}
	}
}

// linkedFleet builds a multi-stream fleet whose cache sits behind a
// pinned simulated link, so residency costs fetches and cold misses are
// observable.
func linkedFleet(tb testing.TB, fx testutil.Fixture, streams, slots int, seed uint64) *core.MultiRuntime {
	tb.Helper()
	net := lockedLinkConfig(core.PrefetchModels(fx.Bundle), netsim.Good, 4, prefetch.DefaultFrameInterval)
	link, err := netsim.NewLink(net, xrand.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	lf, err := prefetch.NewLinkFetcher(link, core.PrefetchModels(fx.Bundle), prefetch.DefaultFrameInterval)
	if err != nil {
		tb.Fatal(err)
	}
	mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: slots,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
		Prefetch:   &prefetch.Config{Fetcher: lf, TopK: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return mrt
}

// killRestartWorkload cuts the cyclic scene workload into per-stream
// halves for the kill-and-restart experiment. Two scenes alternate, and
// the cut lands mid-block — a process dies wherever it dies, not at a
// scene boundary — so the model serving at the moment of death is both
// in the checkpoint's residency manifest and the first thing the second
// half demands: the cold-start arm pays for that residency over the
// link, the restored arm does not.
func killRestartWorkload(tb testing.TB, fx testutil.Fixture, streams int) (first, second [][]*synth.Frame) {
	tb.Helper()
	const blockLen = 10
	frames := fx.Corpus.Frames(synth.Test)
	whole := blockWorkload(tb, fx.Bundle, frames, 2, blockLen, 6)
	cut := len(whole)/2 - blockLen/2
	first = make([][]*synth.Frame, streams)
	second = make([][]*synth.Frame, streams)
	for s := 0; s < streams; s++ {
		first[s] = whole[:cut]
		second[s] = whole[cut:]
	}
	return first, second
}

// TestPressureKillRestartRecovery is the crash/restart acceptance
// check: a fleet killed after its first half leaves a checkpoint; the
// restored fleet admits nothing the deployed bundle does not define and
// pays strictly fewer cold misses over the second half than an
// identical cold-started fleet.
func TestPressureKillRestartRecovery(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, slots = 2, 3
	seed := chaosSeed()
	first, second := killRestartWorkload(t, fx, streams)
	path := t.TempDir() + "/warm.ckpt"

	// Fleet A: serve the first half, then "die" — but checkpoint first.
	fleetA := linkedFleet(t, fx, streams, slots, seed)
	if _, err := fleetA.ProcessStreams(first, nil); err != nil {
		t.Fatal(err)
	}
	ckpt := fleetA.CaptureCheckpoint()
	// A hostile manifest entry must never be admitted on restore.
	ckpt.Cache = append(ckpt.Cache, pressure.CacheEntry{Key: "model-not-in-any-bundle", Freq: 99})
	if err := pressure.SaveCheckpoint(path, ckpt); err != nil {
		t.Fatal(err)
	}
	fleetA.Close()

	// Fleet B: fresh process, warm restore, second half.
	fleetB := linkedFleet(t, fx, streams, slots, seed+1)
	loaded, err := pressure.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("reload checkpoint: %v", err)
	}
	warmed, err := fleetB.RestoreCheckpoint(loaded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if warmed == 0 {
		t.Fatal("restore warmed nothing from a fleet that served half a workload")
	}
	known := make(map[string]bool)
	for _, d := range fx.Bundle.Detectors {
		known[d.Name] = true
	}
	for _, key := range fleetB.Cache().Keys() {
		if !known[key] {
			t.Fatalf("restore admitted %q, which the deployed bundle does not define", key)
		}
	}
	if _, err := fleetB.ProcessStreams(second, nil); err != nil {
		t.Fatal(err)
	}
	fleetB.Close()
	warmMisses := fleetB.Stats().ColdMisses

	// Fleet C: identical traffic, cold start.
	fleetC := linkedFleet(t, fx, streams, slots, seed+1)
	if _, err := fleetC.ProcessStreams(second, nil); err != nil {
		t.Fatal(err)
	}
	fleetC.Close()
	coldMisses := fleetC.Stats().ColdMisses

	if coldMisses == 0 {
		t.Fatal("cold fleet paid no cold misses: the workload exercises nothing")
	}
	if warmMisses >= coldMisses {
		t.Fatalf("warm restart paid %d cold misses, cold start %d: restore bought no warmth", warmMisses, coldMisses)
	}
	t.Logf("seed %d: warmed %d models; cold misses warm %d vs cold %d", seed, warmed, warmMisses, coldMisses)
}

// TestPressureCorruptCheckpointColdStart asserts a damaged checkpoint
// costs only warmth: truncation, bit flips and version skew all surface
// as errors (never a panic or a partial restore), and the fleet then
// serves its traffic from a cold start.
func TestPressureCorruptCheckpointColdStart(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, slots = 2, 3
	_, second := killRestartWorkload(t, fx, streams)
	dir := t.TempDir()
	path := dir + "/warm.ckpt"

	fleetA := linkedFleet(t, fx, streams, slots, chaosSeed())
	first, _ := killRestartWorkload(t, fx, streams)
	if _, err := fleetA.ProcessStreams(first, nil); err != nil {
		t.Fatal(err)
	}
	if err := pressure.SaveCheckpoint(path, fleetA.CaptureCheckpoint()); err != nil {
		t.Fatal(err)
	}
	fleetA.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{
		"truncated": blob[:len(blob)/2],
		"bitflip":   flipByte(blob, len(blob)/2),
		"skewed":    flipByte(blob, 4), // version field follows the magic
	}
	for name, corrupt := range damage {
		bad := dir + "/" + name + ".ckpt"
		if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := pressure.LoadCheckpoint(bad); err == nil {
			t.Fatalf("%s checkpoint loaded without error", name)
		}
	}

	// The fallback path: no restore happened, the fleet still serves.
	fleetCold := linkedFleet(t, fx, streams, slots, chaosSeed())
	results, err := fleetCold.ProcessStreams(second, nil)
	if err != nil {
		t.Fatalf("cold-start fallback failed to serve: %v", err)
	}
	fleetCold.Close()
	for s := range results {
		for i, res := range results[s] {
			if res.Used < 0 {
				t.Fatalf("stream %d frame %d served by no model after cold start", s, i)
			}
		}
	}
}

// flipByte returns a copy of b with one bit flipped at index i.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// BenchmarkPressureSurge is the CI artifact source: the 4× surge at
// thermal saturation, reporting shed rate, served-frame p99 and
// quarantine counts per configuration.
func BenchmarkPressureSurge(b *testing.B) {
	l := lab(b)
	fx := testutil.Fixture{World: l.World, Corpus: l.Corpus, Bundle: l.Bundle}
	const baseStreams, perStream = 2, 100
	nominal := nominalFrameLatency(b, fx, baseStreams, 40)
	for _, mult := range []int{2, 4} {
		streams := baseStreams * mult
		b.Run(fmt.Sprintf("surge=%dx/streams=%d", mult, streams), func(b *testing.B) {
			var out surgeOutcome
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = runSurge(b, fx, streams, perStream, 2*nominal)
			}
			b.ReportMetric(float64(out.shed)/float64(out.offered), "shed-rate")
			b.ReportMetric(float64(out.stats.DowngradedServed)/float64(out.offered), "downgrade-rate")
			b.ReportMetric(1e3*out.p99Served.Seconds(), "p99-served-ms")
			b.ReportMetric(float64(out.press.Quarantines), "quarantines")
		})
	}
}
