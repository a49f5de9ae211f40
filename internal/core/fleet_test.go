package core_test

import (
	"strings"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/testutil"
)

// tightProfile is a synthetic device whose model-cache byte capacity
// sits between the quantized and full-precision repertoire sizes, so a
// planner that respects memory ceilings MUST pick a quantized variant.
// (The shared fixture's fp32 repertoire serializes to ~18.9 KB sizer
// units and each quantized variant to ~2.7 KB; 64 MB of GPU memory is
// 6710 sizer units — q fits, fp32 does not.)
func tightProfile(memMB float64) device.Profile {
	return device.Profile{
		Name:               "tight",
		GPUMemoryMB:        memMB,
		IOBandwidthMBps:    100,
		FrameworkInitMs:    100,
		DispatchOverheadMs: 1,
		Modes: []device.PowerMode{
			{Name: "5W", BudgetW: 5, Cores: 2, GFLOPS: 300, IdleW: 1, ActiveW: 4.5},
		},
	}
}

// sameRunStats compares the scalar surface of two RunStats (the slice
// fields are per-model histograms; reflect.DeepEqual would hide which
// scalar diverged, and the scalars already cover every execution-path
// difference we guard against).
func sameRunStats(a, b core.RunStats) bool {
	return a.Frames == b.Frames && a.Switches == b.Switches &&
		a.Detection == b.Detection && a.TotalLatency == b.TotalLatency &&
		a.Cache == b.Cache && a.MissRate == b.MissRate &&
		a.ColdMisses == b.ColdMisses && a.FetchStall == b.FetchStall
}

// repertoireBytes sums the serialized detector sizes of a bundle — the
// planner's residency cost for that variant.
func repertoireBytes(b *core.Bundle) int64 {
	var total int64
	for _, d := range b.Detectors {
		total += d.SizeBytes()
	}
	return total
}

// TestMultiRuntimeMixedFleetBatchedMatchesUnbatched extends the batch
// equivalence harness to a heterogeneous fleet: six streams split
// across Nano, TX2 NX and laptop profiles, batch on vs. off, one
// pre-warmed cache. Batching groups streams by resolved
// bundle and runs the shared backbone in global stream order, so the
// two modes must stay bit-identical per frame and per stream even when
// profile classes (and their simulated latencies) differ.
func TestMultiRuntimeMixedFleetBatchedMatchesUnbatched(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 6, 50
	frameSets := streamFrames(t, streams, perStream)
	fleet, err := device.BuildFleet("nano:2,tx2:2,laptop:2", streams, 42)
	if err != nil {
		t.Fatal(err)
	}

	run := func(batch bool) ([][]core.FrameResult, []core.RunStats) {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          streams,
			CacheSlots:       fx.Bundle.NumModels(),
			SwitchHysteresis: 2,
			Fleet:            fleet,
			Batch:            batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		prewarmCache(t, m.Cache(), fx.Bundle)
		results, err := m.ProcessStreams(frameSets, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]core.RunStats, streams)
		for s := range stats {
			stats[s] = m.StreamStats(s)
		}
		return results, stats
	}

	batched, bstats := run(true)
	plain, pstats := run(false)
	for s := 0; s < streams; s++ {
		if !sameRunStats(bstats[s], pstats[s]) {
			t.Fatalf("stream %d (%s) stats diverged:\nbatched   %+v\nunbatched %+v",
				s, fleet[s].Class, bstats[s], pstats[s])
		}
		for i := range plain[s] {
			if batched[s][i] != plain[s][i] {
				t.Fatalf("stream %d (%s) frame %d diverged:\nbatched   %+v\nunbatched %+v",
					s, fleet[s].Class, i, batched[s][i], plain[s][i])
			}
		}
	}
}

// TestPlannerRespectsMemoryCeiling pins the hard constraint: a device
// whose byte capacity cannot hold the full-precision repertoire must be
// planned onto a quantized variant whose repertoire fits, while a roomy
// device on the same fleet keeps full precision.
func TestPlannerRespectsMemoryCeiling(t *testing.T) {
	fx := testutil.Shared(t)
	tight := tightProfile(64)
	fleet := device.Fleet{
		{Class: "tight", Profile: tight, Mode: tight.DefaultMode},
		{Class: "tx2", Profile: device.JetsonTX2NX, Mode: device.JetsonTX2NX.DefaultMode},
	}
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: fx.Bundle.NumModels(),
		Fleet:      fleet,
		Plan:       &core.PlanConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if v := m.StreamVariant(0); v == "fp32" || v == "" {
		t.Fatalf("tight stream planned onto %q; want a quantized variant", v)
	}
	// The chosen variant's repertoire must fit the device's own byte
	// capacity (GPUMemoryMB scaled into cache sizer units), not the
	// fleet-wide maximum.
	ceiling := int64(tight.GPUMemoryMB * float64(1<<20) / device.BytesScale)
	if got := repertoireBytes(m.StreamBundle(0)); got > ceiling {
		t.Fatalf("tight stream repertoire %d bytes exceeds its %d-byte ceiling", got, ceiling)
	}
	if v := m.StreamVariant(1); v != "fp32" {
		t.Fatalf("roomy TX2 stream planned onto %q; want fp32", v)
	}
	if got := repertoireBytes(m.StreamBundle(0)); got >= repertoireBytes(m.StreamBundle(1)) {
		t.Fatal("quantized repertoire not smaller than full precision")
	}

	// A device too small for even the narrowest variant is a
	// configuration error, not a silent degradation.
	hopeless := tightProfile(16)
	_, err = core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    1,
		CacheSlots: fx.Bundle.NumModels(),
		Fleet:      device.Fleet{{Class: "hopeless", Profile: hopeless, Mode: 0}},
		Plan:       &core.PlanConfig{},
	})
	if err == nil || !strings.Contains(err.Error(), "fits") {
		t.Fatalf("16MB device should fail construction with a no-variant-fits error, got %v", err)
	}
}

// TestPlannerLatencyBudgetSelectsQuantized drives selection through the
// latency axis: a budget the Nano cannot meet at full precision but can
// meet quantized must step that class down while the (much faster) TX2
// stays at fp32. The planned fleet's simulated latency must then beat
// one-size-fits-all fp32 on the same frames.
func TestPlannerLatencyBudgetSelectsQuantized(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 4, 40
	frameSets := streamFrames(t, streams, perStream)
	fleet, err := device.BuildFleet("nano:2,tx2:2", streams, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Nano fp32 estimate ≈ 37ms (decide + worst detector + 2 dispatch
	// overheads at 236 GFLOPS); quantized detectors clear 30ms easily,
	// while TX2 fp32 sits near 6ms.
	budget := 30 * time.Millisecond

	build := func(plan *core.PlanConfig) *core.MultiRuntime {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 4 * fx.Bundle.NumModels(),
			Fleet:      fleet,
			Plan:       plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	planned := build(&core.PlanConfig{LatencyBudget: budget})
	defer planned.Close()
	for i, a := range fleet {
		v := planned.StreamVariant(i)
		switch a.Class {
		case "nano":
			if v == "fp32" {
				t.Fatalf("stream %d (nano) kept fp32 under a %v budget", i, budget)
			}
		case "tx2":
			if v != "fp32" {
				t.Fatalf("stream %d (tx2) planned onto %q; want fp32", i, v)
			}
		}
	}

	uniform := build(nil)
	defer uniform.Close()
	if _, err := planned.ProcessStreams(frameSets, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := uniform.ProcessStreams(frameSets, nil); err != nil {
		t.Fatal(err)
	}
	for i, a := range fleet {
		if a.Class != "nano" {
			continue
		}
		p, u := planned.StreamStats(i).TotalLatency, uniform.StreamStats(i).TotalLatency
		if p >= u {
			t.Fatalf("stream %d (nano): planned latency %v not better than one-size-fits-all %v", i, p, u)
		}
	}
}

// TestMultiRuntimeFleetConfigErrors pins the construction-time guard
// rails: a fleet sized for the wrong stream count, planning without any
// device fleet, and manual bundle swaps while the planner owns variant
// assignment are all refused.
func TestMultiRuntimeFleetConfigErrors(t *testing.T) {
	fx := testutil.Shared(t)

	_, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: 3,
		Fleet:   device.UniformFleet(device.JetsonNano, 2),
	})
	if err == nil || !strings.Contains(err.Error(), "assignments") {
		t.Fatalf("fleet/stream mismatch not refused: %v", err)
	}

	_, err = core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: 2,
		Plan:    &core.PlanConfig{},
	})
	if err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("plan without fleet not refused: %v", err)
	}

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: fx.Bundle.NumModels(),
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 2),
		Plan:       &core.PlanConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SwapStreamBundle(0, fx.Bundle); err == nil {
		t.Fatal("SwapStreamBundle allowed while planner owns variants")
	}
	if err := m.SwapAllBundles(fx.Bundle); err == nil {
		t.Fatal("SwapAllBundles allowed while planner owns variants")
	}
}

// TestCheckpointRefusesForeignFleet pins checkpoint portability: a
// checkpoint captured on one fleet layout restores onto an identical
// layout but is refused by a fleet with different classes (stream
// indices would map to different hardware) or a different stream count.
func TestCheckpointRefusesForeignFleet(t *testing.T) {
	fx := testutil.Shared(t)
	build := func(spec string, streams int) *core.MultiRuntime {
		fleet, err := device.BuildFleet(spec, streams, 11)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: fx.Bundle.NumModels(),
			Fleet:      fleet,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}

	src := build("nano:1,tx2:1", 2)
	prewarmCache(t, src.Cache(), fx.Bundle)
	cp := src.CaptureCheckpoint()
	if len(cp.Fleet) != 2 {
		t.Fatalf("checkpoint fleet section has %d classes, want 2", len(cp.Fleet))
	}

	same := build("nano:1,tx2:1", 2)
	if warmed, err := same.RestoreCheckpoint(cp); err != nil || warmed == 0 {
		t.Fatalf("same-layout restore failed: warmed=%d err=%v", warmed, err)
	}

	foreign := build("laptop:2", 2)
	if _, err := foreign.RestoreCheckpoint(cp); err == nil {
		t.Fatal("restore onto a different fleet layout not refused")
	}

	shorter := build("nano:1", 1)
	if _, err := shorter.RestoreCheckpoint(cp); err == nil {
		t.Fatal("restore onto a different stream count not refused")
	}

	// Checkpoints without a fleet section (v1 files, single-device
	// runs) restore anywhere.
	cp.Fleet = nil
	if _, err := foreign.RestoreCheckpoint(cp); err != nil {
		t.Fatalf("fleet-less checkpoint refused: %v", err)
	}
}
