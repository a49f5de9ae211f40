package core_test

import (
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// TestMultiRuntimeThermalThrottlingRaisesLatency is the regression
// guard for satellite thermal wiring: a fleet configured with a
// thermal model that cannot sustain the workload must heat past the
// throttle threshold, and the resulting derate must show up in the
// core frame-latency accounting — strictly higher TotalLatency than an
// identical run without the thermal model.
func TestMultiRuntimeThermalThrottlingRaisesLatency(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 2, 120
	run := func(th *device.ThermalModel) *core.MultiRuntime {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 3,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
			Thermal:    th,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if _, err := m.ProcessStreams(streamFrames(t, streams, perStream), nil); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cool := run(nil)
	hot := run(&device.ThermalModel{
		SustainedW:   0.5, // far below the TX2 NX active draw: saturates
		TimeConstant: time.Millisecond,
		MaxDerate:    0.9,
	})

	for i := 0; i < streams; i++ {
		dev := hot.StreamDevice(i)
		if dev.Heat() <= 1 {
			t.Fatalf("stream %d heat %.3f, want past the throttle threshold 1", i, dev.Heat())
		}
		if dev.ThrottleFactor() >= 1 {
			t.Fatalf("stream %d throttle factor %.3f, want a derate", i, dev.ThrottleFactor())
		}
		if cool.StreamDevice(i).Heat() != 0 {
			t.Fatalf("stream %d heated without a thermal model", i)
		}
	}
	hs, cs := hot.Stats(), cool.Stats()
	if hs.Frames != cs.Frames {
		t.Fatalf("frame counts diverged: %d vs %d", hs.Frames, cs.Frames)
	}
	if hs.TotalLatency <= cs.TotalLatency {
		t.Fatalf("throttled latency %v not above unthrottled %v", hs.TotalLatency, cs.TotalLatency)
	}
}

// TestMultiRuntimeGPUMemoryBecomesByteCapacity pins satellite (b): a
// device profile's GPUMemoryMB is enforced as the shared cache's byte
// capacity (scaled to sizer units), and a run never leaves the
// resident set above it.
func TestMultiRuntimeGPUMemoryBecomesByteCapacity(t *testing.T) {
	fx := testutil.Shared(t)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: 3,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	want := int64(device.JetsonTX2NX.GPUMemoryMB * float64(1<<20) / device.BytesScale)
	if got := m.Cache().ByteCapacity(); got != want {
		t.Fatalf("byte capacity %d, want %d from the %s profile", got, want, device.JetsonTX2NX.Name)
	}
	if _, err := m.ProcessStreams(streamFrames(t, 2, 60), nil); err != nil {
		t.Fatal(err)
	}
	if used := m.Cache().BytesUsed(); used <= 0 || used > want {
		t.Fatalf("resident bytes %d outside (0, %d]", used, want)
	}

	// Without a device profile there is nothing to enforce.
	free, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: 2, CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	if got := free.Cache().ByteCapacity(); got != 0 {
		t.Fatalf("byte capacity %d without a device profile, want 0", got)
	}
}

// TestMultiRuntimeSwapPurgeByteAccounting pins satellite (c)'s ledger
// invariant: through a canary swap, a rollback, and a stale-model
// purge, BytesUsed always equals the currently wired sizer summed over
// the resident key set — byte accounting never drifts.
func TestMultiRuntimeSwapPurgeByteAccounting(t *testing.T) {
	fx := testutil.Shared(t)
	candidate, err := core.QuantizeBundle(fx.Bundle, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: fx.Bundle.NumModels() + 2,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// sizesOf mirrors the runtime's sizer registry: detector name to frozen serialized
	// size; keys outside the bundle measure zero.
	sizesOf := func(b *core.Bundle) map[string]int64 {
		out := make(map[string]int64, len(b.Detectors))
		for _, d := range b.Detectors {
			out[d.Name] = d.SizeBytes()
		}
		return out
	}
	ledgerMatches := func(step string, sizes map[string]int64) {
		t.Helper()
		var want int64
		for _, k := range m.Cache().Keys() {
			want += sizes[k]
		}
		if got := m.Cache().BytesUsed(); got != want {
			t.Fatalf("%s: BytesUsed %d, resident sum %d", step, got, want)
		}
	}

	if _, err := m.ProcessStreams(streamFrames(t, 2, 60), nil); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after warmup", sizesOf(fx.Bundle))

	// Residents from a withdrawn generation, unknown to any sizer.
	for _, stale := range []string{"M_old_a", "M_old_b"} {
		if _, _, err := m.Cache().Request(stale, 1); err != nil {
			t.Fatal(err)
		}
	}
	ledgerMatches("with stale residents", sizesOf(fx.Bundle))

	// Canary: the swap re-wires the sizer to the candidate bundle and
	// re-measures every resident.
	if err := m.SwapStreamBundle(1, candidate); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after canary swap", sizesOf(candidate))
	if _, err := m.ProcessStreams(streamFrames(t, 2, 40), nil); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after mixed-fleet run", sizesOf(candidate))

	// Rollback, then purge the stale generation.
	if err := m.SwapStreamBundle(1, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	if purged := m.PurgeStaleModels(); purged != 2 {
		t.Fatalf("purged %d, want the 2 stale models", purged)
	}
	ledgerMatches("after purge", sizesOf(fx.Bundle))
	for _, k := range m.Cache().Keys() {
		if sizesOf(fx.Bundle)[k] == 0 {
			t.Fatalf("non-bundle key %q survived the purge", k)
		}
	}
}

// TestMultiRuntimePressureFrameErrorQuarantines pins error-to-quarantine
// under the pressure machinery in both chunkings: one stream fed frames
// of the wrong feature dimension is quarantined instead of aborting the
// run, every offered frame gets a terminal verdict, the other streams
// are served, the observer sees every frame in (tick, stream) order,
// and batched and unbatched runs return identical results.
func TestMultiRuntimePressureFrameErrorQuarantines(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream, bad = 4, 30, 2
	frameSets := streamFrames(t, streams, perStream)
	for i := range frameSets[bad] {
		frameSets[bad][i] = &synth.Frame{}
	}
	run := func(batch bool) [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 3,
			Batch:      batch,
			Deadline:   time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		calls := 0
		results, err := m.ProcessStreams(frameSets, func(stream int, _ *synth.Frame, _ core.FrameResult) error {
			if tick, want := calls/streams, calls%streams; stream != want {
				t.Errorf("batch=%v: observer call %d (tick %d) for stream %d, want %d", batch, calls, tick, stream, want)
			}
			calls++
			return nil
		})
		if err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if calls != streams*perStream {
			t.Fatalf("batch=%v: observer saw %d frames, want %d", batch, calls, streams*perStream)
		}
		if ps := m.PressureStats(); ps.QuarantinedFrames != perStream || ps.Quarantines == 0 {
			t.Fatalf("batch=%v: pressure stats %+v, want %d quarantined frames", batch, ps, perStream)
		}
		return results
	}
	unbatched, batched := run(false), run(true)
	for s := range unbatched {
		want := core.VerdictServed
		if s == bad {
			want = core.VerdictQuarantined
		}
		for i := range unbatched[s] {
			if unbatched[s][i] != batched[s][i] {
				t.Fatalf("stream %d frame %d: unbatched %+v, batched %+v", s, i, unbatched[s][i], batched[s][i])
			}
			if v := unbatched[s][i].Verdict; v != want {
				t.Fatalf("stream %d frame %d: verdict %v, want %v", s, i, v, want)
			}
		}
	}
}
