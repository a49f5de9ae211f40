package core_test

import (
	"testing"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

// prewarmCache admits every repertoire model so subsequent requests are
// hits regardless of stream interleaving — the precondition for exact
// cross-mode result comparison.
func prewarmCache(t *testing.T, store *modelcache.Cache, b *core.Bundle) {
	t.Helper()
	for _, det := range b.Detectors {
		if _, _, err := store.Request(det.Name, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiRuntimeBatchedSingleStreamMatchesRuntime is the batched
// path's determinism guard: one stream with Batch on must be
// frame-for-frame bit-identical to the plain Runtime — including cold
// cache admissions, hysteresis smoothing and simulated latency —
// because the batched kernels preserve summation order and the cache
// backbone runs sequentially.
func TestMultiRuntimeBatchedSingleStreamMatchesRuntime(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 120)[0]

	for _, hysteresis := range []int{0, 3} {
		single, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Device:           mustSim(device.JetsonTX2NX),
		})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          1,
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Fleet:            device.UniformFleet(device.JetsonTX2NX, 1),
			Batch:            true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer multi.Close()

		want := make([]core.FrameResult, 0, len(frames))
		for _, f := range frames {
			res, err := single.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		got, err := multi.ProcessStreams([][]*synth.Frame{frames}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[0][i] != want[i] {
				t.Fatalf("hysteresis %d: frame %d diverged:\nbatched %+v\n single %+v",
					hysteresis, i, got[0][i], want[i])
			}
		}
		ss, ms := single.Stats(), multi.Stats()
		if ss.Frames != ms.Frames || ss.Switches != ms.Switches ||
			ss.Detection != ms.Detection || ss.TotalLatency != ms.TotalLatency {
			t.Fatalf("hysteresis %d: aggregate stats diverged:\nbatched %+v\n single %+v", hysteresis, ms, ss)
		}
	}
}

// TestMultiRuntimeBatchedMatchesUnbatched pins batch-on against
// batch-off over several streams sharing one pre-warmed all-models
// cache: with admission order neutralized, every per-frame result and
// every per-stream stat must be bit-identical across the two modes.
func TestMultiRuntimeBatchedMatchesUnbatched(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 6, 50
	frameSets := streamFrames(t, streams, perStream)

	run := func(batch bool) ([][]core.FrameResult, []core.RunStats) {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          streams,
			CacheSlots:       fx.Bundle.NumModels(),
			SwitchHysteresis: 2,
			Fleet:            device.UniformFleet(device.JetsonTX2NX, streams),
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
		for i := range plain[s] {
			if batched[s][i] != plain[s][i] {
				t.Fatalf("stream %d frame %d diverged:\n batched %+v\nunbatched %+v",
					s, i, batched[s][i], plain[s][i])
			}
		}
		bs, ps := bstats[s], pstats[s]
		if bs.Frames != ps.Frames || bs.Switches != ps.Switches ||
			bs.Detection != ps.Detection || bs.TotalLatency != ps.TotalLatency ||
			bs.FallbackServed != ps.FallbackServed {
			t.Fatalf("stream %d stats diverged:\n batched %+v\nunbatched %+v", s, bs, ps)
		}
	}
}

// TestMultiRuntimeBatchedDeterministic runs the batched loop twice over
// a deliberately contended cache (fewer slots than models, no prewarm):
// the sequential resolve backbone makes the whole run a deterministic
// function of its input, so two fresh MultiRuntimes must agree on every
// frame — a guarantee the concurrent unbatched mode cannot make.
func TestMultiRuntimeBatchedDeterministic(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 5, 40
	frameSets := streamFrames(t, streams, perStream)

	run := func() [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          streams,
			CacheSlots:       2,
			SwitchHysteresis: 2,
			Policy:           modelcache.LFU,
			Batch:            true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		results, err := m.ProcessStreams(frameSets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	first, second := run(), run()
	for s := 0; s < streams; s++ {
		for i := range first[s] {
			if first[s][i] != second[s][i] {
				t.Fatalf("stream %d frame %d not deterministic:\n first %+v\nsecond %+v",
					s, i, first[s][i], second[s][i])
			}
		}
	}
}

// TestMultiRuntimeBatchedObserverOrder pins the batched observer
// contract: calls arrive serialized in strict (tick, stream) order, so
// an observer needs no locks and sees streams advance in lockstep —
// never two frames of one stream before every ready stream has had its
// turn at the earlier tick.
func TestMultiRuntimeBatchedObserverOrder(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 4, 15
	frameSets := streamFrames(t, streams, perStream)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: streams,
		Batch:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var order []int
	perStreamSeen := make([]int, streams)
	_, err = m.ProcessStreams(frameSets, func(stream int, f *synth.Frame, res core.FrameResult) error {
		order = append(order, stream)
		perStreamSeen[stream]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != streams*perStream {
		t.Fatalf("observer saw %d calls, want %d", len(order), streams*perStream)
	}
	for i, s := range order {
		tick, within := i/streams, i%streams
		if s != within {
			t.Fatalf("call %d (tick %d): stream %d, want %d — not (tick, stream) order", i, tick, s, within)
		}
	}
	for s, n := range perStreamSeen {
		if n != perStream {
			t.Fatalf("stream %d observed %d frames, want %d", s, n, perStream)
		}
	}
}

// TestMultiRuntimeBatchedUnequalLengths drives streams of different
// lengths (including an empty one) through the batched loop: ticks must
// stay fair as short streams drain, every produced result must match
// the unbatched run, and the occupancy gauge must end at the final
// tick's ready fraction.
func TestMultiRuntimeBatchedUnequalLengths(t *testing.T) {
	fx := testutil.Shared(t)
	base := streamFrames(t, 1, 9)[0]
	frameSets := [][]*synth.Frame{base, base[:4], nil, base[:7]}
	const streams = 4

	run := func(batch bool, reg *telemetry.Registry) [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: fx.Bundle.NumModels(),
			Batch:      batch,
			Metrics:    reg,
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
		return results
	}

	reg := telemetry.NewRegistry()
	batched := run(true, reg)
	plain := run(false, nil)
	for s := range frameSets {
		if len(batched[s]) != len(frameSets[s]) {
			t.Fatalf("stream %d: %d results for %d frames", s, len(batched[s]), len(frameSets[s]))
		}
		for i := range plain[s] {
			if batched[s][i] != plain[s][i] {
				t.Fatalf("stream %d frame %d diverged:\n batched %+v\nunbatched %+v",
					s, i, batched[s][i], plain[s][i])
			}
		}
	}
	// The last tick (index 8) has 1 of 4 streams ready.
	if occ := reg.Gauge("anole_core_tick_occupancy", "").Value(); occ != 0.25 {
		t.Fatalf("final tick occupancy %v, want 0.25", occ)
	}
}

// TestMultiRuntimeBatchMetricsAndChunking pins the batch telemetry and
// the MaxBatch chunking rule: 10 ready streams with MaxBatch 4 must
// dispatch ceil(10/4)=3 chunks per tick, carry every frame through the
// batched path, and still produce results identical to one un-chunked
// dispatch.
func TestMultiRuntimeBatchMetricsAndChunking(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 10, 12
	frameSets := streamFrames(t, streams, perStream)

	run := func(maxBatch int, reg *telemetry.Registry) [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: fx.Bundle.NumModels(),
			Batch:      true,
			MaxBatch:   maxBatch,
			Metrics:    reg,
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
		return results
	}

	reg := telemetry.NewRegistry()
	chunked := run(4, reg)
	whole := run(0, nil)
	for s := 0; s < streams; s++ {
		for i := range whole[s] {
			if chunked[s][i] != whole[s][i] {
				t.Fatalf("stream %d frame %d: chunked %+v, whole %+v", s, i, chunked[s][i], whole[s][i])
			}
		}
	}
	wantDispatches := int64(perStream * 3) // ceil(10/4) chunks per tick
	if got := reg.Counter("anole_core_batch_dispatches_total", "").Value(); got != wantDispatches {
		t.Fatalf("batch dispatches %d, want %d", got, wantDispatches)
	}
	if got := reg.Counter("anole_core_batched_frames_total", "").Value(); got != int64(streams*perStream) {
		t.Fatalf("batched frames %d, want %d", got, streams*perStream)
	}
	if got := reg.Histogram("anole_core_batch_size_frames", "", nil).Count(); got != wantDispatches {
		t.Fatalf("batch size observations %d, want %d", got, wantDispatches)
	}
}

// TestMultiRuntimeBatchedStressMatchesSequential is the 1k-stream
// equivalence stress: 1024 streams × 4 frames through the batched
// MultiRuntime (chunked decide batches, parallel per-model detector
// groups) against a pre-warmed all-models cache, with every stream's
// results compared bit-for-bit to a sequential single-stream Runtime
// pass over the same frames. Run with -race: the detector groups are
// the only concurrent stage and must stay disjoint.
func TestMultiRuntimeBatchedStressMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-stream stress skipped in -short")
	}
	fx := testutil.Shared(t)
	streams := 1024
	if raceDetectorEnabled {
		// The detector multiplies per-frame cost; keep the stress
		// meaningful but bounded under -race.
		streams = 256
	}
	const perStream = 4
	frameSets := streamFrames(t, streams, perStream)
	slots := fx.Bundle.NumModels()

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:          streams,
		CacheSlots:       slots,
		SwitchHysteresis: 2,
		Fleet:            device.UniformFleet(device.JetsonTX2NX, streams),
		Batch:            true,
		MaxBatch:         256,
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

	for s := 0; s < streams; s++ {
		store := modelcache.MustNew(slots, modelcache.LFU)
		prewarmCache(t, store, fx.Bundle)
		single, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
			Store:            store,
			SwitchHysteresis: 2,
			Device:           mustSim(device.JetsonTX2NX),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frameSets[s] {
			want, err := single.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if results[s][i] != want {
				t.Fatalf("stream %d frame %d diverged:\n   batched %+v\nsequential %+v",
					s, i, results[s][i], want)
			}
		}
	}
}
