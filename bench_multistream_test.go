package anole_test

// Multi-stream runtime benchmarks: N independent frame streams
// multiplexed over one shared model cache (core.MultiRuntime). The
// sweep shows how the streams' competition for cache slots moves with
// streams × slots; the vs-sequential benchmark reports the
// simulated-device speedup of serving four streams concurrently instead
// of back-to-back, which must clear 1.5x for the multiplexing to pay
// for sharing one cache.

import (
	"fmt"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
)

// mustSim builds a simulator for a known-good registry profile.
func mustSim(p device.Profile) *device.Simulator {
	sim, err := device.NewSimulator(p)
	if err != nil {
		panic(err)
	}
	return sim
}

// dealStreams deals the lab's test frames round-robin into n streams of
// perStream frames each, wrapping around the fixture when it is shorter
// than the demand. Frames are read-only inputs, so streams may share
// them.
func dealStreams(b *testing.B, n, perStream int) [][]*synth.Frame {
	b.Helper()
	frames := lab(b).Corpus.Frames(synth.Test)
	if len(frames) == 0 {
		b.Fatal("lab has no test frames")
	}
	streams := make([][]*synth.Frame, n)
	for s := range streams {
		streams[s] = make([]*synth.Frame, perStream)
		for i := range streams[s] {
			streams[s][i] = frames[(s*perStream+i)%len(frames)]
		}
	}
	return streams
}

// BenchmarkMultiStream_CacheSweep crosses stream count with cache
// capacity. Reported metrics: wall-clock aggregate throughput on the
// host, simulated aggregate throughput on the modeled device (streams
// progress concurrently, so makespan is the slowest stream), the
// shared cache's miss rate — the contention signal — and the resident
// model bytes of the shared cache. Streams share one frozen bundle
// (no per-stream clones), so resident-bytes depends on slots only:
// it is flat across the streams axis.
func BenchmarkMultiStream_CacheSweep(b *testing.B) {
	const perStream = 100
	for _, streams := range []int{1, 2, 4} {
		for _, slots := range []int{2, 5} {
			b.Run(fmt.Sprintf("streams=%d/slots=%d", streams, slots), func(b *testing.B) {
				l := lab(b)
				inputs := dealStreams(b, streams, perStream)
				var simFPS, missRate, residentBytes float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mrt, err := core.NewMultiRuntime(l.Bundle, core.MultiRuntimeConfig{
						Streams:    streams,
						CacheSlots: slots,
						Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := mrt.ProcessStreams(inputs, nil); err != nil {
						b.Fatal(err)
					}
					st := mrt.Stats()
					missRate = st.MissRate
					residentBytes = float64(mrt.Cache().BytesUsed())
					if ms := mrt.SimulatedMakespan().Seconds(); ms > 0 {
						simFPS = float64(st.Frames) / ms
					}
				}
				wall := b.Elapsed().Seconds()
				if wall > 0 {
					b.ReportMetric(float64(streams*perStream*b.N)/wall, "frames/s-wall")
				}
				b.ReportMetric(simFPS, "frames/s-simulated")
				b.ReportMetric(missRate, "miss-rate")
				b.ReportMetric(residentBytes, "resident-bytes")
			})
		}
	}
}

// BenchmarkMultiStream_BatchCurve is the streams-vs-throughput curve of
// the tick pipeline: stream counts from 64 to 1024, batching on
// and off, all against a wide-open pre-warmed cache so the curve
// isolates execution strategy from cache contention. Reported metrics:
// wall-clock per-frame latency and aggregate throughput on the host.
// Batching amortizes kernel dispatch over the whole tick (one GEMM per
// layer instead of one GEMV per stream), so ns/frame should grow
// sublinearly from 64 to 1024 streams while the unbatched loop pays
// per-frame overhead throughout.
func BenchmarkMultiStream_BatchCurve(b *testing.B) {
	const perStream = 8
	for _, streams := range []int{64, 256, 1024} {
		for _, batch := range []bool{false, true} {
			b.Run(fmt.Sprintf("streams=%d/batch=%v", streams, batch), func(b *testing.B) {
				l := lab(b)
				inputs := dealStreams(b, streams, perStream)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mrt, err := core.NewMultiRuntime(l.Bundle, core.MultiRuntimeConfig{
						Streams:    streams,
						CacheSlots: l.Bundle.NumModels(),
						Batch:      batch,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, det := range l.Bundle.Detectors {
						if _, _, err := mrt.Cache().Request(det.Name, 1); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := mrt.ProcessStreams(inputs, nil); err != nil {
						b.Fatal(err)
					}
					mrt.Close()
				}
				frames := float64(streams * perStream * b.N)
				wall := b.Elapsed().Seconds()
				if wall > 0 {
					b.ReportMetric(wall*1e9/frames, "ns/frame")
					b.ReportMetric(frames/wall, "frames/s-wall")
				}
			})
		}
	}
}

// BenchmarkMultiStream_VsSequential compares four streams served
// concurrently by one MultiRuntime against the same four streams run
// back-to-back through fresh single-stream Runtimes on one device. The
// sequential makespan is the sum of per-run simulated latency; the
// concurrent makespan is the slowest stream. simulated-speedup is their
// ratio and must exceed 1.5x — the streams sharing one cache's slots
// and eviction pressure is what keeps it below the ideal 4x.
func BenchmarkMultiStream_VsSequential(b *testing.B) {
	const streams, perStream, slots = 4, 100, 5
	l := lab(b)
	inputs := dealStreams(b, streams, perStream)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sequential time.Duration
		for s := 0; s < streams; s++ {
			sim := mustSim(device.JetsonTX2NX)
			rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: slots, Device: sim})
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range inputs[s] {
				if _, err := rt.ProcessFrame(f); err != nil {
					b.Fatal(err)
				}
			}
			sequential += rt.Stats().TotalLatency
		}

		mrt, err := core.NewMultiRuntime(l.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: slots,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mrt.ProcessStreams(inputs, nil); err != nil {
			b.Fatal(err)
		}
		concurrent := mrt.SimulatedMakespan()
		if concurrent > 0 {
			speedup = sequential.Seconds() / concurrent.Seconds()
		}
	}
	b.ReportMetric(speedup, "simulated-speedup")
}
