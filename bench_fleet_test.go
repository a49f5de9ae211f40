package anole_test

// Heterogeneous-fleet benchmark: 100 streams split across the paper's
// three platforms (40 Jetson Nano, 40 TX2 NX, 20 laptop) multiplex over
// one shared model cache. The benchmark runs the mix twice on the same
// seed — one-size-fits-all full precision, then per-device planning
// (internal/plan) — and reports per-class and fleet-wide p99 latency
// for both. It doubles as the planner's acceptance gate: every frame
// must be served, every stream's planned repertoire must fit its own
// device's memory ceiling, and the planned fleet p99 must beat the
// uniform assignment.

import (
	"fmt"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/plan"
	"anole/internal/slo"
)

const fleetSpec = "nano:40,tx2:40,laptop:20"

// nanoBudget picks a latency budget between the Nano's full-precision
// and q8 per-frame estimates (the planner's own cost model), so the
// planner provably steps the Nano class down to a quantized variant
// while faster classes keep full precision where they can.
func nanoBudget(b *testing.B, bundle *core.Bundle) time.Duration {
	b.Helper()
	var worst int64
	for _, d := range bundle.Detectors {
		if f := d.FrameFLOPs(64); f > worst {
			worst = f
		}
	}
	fp32 := plan.Variant{DecideFLOPs: bundle.Decision.FLOPs(), DetectFLOPs: worst}
	q8 := fp32
	q8.QuantBits = 8
	mode := device.JetsonNano.Modes[device.JetsonNano.DefaultMode]
	dev := plan.Device{
		GFLOPS:             mode.GFLOPS,
		DispatchOverheadMs: device.JetsonNano.DispatchOverheadMs,
	}
	slow, fast := plan.EstimateLatency(dev, fp32), plan.EstimateLatency(dev, q8)
	if fast >= slow {
		b.Fatalf("quantization does not speed up the nano: fp32 %v, q8 %v", slow, fast)
	}
	return (slow + fast) / 2
}

// byteCeiling is a profile's model-cache capacity in sizer units.
func byteCeiling(p device.Profile) int64 {
	return int64(p.GPUMemoryMB * float64(1<<20) / device.BytesScale)
}

func BenchmarkFleet_MixedPlanVsUniform(b *testing.B) {
	const streams, perStream = 100, 6
	l := lab(b)
	inputs := dealStreams(b, streams, perStream)
	fleet, err := device.BuildFleet(fleetSpec, streams, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	budget := nanoBudget(b, l.Bundle)

	run := func(planned bool) (slo.Status, *core.MultiRuntime) {
		eng := slo.NewEngine(slo.Config{
			Now:        func() time.Duration { return 0 },
			LongWindow: time.Hour,
		})
		cfg := core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 4 * l.Bundle.NumModels(),
			Fleet:      fleet,
			SLO:        eng,
		}
		if planned {
			cfg.Plan = &core.PlanConfig{LatencyBudget: budget}
		}
		mrt, err := core.NewMultiRuntime(l.Bundle, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Pre-warm every stream's resolved repertoire so p99 measures
		// steady-state inference, not first-touch model admission.
		for s := 0; s < streams; s++ {
			for _, det := range mrt.StreamBundle(s).Detectors {
				if _, _, err := mrt.Cache().Request(det.Name, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := mrt.ProcessStreams(inputs, nil); err != nil {
			b.Fatal(err)
		}
		served := 0
		for s := 0; s < streams; s++ {
			served += mrt.StreamStats(s).Frames
		}
		if served != streams*perStream {
			b.Fatalf("served %d of %d offered frames", served, streams*perStream)
		}
		return eng.Status(), mrt
	}

	var uniform, planned slo.Status
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uniformSt, umrt := run(false)
		plannedSt, pmrt := run(true)
		uniform, planned = uniformSt, plannedSt

		if i == 0 {
			// Memory ceilings are a hard constraint: every planned
			// stream's repertoire fits its own device, and every Nano
			// stream stepped down off full precision under the budget.
			for s, a := range fleet {
				var bytes int64
				for _, det := range pmrt.StreamBundle(s).Detectors {
					bytes += det.SizeBytes()
				}
				if ceil := byteCeiling(a.Profile); bytes > ceil {
					b.Fatalf("stream %d (%s): planned repertoire %d bytes over the %d-byte ceiling",
						s, a.Class, bytes, ceil)
				}
				if a.Class == "nano" && pmrt.StreamVariant(s) == "fp32" {
					b.Fatalf("stream %d (nano) kept fp32 under a %v budget", s, budget)
				}
			}
		}
		umrt.Close()
		pmrt.Close()
	}

	if planned.Fleet.LatencyP99Max >= uniform.Fleet.LatencyP99Max {
		b.Fatalf("planned fleet p99 %v not better than one-size-fits-all %v",
			planned.Fleet.LatencyP99Max, uniform.Fleet.LatencyP99Max)
	}
	for _, cs := range planned.Classes {
		b.ReportMetric(1e3*cs.LatencyP99Max.Seconds(), fmt.Sprintf("p99-%s-ms", cs.Class))
	}
	b.ReportMetric(1e3*planned.Fleet.LatencyP99Max.Seconds(), "p99-fleet-planned-ms")
	b.ReportMetric(1e3*uniform.Fleet.LatencyP99Max.Seconds(), "p99-fleet-uniform-ms")
}

// BenchmarkFleet_BatchedMixed drives the same 100-device mix through
// the batched tick pipeline (streams grouped per resolved bundle) and
// reports wall-clock throughput — the heterogeneous companion to
// BenchmarkMultiStream_BatchCurve.
func BenchmarkFleet_BatchedMixed(b *testing.B) {
	const streams, perStream = 100, 6
	l := lab(b)
	inputs := dealStreams(b, streams, perStream)
	fleet, err := device.BuildFleet(fleetSpec, streams, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mrt, err := core.NewMultiRuntime(l.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: l.Bundle.NumModels(),
			Fleet:      fleet,
			Batch:      true,
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
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric(frames/wall, "frames/s-wall")
	}
}
