package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/flight"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/slo"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/xrand"
)

// Dispatch modes of core.MultiRuntime.ProcessStreams, named as the
// runtime's tick switch selects them.
const (
	modeBatched  = "batched"         // Batch on: processTickBatched
	modePool     = "worker-pool"     // Batch off, Workers > 1: tickLoop
	modePressure = "pressure-serial" // Deadline set: processTickPressure
	modeSerial   = "serial"          // Workers 1, no pressure: processTickSerial
)

// workload is one benchmark input set and the runtime configuration it
// drives. Every episode builds a fresh runtime, runs warmTicks untimed
// ticks (scratch pools fill, the first cold loads land), then ticks timed
// ticks; the Workers:1 reference runs the same calls on the same frames.
// A run cycles through episodes distinct inputs, each a fresh clip per
// stream.
type workload struct {
	name     string
	mode     string // dispatch mode of the measured runtime
	streams  int
	episodes int
	// warmTicks and ticks are the untimed and timed ticks per episode.
	warmTicks, ticks int
	// checkpointEvery > 0 runs CaptureCheckpoint + WriteCheckpoint every
	// that many timed ticks, inside the timed region.
	checkpointEvery int
	// cacheSlots returns the shared cache capacity for bundle b.
	cacheSlots func(b *core.Bundle) int
	// configure fills the workload-specific runtime fields; telemetry
	// attaches the registry and the SLO/flight observers it names.
	configure func(p *prepared, cfg *core.MultiRuntimeConfig, reg *telemetry.Registry, fetch *countingFetcher)
	// fleetSpec, when set, deals the streams a seeded device fleet.
	fleetSpec string
	// prefetch and warmCache select the link-backed prefetch scheduler
	// and pre-admitting every model the streams run before traffic.
	prefetch  bool
	warmCache bool
	// deadline, when set, is measured in set-up (the surge deadline).
	deadline func(p *prepared) (time.Duration, error)
}

const (
	linkStability  = 0.7 // anole-run's -link-stability default
	surgeBase      = 2   // streams the surge deadline is budgeted for
	nominalTicks   = 40  // ticks of the 2-stream baseline measuring it
	defaultCacheSz = 5   // anole-run's -cache default
	// poolWorkers is the pool anole-run's default (GOMAXPROCS) gives on
	// a 2-CPU host. The benchmark runs on one P, so it is set here.
	poolWorkers = 2
)

var workloads = []*workload{
	{
		name:       "fleet_batched",
		mode:       modeBatched,
		streams:    256,
		episodes:   1,
		warmTicks:  4,
		ticks:      60,
		cacheSlots: func(b *core.Bundle) int { return b.NumModels() },
		fleetSpec:  "nano:40,tx2:40,laptop:20",
		warmCache:  true,
		configure: func(p *prepared, cfg *core.MultiRuntimeConfig, reg *telemetry.Registry, _ *countingFetcher) {
			cfg.Fleet = p.fleet
			cfg.Plan = &core.PlanConfig{}
			cfg.Batch = true
			if reg != nil {
				cfg.Metrics = reg
				cfg.SLO = slo.NewEngine(slo.Config{Metrics: reg})
			}
		},
	},
	{
		name:       "churn_unbatched",
		mode:       modePool,
		streams:    8,
		episodes:   24,
		warmTicks:  4,
		ticks:      125,
		cacheSlots: func(*core.Bundle) int { return defaultCacheSz },
		prefetch:   true,
		configure: func(p *prepared, cfg *core.MultiRuntimeConfig, reg *telemetry.Registry, fetch *countingFetcher) {
			cfg.Fleet = device.UniformFleet(device.JetsonTX2NX, cfg.Streams)
			cfg.Workers = poolWorkers
			cfg.Prefetch = &prefetch.Config{Fetcher: fetch, Metrics: reg}
			cfg.Metrics = reg
		},
	},
	{
		name:            "surge_pressure",
		mode:            modePressure,
		streams:         8,
		episodes:        32,
		warmTicks:       4,
		ticks:           100,
		checkpointEvery: 50,
		cacheSlots:      func(b *core.Bundle) int { return b.NumModels() },
		deadline:        surgeDeadline,
		configure: func(p *prepared, cfg *core.MultiRuntimeConfig, reg *telemetry.Registry, _ *countingFetcher) {
			cfg.Fleet = device.UniformFleet(device.JetsonTX2NX, cfg.Streams)
			cfg.Thermal = surgeThermal()
			cfg.Deadline = p.deadline
			if reg != nil {
				cfg.Metrics = reg
				cfg.SLO = slo.NewEngine(slo.Config{Metrics: reg})
				cfg.Flight = flight.NewRecorder(flight.Config{Gather: reg, Metrics: reg})
			}
		},
	},
}

// refMode is the dispatch mode of the workload's Workers:1 reference:
// the pressure machinery keeps its serial dispatch, anything else runs
// serial once batching is off and one worker remains.
func (wl *workload) refMode() string {
	if wl.mode == modePressure {
		return modePressure
	}
	return modeSerial
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// surgeThermal is a chassis far past its envelope: heat saturates within
// a frame and compute derates to 10% of nominal.
func surgeThermal() *device.ThermalModel {
	return &device.ThermalModel{SustainedW: 0.5, TimeConstant: time.Millisecond, MaxDerate: 0.9}
}

// surgeDeadline is twice the nominal mean simulated frame latency of a
// 2-stream TX2 baseline without thermal load or deadline, measured on the
// first ticks of the workload's own first two streams.
func surgeDeadline(p *prepared) (time.Duration, error) {
	mrt, err := core.NewMultiRuntime(p.bundle, core.MultiRuntimeConfig{
		Streams:    surgeBase,
		CacheSlots: p.bundle.NumModels(),
		Fleet:      device.UniformFleet(device.JetsonTX2NX, surgeBase),
	})
	if err != nil {
		return 0, err
	}
	defer mrt.Close()
	base := make([][]*synth.Frame, surgeBase)
	for s := range base {
		base[s] = p.inputs[0][s][:nominalTicks]
	}
	if _, err := mrt.ProcessStreams(base, nil); err != nil {
		return 0, err
	}
	st := mrt.Stats()
	if st.Frames == 0 {
		return 0, fmt.Errorf("surge baseline served no frames")
	}
	return 2 * (st.TotalLatency / time.Duration(st.Frames)), nil
}

// buildOpts selects the variant of a workload's runtime one phase runs.
type buildOpts struct {
	// reference builds the Workers:1 unbatched reference runtime.
	reference bool
	// telemetry attaches the registry and the SLO/flight observers the
	// workload names; off detaches them all (telemetry.overhead_pct).
	telemetry bool
}

// instance is one episode's runtime and the handles the benchmark reads
// after it.
type instance struct {
	mrt   *core.MultiRuntime
	reg   *telemetry.Registry // nil with telemetry detached
	fetch *countingFetcher    // nil without prefetch
}

// build constructs (and warms, when the workload says so) one runtime for
// episode e.
func (wl *workload) build(p *prepared, e int, o buildOpts) (*instance, error) {
	inst := &instance{}
	if o.telemetry {
		inst.reg = telemetry.NewRegistry()
	}
	if wl.prefetch {
		// The link is seeded from the workload seed and the episode, so
		// an episode and its reference see the same link states.
		link, err := netsim.NewLink(netsim.DefaultConfig(linkStability), xrand.NewLabeled(p.seed, "perfbench-link").Split(uint64(e)))
		if err != nil {
			return nil, err
		}
		lf, err := prefetch.NewLinkFetcher(link, core.PrefetchModels(p.bundle), prefetch.DefaultFrameInterval)
		if err != nil {
			return nil, err
		}
		inst.fetch = &countingFetcher{LinkFetcher: lf}
	}
	cfg := core.MultiRuntimeConfig{Streams: wl.streams, CacheSlots: wl.cacheSlots(p.bundle)}
	wl.configure(p, &cfg, inst.reg, inst.fetch)
	if o.reference {
		cfg.Workers = 1
		cfg.Batch = false
	}
	mrt, err := core.NewMultiRuntime(p.bundle, cfg)
	if err != nil {
		return nil, err
	}
	inst.mrt = mrt
	if wl.warmCache {
		// Pre-admit every model any stream runs, in stream then
		// repertoire order, so both runtimes start from one residency.
		seen := make(map[string]bool)
		for i := 0; i < wl.streams; i++ {
			for _, d := range mrt.StreamBundle(i).Detectors {
				if !seen[d.Name] {
					seen[d.Name] = true
					mrt.Cache().Warm(d.Name, 1, 1)
				}
			}
		}
	}
	return inst, nil
}

// countingFetcher wraps the simulated link's fetcher to count fetch calls
// and the bytes they delivered. It keeps the LinkFetcher's Ticker and
// BackgroundStarter surfaces, so the scheduler drives it exactly as it
// drives the bare link (and never calls the goroutine path, FetchModel).
type countingFetcher struct {
	*prefetch.LinkFetcher
	calls atomic.Int64
	bytes atomic.Int64
}

func (c *countingFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	c.calls.Add(1)
	n, d, err := c.LinkFetcher.FetchModelNow(ctx, name)
	if err == nil {
		c.bytes.Add(n)
	}
	return n, d, err
}

func (c *countingFetcher) StartBackground(name string, done func(int64, error)) (func() bool, error) {
	c.calls.Add(1)
	return c.LinkFetcher.StartBackground(name, func(n int64, err error) {
		if err == nil {
			c.bytes.Add(n)
		}
		done(n, err)
	})
}
