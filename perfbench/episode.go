package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"anole/internal/core"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
)

// heapSampleEvery is how often (in completed timed ticks) the observer
// samples live heap bytes for peak_heap_mb.
const heapSampleEvery = 8

// episodeObs is the StreamObserver of one episode. It counts every
// frame's observation per stream and stamps the wall and process CPU
// time at which the last frame of each timed tick is observed: the gap
// between two stamps is one tick as a caller of ProcessStreams sees it.
type episodeObs struct {
	streams, warm int
	seen          []int // per stream: frames observed so far
	counts        []atomic.Int32
	done          []int64 // per timed tick: wall ns after start
	doneCPU       []int64 // per timed tick: CPU ns after start
	start         time.Time
	startCPU      time.Duration
	heap          []metrics.Sample
	peak          uint64
	// bundles, when non-nil, records the bundle each frame ran on.
	bundles [][]*core.Bundle
	mrt     *core.MultiRuntime
}

func (o *episodeObs) observe(stream int, _ *synth.Frame, _ core.FrameResult) error {
	t := o.seen[stream]
	if t == o.warm+len(o.done) {
		return fmt.Errorf("stream %d observed more frames than it was offered", stream)
	}
	o.seen[stream]++
	if o.bundles != nil {
		o.bundles[stream][t] = o.mrt.StreamBundle(stream)
	}
	if t < o.warm {
		return nil
	}
	k := t - o.warm
	// Calls for one tick may come from several workers; only the last
	// one stamps it, and the runtime's tick barrier orders the stamps.
	if int(o.counts[k].Add(1)) == o.streams {
		o.done[k] = int64(time.Since(o.start))
		o.doneCPU[k] = int64(cpuNow() - o.startCPU)
		if k%heapSampleEvery == 0 {
			o.samplePeak()
		}
	}
	return nil
}

func (o *episodeObs) samplePeak() {
	metrics.Read(o.heap)
	if v := o.heap[0].Value.Uint64(); v > o.peak {
		o.peak = v
	}
}

// interval is one timed call, in ns after the episode's timed start.
type interval struct{ start, end int64 }

// episodeOut is one episode's outcome.
type episodeOut struct {
	inputs  [][]*synth.Frame     // the frames offered, per stream
	results [][]core.FrameResult // streams × (warm+timed) ticks
	seen    []int                // observer calls per stream
	bundles [][]*core.Bundle     // per frame, when recorded
	// Timed part: wall and CPU time, tick completion stamps on both
	// clocks, ProcessStreams calls and checkpoints (with their encoded
	// sizes) on the wall clock.
	startAt   time.Time
	wall, cpu time.Duration
	done      []int64
	doneCPU   []int64
	calls     []interval
	ckpts     []interval
	ckptBytes []int
	// Host memory over the timed part.
	peak    uint64
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

// runEpisode runs one episode on inst: the warm-up ticks untimed, then
// the timed ticks, in chunks of checkpointEvery ticks with a checkpoint
// captured and encoded after each chunk when the workload asks for it.
func (wl *workload) runEpisode(inst *instance, inputs [][]*synth.Frame, recordBundles bool) (*episodeOut, error) {
	total := wl.warmTicks + wl.ticks
	o := &episodeObs{
		streams: wl.streams,
		warm:    wl.warmTicks,
		seen:    make([]int, wl.streams),
		counts:  make([]atomic.Int32, wl.ticks),
		done:    make([]int64, wl.ticks),
		doneCPU: make([]int64, wl.ticks),
		heap:    []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		mrt:     inst.mrt,
	}
	if recordBundles {
		o.bundles = make([][]*core.Bundle, wl.streams)
		for s := range o.bundles {
			o.bundles[s] = make([]*core.Bundle, total)
		}
	}
	slice := func(a, b int) [][]*synth.Frame {
		out := make([][]*synth.Frame, len(inputs))
		for s := range inputs {
			out[s] = inputs[s][a:b]
		}
		return out
	}
	warmRes, err := inst.mrt.ProcessStreams(slice(0, wl.warmTicks), o.observe)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	step := wl.ticks
	if wl.checkpointEvery > 0 {
		step = wl.checkpointEvery
	}
	var chunks [][][]*synth.Frame
	for a := wl.warmTicks; a < total; a += step {
		chunks = append(chunks, slice(a, min(a+step, total)))
	}
	chunkRes := make([][][]core.FrameResult, len(chunks))
	out := &episodeOut{}
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o.start, o.startCPU = time.Now(), cpuNow()
	for c, chunk := range chunks {
		start := int64(time.Since(o.start))
		res, err := inst.mrt.ProcessStreams(chunk, o.observe)
		if err != nil {
			return nil, err
		}
		chunkRes[c] = res
		out.calls = append(out.calls, interval{start, int64(time.Since(o.start))})
		if wl.checkpointEvery > 0 {
			start := int64(time.Since(o.start))
			buf.Reset()
			if err := pressure.WriteCheckpoint(&buf, inst.mrt.CaptureCheckpoint()); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			out.ckpts = append(out.ckpts, interval{start, int64(time.Since(o.start))})
			out.ckptBytes = append(out.ckptBytes, buf.Len())
		}
	}
	out.inputs = inputs
	out.startAt = o.start
	out.wall = time.Since(o.start)
	out.cpu = cpuNow() - o.startCPU
	o.samplePeak()
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.gcs = ms1.NumGC - ms0.NumGC
	out.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	out.peak = o.peak
	out.done = o.done
	out.doneCPU = o.doneCPU
	out.seen = o.seen
	out.bundles = o.bundles
	out.results = make([][]core.FrameResult, wl.streams)
	for s := range out.results {
		out.results[s] = append(make([]core.FrameResult, 0, total), warmRes[s]...)
		for _, res := range chunkRes {
			out.results[s] = append(out.results[s], res[s]...)
		}
	}
	return out, nil
}

// phaseOut accumulates one phase's episodes.
type phaseOut struct {
	episodes    int
	offered     int // frames offered, warm-up ticks included
	timedFrames int
	wall, cpu   time.Duration
	tickMs      []float64 // every timed tick, reference-core ms, in run order
	tickCPUMs   []float64 // every timed tick, CPU ms, in run order
	epFps       []float64 // per episode: timed frames per reference-core second
	speeds      []float64 // the core's speed readings, in order (probe.go)
	// The episodes' timed parts, as normalize needs them: CPU time, the
	// CPU time at which each tick completed, and the index in speeds of
	// the last reading before the episode.
	epCPU   []time.Duration
	epTicks [][]int64
	epRead  []int
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	peak    uint64

	served, downgraded, shed int
	failed, diverged         int
	tp, fp, fn               int
	simLatMs                 []float64 // served frames
	energyJ                  float64

	cache                  cacheCounts
	coldMisses             int
	fetchCalls, fetchBytes int64
	pfIssued, pfCompleted  int64
	batchFrames, batches   float64
	replans, transitions   float64
	variants               int
	ckptNs                 []int64
	ckptBytes              []int
	scrapeNs               []int64

	problems []string
}

type cacheCounts struct{ hits, misses, evictions int64 }

func (ph *phaseOut) fail(format string, args ...any) {
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// runPhase runs episodes on fresh runtimes, cycling through the distinct
// inputs, until budget has elapsed (at least one full cycle), checks each
// against its reference, and folds it into a phaseOut. after, when
// non-nil, runs once per episode with its outcome while its runtime is
// still open (the traced phase's replay).
func (wl *workload) runPhase(p *prepared, refs []*episodeOut, o buildOpts, budget time.Duration, after func(*instance, *episodeOut, *episodeOut) error) (*phaseOut, error) {
	ph := &phaseOut{}
	began := time.Now()
	ph.speeds = append(ph.speeds, speedNow())
	lastRead := time.Now()
	for ph.episodes < len(refs) || time.Since(began) < budget {
		e := ph.episodes % len(refs)
		inst, err := wl.build(p, e, o)
		if err != nil {
			return nil, err
		}
		ph.epRead = append(ph.epRead, len(ph.speeds)-1)
		ep, err := wl.runEpisode(inst, p.inputs[e], false)
		if err == nil && after != nil {
			err = after(inst, ep, refs[e])
		}
		sched := inst.mrt.Prefetcher()
		inst.mrt.Close()
		if err != nil {
			return nil, err
		}
		if time.Since(lastRead) >= probeEvery {
			ph.speeds = append(ph.speeds, speedNow())
			lastRead = time.Now()
		}
		ph.fold(wl, inst, ep, refs[e])
		if sched != nil {
			st := sched.Stats()
			ph.pfIssued += st.Issued
			ph.pfCompleted += st.Completed
		}
	}
	ph.speeds = append(ph.speeds, speedNow())
	ph.normalize(wl)
	return ph, nil
}

// normalize states each timed episode in reference-core time: its CPU
// time, and each of its ticks', over the mean of the speeds read right
// before and right after it. The unscaled tick CPU times are kept for
// tick_ms_p99: the slowest ticks (an episode's first, a checkpoint's, a
// cold load's) did not speed up or slow down with the probe. Over five
// runs per workload on a 2-vCPU VM, while the core's speed moved 1.5x,
// their unscaled p99 spread (IQR over median) 0.06-0.14, and rescaled
// 0.23-0.31.
func (ph *phaseOut) normalize(wl *workload) {
	for i, cpu := range ph.epCPU {
		r := ph.epRead[i]
		speed := (ph.speeds[r] + ph.speeds[r+1]) / 2
		ph.epFps = append(ph.epFps, float64(wl.streams*wl.ticks)/cpu.Seconds()*speed)
		var prev int64
		for _, d := range ph.epTicks[i] {
			ms := float64(d-prev) / 1e6
			ph.tickCPUMs = append(ph.tickCPUMs, ms)
			ph.tickMs = append(ph.tickMs, ms/speed)
			prev = d
		}
	}
}

// fold checks one episode's outputs and accumulates its measurements.
func (ph *phaseOut) fold(wl *workload, inst *instance, ep *episodeOut, ref *episodeOut) {
	ph.episodes++
	ph.wall += ep.wall
	ph.cpu += ep.cpu
	ph.timedFrames += wl.streams * wl.ticks
	ph.epCPU = append(ph.epCPU, ep.cpu)
	ph.epTicks = append(ph.epTicks, ep.doneCPU)
	ph.mallocs += ep.mallocs
	ph.gcs += ep.gcs
	ph.pauseNs += ep.pauseNs
	ph.peak = max(ph.peak, ep.peak)
	for _, c := range ep.ckpts {
		ph.ckptNs = append(ph.ckptNs, c.end-c.start)
	}
	ph.ckptBytes = append(ph.ckptBytes, ep.ckptBytes...)

	// Every offered frame must be observed once and carry exactly one
	// terminal verdict; served + shed + quarantined must equal offered.
	var served, downgraded, shed, quarantined int
	total := wl.warmTicks + wl.ticks
	offered := wl.streams * total
	ph.offered += offered
	for s := 0; s < wl.streams; s++ {
		if ep.seen[s] != total || len(ep.results[s]) != total {
			ph.fail("stream %d: %d observations and %d results for %d offered frames", s, ep.seen[s], len(ep.results[s]), total)
		}
		for t, res := range ep.results[s] {
			switch res.Verdict {
			case core.VerdictServed:
				served++
			case core.VerdictDowngraded:
				downgraded++
			case core.VerdictShed:
				shed++
				continue
			case core.VerdictQuarantined:
				quarantined++
				continue
			default:
				ph.fail("stream %d tick %d: no terminal verdict (%v)", s, t, res.Verdict)
				continue
			}
			ph.tp += res.Metrics.TP
			ph.fp += res.Metrics.FP
			ph.fn += res.Metrics.FN
			ph.simLatMs = append(ph.simLatMs, float64(res.Latency)/1e6)
		}
		for t := 0; t < min(total, len(ep.results[s])); t++ {
			if ep.results[s][t] != ref.results[s][t] {
				ph.diverged++
			}
		}
	}
	if verdicts := served + downgraded + shed + quarantined; verdicts != offered {
		ph.failed += max(offered-verdicts, verdicts-offered)
		ph.fail("%d terminal verdicts for %d offered frames", verdicts, offered)
	}
	agg := inst.mrt.Stats()
	if agg.Frames != served+downgraded || agg.ShedFrames != shed || agg.QuarantinedFrames != quarantined || agg.DowngradedServed != downgraded {
		ph.fail("runtime counts %d frames, %d downgraded, %d shed, %d quarantined; results show %d, %d, %d, %d",
			agg.Frames, agg.DowngradedServed, agg.ShedFrames, agg.QuarantinedFrames, served+downgraded, downgraded, shed, quarantined)
	}
	ph.served += served
	ph.downgraded += downgraded
	ph.shed += shed

	for i := 0; i < wl.streams; i++ {
		if sim := inst.mrt.StreamDevice(i); sim != nil {
			ph.energyJ += sim.EnergyJ()
		}
	}
	ph.cache.hits += agg.Cache.Hits
	ph.cache.misses += agg.Cache.Misses
	ph.cache.evictions += agg.Cache.Evictions
	ph.coldMisses += agg.ColdMisses
	if inst.fetch != nil {
		ph.fetchCalls += inst.fetch.calls.Load()
		ph.fetchBytes += inst.fetch.bytes.Load()
	}
	variants := make(map[string]bool)
	for i := 0; i < wl.streams; i++ {
		variants[inst.mrt.StreamVariant(i)] = true
	}
	ph.variants = max(ph.variants, len(variants))
	if inst.reg != nil {
		m := telemetry.Map(inst.reg)
		ph.batchFrames += m["anole_core_batched_frames_total"]
		ph.batches += m["anole_core_batch_dispatches_total"]
		ph.replans += m["anole_plan_replans_total"]
		ph.transitions += m["anole_pressure_transitions_total"]
		t0 := time.Now()
		if err := telemetry.WriteText(io.Discard, inst.reg); err != nil {
			ph.fail("scrape: %v", err)
		}
		ph.scrapeNs = append(ph.scrapeNs, int64(time.Since(t0)))
	}
}
