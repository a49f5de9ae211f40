// Command perfbench is the repository's end-to-end and per-layer
// benchmark of the multi-stream runtime, core.MultiRuntime.ProcessStreams.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet_batched|churn_unbatched|surge_pressure \
//	    --seed N --seconds S --trace 0|1
//
// A run sets up (world, corpus, offline profiling of the paper's 19-model
// bank, runtime construction and cache warm-up) several times and reports
// the median set-up time; generates the workload's frames from --seed;
// runs the Workers:1 reference on them; then drives ProcessStreams as a
// closed loop of episodes for --seconds, each on a fresh runtime, and
// checks every frame: one terminal verdict each, and a FrameResult equal
// to the reference's. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it splits --seconds into an untraced phase, a phase with
// telemetry detached and a traced phase whose ticks are replayed layer by
// layer under spans, prints the per-layer metrics and writes the spans as
// JSON lines. The last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Host time is process CPU time, and the whole run is held to one P
// (GOMAXPROCS 1): each host-time figure is then the time on one core of
// its own, without the time the hypervisor steals from the VM or other
// processes hold the core. On a shared host that time swings from run
// to run and would drown what the program itself costs. frames_per_s
// and tick_ms_p50 are further rescaled by the core's speed, read with a
// probe around each episode (probe.go), and setup_s by the run's median
// speed (setupSeconds); tick_ms_p99 is not (see normalize).
//
// Quantiles are nearest-rank: the p-quantile of n sorted samples is the
// ceil(p*n)-th.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"anole/internal/core"
	"anole/internal/pressure"
	"anole/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricJSONVal `json:"metrics"`
}

type metricJSONVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: fleet_batched, churn_unbatched or surge_pressure")
		seed     = fs.Uint64("seed", 1, "workload seed: the frames and the fleet are generated from it")
		seconds  = fs.Int("seconds", 10, "seconds the measured loop runs")
		traceOn  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spansDir = fs.String("spans-dir", filepath.Join(".bench_build", "perfbench", "spans"), "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	budget := time.Duration(*seconds) * time.Second
	runtime.GOMAXPROCS(1)
	if err := initProbe(); err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	fmt.Fprintf(w, "env: seed=%d GOMAXPROCS=%d nproc=%d cpu=%q go=%s\n",
		*seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Fprintf(w, "workload: %s, %d streams, %d+%d ticks per episode, dispatch %s, reference %s at Workers:1\n",
		wl.name, wl.streams, wl.warmTicks, wl.ticks, wl.mode, wl.refMode())

	p, err := setUp(wl, *seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(w, "setup: median %.3f CPU s of %d (corpus %.3f s, profile %.3f s), core speed median %.4g, bundle %d models sha256 %s\n",
		median(p.setupS), len(p.setupS), median(p.corpusS), median(p.profileS), median(p.speeds), p.bundle.NumModels(), p.digest[:16])
	if wl.deadline != nil {
		fmt.Fprintf(w, "surge deadline: %v (2x nominal mean simulated frame latency)\n", p.deadline)
	}

	refs := make([]*episodeOut, wl.episodes)
	refCheck := &phaseOut{}
	digest := fnv.New64a()
	for e := range refs {
		inst, err := wl.build(p, e, buildOpts{reference: true, telemetry: true})
		if err != nil {
			return err
		}
		refs[e], err = wl.runEpisode(inst, p.inputs[e], true)
		inst.mrt.Close()
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		refCheck.fold(wl, inst, refs[e], refs[e])
		writeResults(digest, refs[e].results)
	}
	fmt.Fprintf(w, "reference: %d episodes, %d frames, results digest %016x\n", len(refs), refCheck.offered, digest.Sum64())

	problems := prefixed("reference", refCheck.problems)
	var ms []metric
	var phases []namedPhase
	if *traceOn == 0 {
		ph, err := wl.runPhase(p, refs, buildOpts{telemetry: true}, budget, nil)
		if err != nil {
			return err
		}
		phases = []namedPhase{{"measured", ph}}
		ms = endToEnd(p, ph)
		printEndToEnd(w, ph, ms)
	} else {
		var replayProblems []string
		ms, phases, replayProblems, err = traced(w, wl, p, refs, budget, *spansDir)
		if err != nil {
			return err
		}
		problems = append(problems, replayProblems...)
	}
	var res result
	for _, np := range phases {
		problems = append(problems, phaseProblems(wl, np.name, np.ph)...)
		res.Attempted += np.ph.offered
		res.Failed += np.ph.failed
	}
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	res.Correct = len(problems) == 0
	res.Metrics = make(map[string]metricJSONVal, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = metricJSONVal{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

type namedPhase struct {
	name string
	ph   *phaseOut
}

// phaseProblems lists a phase's failed checks, and its divergence from
// the reference unless the workload runs the worker pool: the batched and
// pressure-serial modes are documented to reproduce the serial results,
// while the pool races the shared cache, so its divergence is recorded,
// not failed.
func phaseProblems(wl *workload, phase string, ph *phaseOut) []string {
	out := prefixed(phase, ph.problems)
	if wl.mode != modePool && ph.diverged > 0 {
		out = append(out, fmt.Sprintf("%s: %d of %d frames differ from the Workers:1 reference in %s mode", phase, ph.diverged, ph.offered, wl.mode))
	}
	return out
}

func prefixed(phase string, ps []string) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = phase + ": " + p
	}
	return out
}

// endToEnd computes the metrics a user of the runtime sees.
func endToEnd(p *prepared, ph *phaseOut) []metric {
	served := ph.served + ph.downgraded
	return []metric{
		{"setup_s", p.setupSeconds(p.setupS, ph), "s"},
		{"frames_per_s", fps(ph), "1/s"},
		{"tick_ms_p50", quantile(ph.tickMs, 0.50), "ms"},
		{"tick_ms_p99", quantile(ph.tickCPUMs, 0.99), "ms"},
		{"allocs_per_frame", float64(ph.mallocs) / float64(ph.timedFrames), "count"},
		{"peak_heap_mb", float64(ph.peak) / (1 << 20), "MB"},
		{"f1", stats.ComputePRF1(ph.tp, ph.fp, ph.fn).F1, "ratio"},
		{"sim_energy_mj_per_frame", 1e3 * ph.energyJ / float64(max(served, 1)), "mJ"},
		{"served_pct", pct(served, ph.offered), "%"},
		{"matched_pct", pct(ph.offered-ph.diverged, ph.offered), "%"},
	}
}

func printEndToEnd(w io.Writer, ph *phaseOut, ms []metric) {
	fmt.Fprintf(w, "measured: %d episodes, %d timed frames, %d ticks, %d served frames\n",
		ph.episodes, ph.timedFrames, len(ph.tickMs), ph.served+ph.downgraded)
	fmt.Fprintf(w, "  timed loop: %.3f wall s, %.3f CPU s (%.6g and %.6g frames/s); core speed median %.4g (%.4g-%.4g) over %d readings\n",
		ph.wall.Seconds(), ph.cpu.Seconds(), float64(ph.timedFrames)/ph.wall.Seconds(), float64(ph.timedFrames)/ph.cpu.Seconds(),
		median(ph.speeds), quantile(ph.speeds, 0), quantile(ph.speeds, 1), len(ph.speeds))
	fmt.Fprintf(w, "  unscaled CPU time: tick p50 %.6g ms, p99 %.6g ms\n", quantile(ph.tickCPUMs, 0.5), quantile(ph.tickCPUMs, 0.99))
	for _, m := range ms {
		fmt.Fprintf(w, "  %-24s %14.6g %s", m.name, m.value, m.unit)
		if strings.HasPrefix(m.name, "tick_ms_") {
			fmt.Fprintf(w, "  (of %d ticks)", len(ph.tickMs))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-24s %14.6g ms  (simulated device clock, of %d served frames)\n",
		"sim_latency_ms_p99", quantile(ph.simLatMs, 0.99), len(ph.simLatMs))
	fmt.Fprintf(w, "  %-24s %14.6g %%  (%d of %d frames differ from the Workers:1 reference)\n",
		"diverged_pct", pct(ph.diverged, ph.offered), ph.diverged, ph.offered)
	fmt.Fprintf(w, "  %-24s %14.6g %%  (%d frames errored or have no terminal verdict)\n",
		"failed_pct", pct(ph.failed, ph.offered), ph.failed)
	printShares(w, ph)
}

// printShares reports the share of work with the properties later
// optimisations key on.
func printShares(w io.Writer, ph *phaseOut) {
	fmt.Fprintf(w, "work shares: cache hit %.2f%%, mean batch %.2f frames, cold miss %.2f%%, shed %.2f%%, downgraded %.2f%%\n",
		hitPct(ph.cache), batchMean(ph), pct(ph.coldMisses, ph.served+ph.downgraded), pct(ph.shed, ph.offered), pct(ph.downgraded, ph.offered))
}

// traced runs the per-layer measurement: an untraced phase with the
// workload's telemetry, one with telemetry detached, and a traced phase
// whose every timed tick is replayed layer by layer under spans. Each
// gets a third of the budget. It returns the per-layer metrics, the
// three phases, and the replay's failed checks.
func traced(w io.Writer, wl *workload, p *prepared, refs []*episodeOut, budget time.Duration, spansDir string) ([]metric, []namedPhase, []string, error) {
	phA, err := wl.runPhase(p, refs, buildOpts{telemetry: true}, budget/3, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	phB, err := wl.runPhase(p, refs, buildOpts{}, budget/3, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := &tracer{wl: wl, rec: newSpanRecorder(), slots: wl.cacheSlots(p.bundle)}
	var ckptNs []int64
	var ckptBytes []int
	phC, err := wl.runPhase(p, refs, buildOpts{telemetry: true}, budget/3, func(inst *instance, ep, ref *episodeOut) error {
		if tr.rp == nil {
			tr.rp = newReplayer(wl, inst.mrt.Workers())
		}
		if wl.checkpointEvery == 0 {
			// No checkpoint runs in this workload's loop: time one
			// on the episode's final state instead.
			start := tr.rec.now()
			var sb strings.Builder
			if err := pressure.WriteCheckpoint(&sb, inst.mrt.CaptureCheckpoint()); err != nil {
				return err
			}
			ckptNs = append(ckptNs, tr.rec.now()-start)
			ckptBytes = append(ckptBytes, sb.Len())
		}
		return tr.episode(ep, ref)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tr.rp.release()
	var problems []string
	if tr.rp.mismatches > 0 {
		problems = append(problems, fmt.Sprintf("traced: replay differs from the reference on %d of %d frames", tr.rp.mismatches, tr.rp.frames))
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s.jsonl", wl.name))
	if err := tr.rec.write(path); err != nil {
		return nil, nil, nil, fmt.Errorf("write spans: %w", err)
	}
	if wl.checkpointEvery > 0 {
		ckptNs, ckptBytes = phC.ckptNs, phC.ckptBytes
	}

	rp, rec := tr.rp, tr.rec
	frames := float64(max(rp.frames, 1))
	perFrameUs := func(name string) float64 { return float64(rec.total[name]) / 1e3 / frames }
	kernelNs := float64(rec.total[spanEmbed] + rec.total[spanScores] + rec.total[spanDetect])
	served := phC.served + phC.downgraded
	// GC is counted over the timed loops of all three phases.
	gcs := phA.gcs + phB.gcs + phC.gcs
	pauseNs := phA.pauseNs + phB.pauseNs + phC.pauseNs
	timedFrames := phA.timedFrames + phB.timedFrames + phC.timedFrames
	ms := []metric{
		{"setup.corpus_s", p.setupSeconds(p.corpusS, phA, phB, phC), "s"},
		{"setup.profile_s", p.setupSeconds(p.profileS, phA, phB, phC), "s"},
		{"synth.feature_us", perFrameUs(spanFeature), "us"},
		{"scene.embed_us", perFrameUs(spanEmbed), "us"},
		{"decision.scores_us", perFrameUs(spanScores), "us"},
		{"detect.us", perFrameUs(spanDetect), "us"},
		{"tensor.mflop_per_frame", rp.flops / frames / 1e6, "MFLOP"},
		{"tensor.gflops", rp.flops / math.Max(kernelNs, 1), "GFLOP/s"},
		{"modelcache.request_ns", float64(rec.total[spanCache]) / float64(max(rp.requests, 1)), "ns"},
		{"modelcache.hit_pct", hitPct(phC.cache), "%"},
		{"modelcache.evictions_per_kframe", 1e3 * float64(phC.cache.evictions) / float64(phC.offered), "count/kframe"},
		{"prefetch.fetch_calls_per_kframe", 1e3 * float64(phC.fetchCalls) / float64(phC.offered), "count/kframe"},
		{"prefetch.bytes_per_frame", float64(phC.fetchBytes) / float64(phC.offered), "B"},
		{"prefetch.completed_per_issued", ratio(phC.pfCompleted, phC.pfIssued), "ratio"},
		{"core.cold_miss_pct", pct(phC.coldMisses, served), "%"},
		{"core.self_us_per_frame", (float64(tr.tickNs) - float64(tr.replayNs())) / 1e3 / float64(phC.timedFrames), "us"},
		{"core.batch_size_mean", batchMean(phC), "frames"},
		{"core.groups_per_tick", float64(rp.detGroups) / float64(max(rp.ticks, 1)), "count"},
		{"plan.replans", phC.replans / float64(phC.episodes), "count"},
		{"plan.variants", float64(phC.variants), "count"},
		{"pressure.shed_pct", pct(phC.shed, phC.offered), "%"},
		{"pressure.downgraded_pct", pct(phC.downgraded, phC.offered), "%"},
		{"pressure.transitions", phC.transitions / float64(phC.episodes), "count"},
		{"pressure.checkpoint_encode_us", medianInt(ckptNs) / 1e3, "us"},
		{"pressure.checkpoint_bytes", medianInt(ckptBytes), "B"},
		{"telemetry.scrape_us", medianInt(phC.scrapeNs) / 1e3, "us"},
		{"telemetry.overhead_pct", 100 * (fps(phB) - fps(phA)) / fps(phB), "%"},
		{"gc.cycles_per_kframe", 1e3 * float64(gcs) / float64(timedFrames), "count/kframe"},
		{"gc.pause_ms", float64(pauseNs) / 1e6 / float64(max(gcs, 1)), "ms"},
		{"trace.overhead_pct", 100 * (fps(phA) - fps(phC)) / fps(phA), "%"},
	}
	fmt.Fprintf(w, "traced: %d+%d+%d episodes (untraced, telemetry off, traced); %d ticks and %d frames replayed; %d spans (%d dropped) in %s\n",
		phA.episodes, phB.episodes, phC.episodes, rp.ticks, rp.frames, len(rec.spans), rec.dropped, path)
	fmt.Fprintf(w, "  frames_per_s untraced %.6g, telemetry off %.6g, traced %.6g\n", fps(phA), fps(phB), fps(phC))
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	printShares(w, phC)
	phases := []namedPhase{{"untraced", phA}, {"telemetry-off", phB}, {"traced", phC}}
	return ms, phases, problems, nil
}

// fps is a phase's timed frames per reference-core second: the median
// over its episodes, so a burst of contention on the core moves it less
// than it moves the mean.
func fps(ph *phaseOut) float64 { return median(ph.epFps) }

func hitPct(c cacheCounts) float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return 100 * float64(c.hits) / float64(c.hits+c.misses)
}

// batchMean is the mean frames per batched dispatch; unbatched modes
// dispatch every frame alone.
func batchMean(ph *phaseOut) float64 {
	if ph.batches == 0 {
		return 1
	}
	return ph.batchFrames / ph.batches
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt[T int | int64](xs []T) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

// writeResults feeds every FrameResult to a digest in stream-then-tick
// order.
func writeResults(h io.Writer, results [][]core.FrameResult) {
	for s := range results {
		for t, res := range results[s] {
			fmt.Fprintf(h, "%d/%d:%+v\n", s, t, res)
		}
	}
}

// cpuModel reads the CPU model name the kernel reports ("unknown" where
// it does not).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
