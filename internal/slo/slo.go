// Package slo turns the runtime's raw per-frame outcomes into
// service-level objectives a fleet operator can alert on: windowed
// objectives (frame p99 latency, served fraction, degraded fraction,
// swap staleness) with multi-window burn-rate computation and
// fleet-wide percentile aggregation across streams.
//
// The engine follows the standard error-budget formulation: each
// objective defines a budget (the tolerated bad fraction), and the
// burn rate over a window is the observed bad fraction divided by that
// budget — 1.0 means the budget is being consumed exactly as fast as
// it accrues, higher means faster. Burn is computed over two windows
// (short and long); an objective alerts only when BOTH exceed the
// threshold, the classic multi-window guard against one noisy tick
// paging an operator.
//
// Like the rest of the repository's observability stack the engine is
// clock-injectable (simulated-time runs produce deterministic SLO
// readings), race-clean, and nil-safe: every method on a nil *Engine
// is a no-op.
package slo

import (
	"math"
	"sort"
	"sync"
	"time"

	"anole/internal/stats"
	"anole/internal/telemetry"
)

// Config tunes an Engine. Zero values select the documented defaults.
type Config struct {
	// LatencyTarget is the frame p99 latency objective: at most 1% of
	// frames in a window may exceed it. Default 50ms.
	LatencyTarget time.Duration
	// ServedTarget is the served-fraction objective (frames that
	// produced output — cleanly or downgraded — over frames admitted).
	// Its error budget is 1 - ServedTarget. Default 0.99.
	ServedTarget float64
	// DegradedBudget is the tolerated degraded fraction (frames served
	// by a fallback or downgraded model). Default 0.05.
	DegradedBudget float64
	// StalenessTarget bounds swap staleness: the delay between a
	// generation being published and a stream swapping onto it. The
	// staleness burn is worst-observed/target — a gauge-style SLI.
	// Default 10s.
	StalenessTarget time.Duration
	// ShortWindow and LongWindow are the two burn windows. Defaults 1s
	// and 10s of engine-clock time.
	ShortWindow time.Duration
	LongWindow  time.Duration
	// BurnAlert is the burn-rate threshold both windows must exceed
	// for an objective to alert. Default 1.0.
	BurnAlert float64
	// MaxSamples bounds the retained per-frame samples (default 16384);
	// older samples are overwritten, so a window longer than the ring's
	// reach degrades gracefully to the retained span.
	MaxSamples int
	// Now is the engine clock (default: wall time since NewEngine).
	Now func() time.Duration
	// Metrics optionally publishes anole_slo_* series, refreshed by
	// every Status call.
	Metrics *telemetry.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.LatencyTarget <= 0 {
		out.LatencyTarget = 50 * time.Millisecond
	}
	if out.ServedTarget <= 0 || out.ServedTarget >= 1 {
		out.ServedTarget = 0.99
	}
	if out.DegradedBudget <= 0 || out.DegradedBudget > 1 {
		out.DegradedBudget = 0.05
	}
	if out.StalenessTarget <= 0 {
		out.StalenessTarget = 10 * time.Second
	}
	if out.ShortWindow <= 0 {
		out.ShortWindow = time.Second
	}
	if out.LongWindow <= 0 {
		out.LongWindow = 10 * time.Second
	}
	if out.LongWindow < out.ShortWindow {
		out.ShortWindow, out.LongWindow = out.LongWindow, out.ShortWindow
	}
	if out.BurnAlert <= 0 {
		out.BurnAlert = 1.0
	}
	if out.MaxSamples <= 0 {
		out.MaxSamples = 16384
	}
	if out.Now == nil {
		start := time.Now()
		out.Now = func() time.Duration { return time.Since(start) }
	}
	return out
}

// frameSample is one frame outcome.
type frameSample struct {
	at       time.Duration
	latency  time.Duration
	stream   int32
	served   bool
	degraded bool
}

// staleSample is one swap-staleness observation.
type staleSample struct {
	at     time.Duration
	stale  time.Duration
	stream int32
}

// latencyBudget is the implied error budget of a p99 objective: 1% of
// frames may exceed the target.
const latencyBudget = 0.01

// Engine accumulates frame outcomes and staleness observations in
// bounded rings and computes windowed SLO status on demand. All
// methods are safe for concurrent use; a nil *Engine ignores every
// call.
type Engine struct {
	cfg Config

	mu          sync.Mutex
	frames      []frameSample
	framesTotal int64
	stales      []staleSample
	stalesTotal int64
	// classes maps stream → device class on a heterogeneous fleet (see
	// SetStreamClass); classGauges lazily holds the per-class
	// anole_fleet_* handles, keyed "<class>/<metric>".
	classes     map[int32]string
	classGauges map[string]*telemetry.Gauge

	// Telemetry handles (nil-safe), refreshed by Status.
	gLatencyP99 *telemetry.Gauge
	gServed     *telemetry.Gauge
	gDegraded   *telemetry.Gauge
	gStaleness  *telemetry.Gauge
	gBurns      map[string]*telemetry.Gauge
	gAlerting   *telemetry.Gauge
	cFrames     *telemetry.Counter
}

// NewEngine builds an Engine from cfg (zero-value fields get
// defaults).
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	if reg := e.cfg.Metrics; reg != nil {
		e.gLatencyP99 = reg.Gauge("anole_slo_latency_p99_seconds",
			"Fleet frame p99 latency over the long window.")
		e.gServed = reg.Gauge("anole_slo_served_fraction",
			"Fraction of admitted frames served (cleanly or degraded) over the long window.")
		e.gDegraded = reg.Gauge("anole_slo_degraded_fraction",
			"Fraction of admitted frames degraded over the long window.")
		e.gStaleness = reg.Gauge("anole_slo_swap_staleness_seconds",
			"Worst publish-to-swap staleness observed in the long window.")
		e.gBurns = map[string]*telemetry.Gauge{
			"latency_short":   reg.Gauge("anole_slo_latency_burn_short", "Latency-objective burn rate, short window."),
			"latency_long":    reg.Gauge("anole_slo_latency_burn_long", "Latency-objective burn rate, long window."),
			"served_short":    reg.Gauge("anole_slo_served_burn_short", "Served-fraction burn rate, short window."),
			"served_long":     reg.Gauge("anole_slo_served_burn_long", "Served-fraction burn rate, long window."),
			"degraded_short":  reg.Gauge("anole_slo_degraded_burn_short", "Degraded-fraction burn rate, short window."),
			"degraded_long":   reg.Gauge("anole_slo_degraded_burn_long", "Degraded-fraction burn rate, long window."),
			"staleness_short": reg.Gauge("anole_slo_staleness_burn_short", "Swap-staleness burn rate, short window."),
			"staleness_long":  reg.Gauge("anole_slo_staleness_burn_long", "Swap-staleness burn rate, long window."),
		}
		e.gAlerting = reg.Gauge("anole_slo_alerting_objectives",
			"Objectives whose burn exceeds the alert threshold on both windows.")
		e.cFrames = reg.Counter("anole_slo_frames_total",
			"Frame outcomes folded into the SLO engine.")
	}
	return e
}

// SetStreamClass tags a stream with its device class ("nano", "tx2",
// ...), partitioning fleet percentile aggregation: Status additionally
// reports FleetStats per class and publishes them as
// anole_fleet_<class>_* gauges — a mixed fleet's slow devices get their
// own p99 instead of dominating (or hiding inside) the fleet-wide one.
// The class must already be metric-name-safe ([a-z0-9_]+, as
// device.Fleet classes are). Nil-safe.
func (e *Engine) SetStreamClass(stream int32, class string) {
	if e == nil || class == "" {
		return
	}
	e.mu.Lock()
	if e.classes == nil {
		e.classes = make(map[int32]string)
	}
	e.classes[stream] = class
	e.mu.Unlock()
}

// Now returns the engine clock reading (0 for nil) — exported so
// callers observing staleness can timestamp publish moments on the
// same clock the engine windows against.
func (e *Engine) Now() time.Duration {
	if e == nil {
		return 0
	}
	return e.cfg.Now()
}

// ObserveFrame folds one frame outcome in: its pipeline latency,
// whether it was served (produced output, cleanly or downgraded), and
// whether it was degraded. Nil-safe.
func (e *Engine) ObserveFrame(stream int, latency time.Duration, served, degraded bool) {
	if e == nil {
		return
	}
	s := frameSample{latency: latency, stream: int32(stream), served: served, degraded: degraded}
	e.mu.Lock()
	s.at = e.cfg.Now()
	if len(e.frames) < e.cfg.MaxSamples {
		e.frames = append(e.frames, s)
	} else {
		e.frames[e.framesTotal%int64(e.cfg.MaxSamples)] = s
	}
	e.framesTotal++
	e.mu.Unlock()
	e.cFrames.Inc()
}

// ObserveStaleness folds one swap-staleness observation in: the delay
// between a generation's publish and this stream swapping onto it.
// Nil-safe.
func (e *Engine) ObserveStaleness(stream int, staleness time.Duration) {
	if e == nil {
		return
	}
	if staleness < 0 {
		staleness = 0
	}
	s := staleSample{stale: staleness, stream: int32(stream)}
	e.mu.Lock()
	s.at = e.cfg.Now()
	if len(e.stales) < staleCap {
		e.stales = append(e.stales, s)
	} else {
		e.stales[e.stalesTotal%int64(staleCap)] = s
	}
	e.stalesTotal++
	e.mu.Unlock()
}

// staleCap bounds the staleness ring; swaps are rare next to frames.
const staleCap = 1024

// Burn is one objective's burn rate over both windows.
type Burn struct {
	Short float64 `json:"short"`
	Long  float64 `json:"long"`
}

// alerting reports whether both windows burn past the threshold.
func (b Burn) alerting(threshold float64) bool {
	return b.Short > threshold && b.Long > threshold
}

// WindowStats is one window's objective readings.
type WindowStats struct {
	Window           time.Duration `json:"windowNs"`
	Frames           int           `json:"frames"`
	LatencyP99       time.Duration `json:"latencyP99Ns"`
	ServedFraction   float64       `json:"servedFraction"`
	DegradedFraction float64       `json:"degradedFraction"`
	SwapStaleness    time.Duration `json:"swapStalenessNs"`
}

// StreamStats is one stream's long-window aggregation, the unit of
// fleet-wide percentile computation.
type StreamStats struct {
	Stream         int           `json:"stream"`
	Frames         int           `json:"frames"`
	LatencyP99     time.Duration `json:"latencyP99Ns"`
	ServedFraction float64       `json:"servedFraction"`
}

// FleetStats aggregates per-stream long-window p99 latencies into
// fleet percentiles — the "fleet-wide percentile SLOs" reading: the
// median stream's p99, the p95 stream's p99, the worst stream's p99,
// and the worst served fraction.
type FleetStats struct {
	Streams           int           `json:"streams"`
	LatencyP99P50     time.Duration `json:"latencyP99P50Ns"`
	LatencyP99P95     time.Duration `json:"latencyP99P95Ns"`
	LatencyP99Max     time.Duration `json:"latencyP99MaxNs"`
	ServedFractionMin float64       `json:"servedFractionMin"`
}

// Status is one evaluation of every objective.
type Status struct {
	Short WindowStats `json:"short"`
	Long  WindowStats `json:"long"`

	LatencyBurn   Burn `json:"latencyBurn"`
	ServedBurn    Burn `json:"servedBurn"`
	DegradedBurn  Burn `json:"degradedBurn"`
	StalenessBurn Burn `json:"stalenessBurn"`

	// Alerts names the objectives burning past the threshold on both
	// windows, sorted.
	Alerts []string `json:"alerts,omitempty"`

	Fleet   FleetStats    `json:"fleet"`
	Streams []StreamStats `json:"streams,omitempty"`
	// Classes holds per-device-class fleet aggregation (sorted by
	// class), present only when SetStreamClass tagged streams.
	Classes []ClassStats `json:"classes,omitempty"`
}

// ClassStats is FleetStats restricted to one device class.
type ClassStats struct {
	Class string `json:"class"`
	FleetStats
}

// windowAcc accumulates one window's tallies during the single pass.
type windowAcc struct {
	frames    int
	served    int
	degraded  int
	overLat   int
	latencies []float64 // nanoseconds, for stats.Quantile
	worstSt   time.Duration
	stales    int
}

// Status evaluates every objective over both windows as of the engine
// clock now, refreshes the anole_slo_* gauges, and returns the
// readings. Samples timestamped in the future (clock skew between
// writers) count toward every window rather than vanishing. Nil
// engines return a zero Status.
func (e *Engine) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	now := e.cfg.Now()
	frames := append([]frameSample(nil), e.frames...)
	stales := append([]staleSample(nil), e.stales...)
	var classes map[int32]string
	if len(e.classes) > 0 {
		classes = make(map[int32]string, len(e.classes))
		for s, c := range e.classes {
			classes[s] = c
		}
	}
	e.mu.Unlock()

	var st Status
	var shortAcc, longAcc windowAcc
	st.Short, shortAcc = e.window(frames, stales, now, e.cfg.ShortWindow, nil)
	perStream := make(map[int32]*windowAcc)
	st.Long, longAcc = e.window(frames, stales, now, e.cfg.LongWindow, perStream)

	st.LatencyBurn = Burn{
		Short: burn(fracOf(shortAcc.overLat, shortAcc.frames), latencyBudget),
		Long:  burn(fracOf(longAcc.overLat, longAcc.frames), latencyBudget),
	}
	st.ServedBurn = Burn{
		Short: burn(1-st.Short.ServedFraction, 1-e.cfg.ServedTarget),
		Long:  burn(1-st.Long.ServedFraction, 1-e.cfg.ServedTarget),
	}
	st.DegradedBurn = Burn{
		Short: burn(st.Short.DegradedFraction, e.cfg.DegradedBudget),
		Long:  burn(st.Long.DegradedFraction, e.cfg.DegradedBudget),
	}
	st.StalenessBurn = Burn{
		Short: ratio(st.Short.SwapStaleness, e.cfg.StalenessTarget),
		Long:  ratio(st.Long.SwapStaleness, e.cfg.StalenessTarget),
	}

	for name, b := range map[string]Burn{
		"latency": st.LatencyBurn, "served": st.ServedBurn,
		"degraded": st.DegradedBurn, "staleness": st.StalenessBurn,
	} {
		if b.alerting(e.cfg.BurnAlert) {
			st.Alerts = append(st.Alerts, name)
		}
	}
	sort.Strings(st.Alerts)

	st.Streams, st.Fleet = fleetStats(perStream)
	st.Classes = e.classStats(perStream, classes)

	// Refresh the exported gauges from the long window.
	e.gLatencyP99.Set(st.Long.LatencyP99.Seconds())
	e.gServed.Set(st.Long.ServedFraction)
	e.gDegraded.Set(st.Long.DegradedFraction)
	e.gStaleness.Set(st.Long.SwapStaleness.Seconds())
	if e.gBurns != nil {
		e.gBurns["latency_short"].Set(st.LatencyBurn.Short)
		e.gBurns["latency_long"].Set(st.LatencyBurn.Long)
		e.gBurns["served_short"].Set(st.ServedBurn.Short)
		e.gBurns["served_long"].Set(st.ServedBurn.Long)
		e.gBurns["degraded_short"].Set(st.DegradedBurn.Short)
		e.gBurns["degraded_long"].Set(st.DegradedBurn.Long)
		e.gBurns["staleness_short"].Set(st.StalenessBurn.Short)
		e.gBurns["staleness_long"].Set(st.StalenessBurn.Long)
	}
	e.gAlerting.Set(float64(len(st.Alerts)))
	return st
}

// window computes one window's stats; when perStream is non-nil the
// pass also buckets samples by stream for fleet aggregation.
func (e *Engine) window(frames []frameSample, stales []staleSample, now, w time.Duration, perStream map[int32]*windowAcc) (WindowStats, windowAcc) {
	cut := now - w
	acc := windowAcc{}
	for _, s := range frames {
		// ">= cut" keeps skewed-future samples too: a writer slightly
		// ahead of the reader's clock must not make frames vanish from
		// every window.
		if s.at < cut {
			continue
		}
		acc.frames++
		if s.served {
			acc.served++
		}
		if s.degraded {
			acc.degraded++
		}
		if s.latency > e.cfg.LatencyTarget {
			acc.overLat++
		}
		acc.latencies = append(acc.latencies, float64(s.latency))
		if perStream != nil {
			sa := perStream[s.stream]
			if sa == nil {
				sa = &windowAcc{}
				perStream[s.stream] = sa
			}
			sa.frames++
			if s.served {
				sa.served++
			}
			sa.latencies = append(sa.latencies, float64(s.latency))
		}
	}
	for _, s := range stales {
		if s.at < cut {
			continue
		}
		acc.stales++
		if s.stale > acc.worstSt {
			acc.worstSt = s.stale
		}
	}
	out := WindowStats{
		Window:           w,
		Frames:           acc.frames,
		LatencyP99:       time.Duration(math.Round(stats.Quantile(acc.latencies, 0.99))),
		ServedFraction:   servedFrac(acc.served, acc.frames),
		DegradedFraction: fracOf(acc.degraded, acc.frames),
		SwapStaleness:    acc.worstSt,
	}
	return out, acc
}

// classStats partitions the per-stream long-window buckets by device
// class and folds each partition through fleetStats, refreshing the
// per-class anole_fleet_* gauges. Streams with no class tag are left
// out of every partition (they still count in the fleet-wide stats).
func (e *Engine) classStats(perStream map[int32]*windowAcc, classes map[int32]string) []ClassStats {
	if len(classes) == 0 || len(perStream) == 0 {
		return nil
	}
	byClass := make(map[string]map[int32]*windowAcc)
	for id, sa := range perStream {
		class, ok := classes[id]
		if !ok {
			continue
		}
		part := byClass[class]
		if part == nil {
			part = make(map[int32]*windowAcc)
			byClass[class] = part
		}
		part[id] = sa
	}
	out := make([]ClassStats, 0, len(byClass))
	for class, part := range byClass {
		_, fs := fleetStats(part)
		out = append(out, ClassStats{Class: class, FleetStats: fs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	for _, cs := range out {
		e.classGauge(cs.Class, "latency_p99_p50_seconds", "Median stream p99 latency in this device class, long window.").Set(cs.LatencyP99P50.Seconds())
		e.classGauge(cs.Class, "latency_p99_p95_seconds", "p95 stream p99 latency in this device class, long window.").Set(cs.LatencyP99P95.Seconds())
		e.classGauge(cs.Class, "latency_p99_max_seconds", "Worst stream p99 latency in this device class, long window.").Set(cs.LatencyP99Max.Seconds())
		e.classGauge(cs.Class, "served_fraction_min", "Worst stream served fraction in this device class, long window.").Set(cs.ServedFractionMin)
		e.classGauge(cs.Class, "streams", "Streams of this device class reporting in the long window.").Set(float64(cs.Streams))
	}
	return out
}

// classGauge returns the lazily-registered anole_fleet_<class>_<metric>
// gauge, or nil (a nil-safe no-op handle) without a registry.
func (e *Engine) classGauge(class, metric, help string) *telemetry.Gauge {
	if e.cfg.Metrics == nil {
		return nil
	}
	key := class + "/" + metric
	e.mu.Lock()
	g, ok := e.classGauges[key]
	if !ok {
		if e.classGauges == nil {
			e.classGauges = make(map[string]*telemetry.Gauge)
		}
		g = e.cfg.Metrics.Gauge("anole_fleet_"+class+"_"+metric, help)
		e.classGauges[key] = g
	}
	e.mu.Unlock()
	return g
}

// fleetStats folds the per-stream long-window buckets into sorted
// per-stream stats and fleet percentiles.
func fleetStats(perStream map[int32]*windowAcc) ([]StreamStats, FleetStats) {
	if len(perStream) == 0 {
		return nil, FleetStats{ServedFractionMin: 1}
	}
	streams := make([]StreamStats, 0, len(perStream))
	for id, sa := range perStream {
		streams = append(streams, StreamStats{
			Stream:         int(id),
			Frames:         sa.frames,
			LatencyP99:     time.Duration(math.Round(stats.Quantile(sa.latencies, 0.99))),
			ServedFraction: servedFrac(sa.served, sa.frames),
		})
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].Stream < streams[j].Stream })

	p99s := make([]float64, 0, len(streams))
	fleet := FleetStats{Streams: len(streams), ServedFractionMin: 1}
	for _, s := range streams {
		p99s = append(p99s, float64(s.LatencyP99))
		if s.ServedFraction < fleet.ServedFractionMin {
			fleet.ServedFractionMin = s.ServedFraction
		}
		fleet.LatencyP99Max = max(fleet.LatencyP99Max, s.LatencyP99)
	}
	fleet.LatencyP99P50 = time.Duration(math.Round(stats.Quantile(p99s, 0.50)))
	fleet.LatencyP99P95 = time.Duration(math.Round(stats.Quantile(p99s, 0.95)))
	return streams, fleet
}

// burn converts an observed bad fraction and its budget into a burn
// rate. Negative observed fractions (floating-point fuzz) clamp to 0.
func burn(observed, budget float64) float64 {
	if budget <= 0 {
		return 0
	}
	if observed <= 0 {
		return 0
	}
	return observed / budget
}

// ratio is the gauge-style burn of a worst-observed value against its
// target.
func ratio(observed, target time.Duration) float64 {
	if target <= 0 || observed <= 0 {
		return 0
	}
	return float64(observed) / float64(target)
}

// fracOf returns n/total, 0 for an empty window.
func fracOf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// servedFrac returns served/total; an empty window reads as fully
// served (no frames were failed).
func servedFrac(served, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(served) / float64(total)
}
