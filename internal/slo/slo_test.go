package slo

import (
	"sync"
	"testing"
	"time"

	"anole/internal/telemetry"
)

// fixedClock returns an engine clock reading from a settable cell.
func fixedClock() (*time.Duration, func() time.Duration) {
	at := new(time.Duration)
	return at, func() time.Duration { return *at }
}

func newTestEngine(t *testing.T, cfg Config) (*Engine, *time.Duration) {
	t.Helper()
	at, now := fixedClock()
	cfg.Now = now
	return NewEngine(cfg), at
}

func TestEmptyWindow(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	st := e.Status()
	if st.Long.Frames != 0 || st.Long.LatencyP99 != 0 {
		t.Fatalf("empty long window: %+v", st.Long)
	}
	if st.Long.ServedFraction != 1 {
		t.Fatalf("empty window served fraction %v, want 1 (no frames failed)", st.Long.ServedFraction)
	}
	if st.LatencyBurn != (Burn{}) || st.ServedBurn != (Burn{}) || st.DegradedBurn != (Burn{}) || st.StalenessBurn != (Burn{}) {
		t.Fatalf("empty window burns non-zero: %+v", st)
	}
	if len(st.Alerts) != 0 {
		t.Fatalf("empty window alerts: %v", st.Alerts)
	}
	if st.Fleet.Streams != 0 || st.Fleet.ServedFractionMin != 1 {
		t.Fatalf("empty fleet: %+v", st.Fleet)
	}
}

func TestSingleSample(t *testing.T) {
	e, at := newTestEngine(t, Config{LatencyTarget: 10 * time.Millisecond})
	*at = time.Second
	e.ObserveFrame(0, 7*time.Millisecond, true, false)
	st := e.Status()
	if st.Long.Frames != 1 || st.Long.LatencyP99 != 7*time.Millisecond {
		t.Fatalf("single sample p99 = %v over %d frames", st.Long.LatencyP99, st.Long.Frames)
	}
	if st.Long.ServedFraction != 1 || st.Long.DegradedFraction != 0 {
		t.Fatalf("single sample fractions: %+v", st.Long)
	}
	if st.LatencyBurn.Long != 0 {
		t.Fatalf("under-target sample burned budget: %v", st.LatencyBurn)
	}
	if st.Fleet.Streams != 1 || st.Fleet.LatencyP99Max != 7*time.Millisecond {
		t.Fatalf("fleet from one stream: %+v", st.Fleet)
	}
}

func TestWindowingAndBurnRates(t *testing.T) {
	e, at := newTestEngine(t, Config{
		LatencyTarget:  10 * time.Millisecond,
		ServedTarget:   0.9, // budget 0.1
		DegradedBudget: 0.25,
		ShortWindow:    time.Second,
		LongWindow:     10 * time.Second,
	})
	// Old frames: inside the long window only. 10 frames, all good.
	*at = 2 * time.Second
	for i := 0; i < 10; i++ {
		e.ObserveFrame(0, 5*time.Millisecond, true, false)
	}
	// Recent frames: inside both windows. 10 frames: 5 shed, 5 served
	// of which 5 degraded and all over the latency target.
	*at = 10 * time.Second
	for i := 0; i < 5; i++ {
		e.ObserveFrame(1, 20*time.Millisecond, false, false)
		e.ObserveFrame(1, 20*time.Millisecond, true, true)
	}

	st := e.Status()
	if st.Short.Frames != 10 || st.Long.Frames != 20 {
		t.Fatalf("window frame counts short=%d long=%d", st.Short.Frames, st.Long.Frames)
	}
	// Short window: 50% shed → error 0.5 / budget 0.1 = burn 5.
	if got := st.ServedBurn.Short; got < 4.99 || got > 5.01 {
		t.Fatalf("short served burn %v, want 5", got)
	}
	// Long window: 25% shed → burn 2.5.
	if got := st.ServedBurn.Long; got < 2.49 || got > 2.51 {
		t.Fatalf("long served burn %v, want 2.5", got)
	}
	// Degraded: short 0.5/0.25 = 2; long 0.25/0.25 = 1.
	if st.DegradedBurn.Short < 1.99 || st.DegradedBurn.Short > 2.01 || st.DegradedBurn.Long < 0.99 || st.DegradedBurn.Long > 1.01 {
		t.Fatalf("degraded burns %+v", st.DegradedBurn)
	}
	// Latency: short window 10/10 over target → 1.0/0.01 = 100.
	if got := st.LatencyBurn.Short; got < 99.9 || got > 100.1 {
		t.Fatalf("short latency burn %v, want 100", got)
	}
	// Served burns past 1.0 on both windows → alerting; degraded long
	// is exactly 1.0 (not >) → not alerting.
	wantAlerts := []string{"latency", "served"}
	if len(st.Alerts) != 2 || st.Alerts[0] != wantAlerts[0] || st.Alerts[1] != wantAlerts[1] {
		t.Fatalf("alerts %v, want %v", st.Alerts, wantAlerts)
	}
}

func TestFleetPercentiles(t *testing.T) {
	e, at := newTestEngine(t, Config{LongWindow: 10 * time.Second})
	*at = time.Second
	// Stream i's frames all take (i+1)ms → per-stream p99 = (i+1)ms.
	for i := 0; i < 10; i++ {
		for f := 0; f < 5; f++ {
			e.ObserveFrame(i, time.Duration(i+1)*time.Millisecond, true, false)
		}
	}
	st := e.Status()
	if st.Fleet.Streams != 10 {
		t.Fatalf("fleet streams %d", st.Fleet.Streams)
	}
	// Linear interpolation between order statistics (stats.Quantile):
	// p50 sits halfway between 5ms and 6ms, p95 at 0.55 of the way from
	// 9ms to 10ms.
	if st.Fleet.LatencyP99P50 != 5500*time.Microsecond {
		t.Fatalf("fleet p50 of stream p99s = %v, want 5.5ms", st.Fleet.LatencyP99P50)
	}
	if st.Fleet.LatencyP99P95 != 9550*time.Microsecond {
		t.Fatalf("fleet p95 of stream p99s = %v, want 9.55ms", st.Fleet.LatencyP99P95)
	}
	if st.Fleet.LatencyP99Max != 10*time.Millisecond {
		t.Fatalf("fleet max %v", st.Fleet.LatencyP99Max)
	}
	if len(st.Streams) != 10 || st.Streams[0].Stream != 0 || st.Streams[9].LatencyP99 != 10*time.Millisecond {
		t.Fatalf("per-stream stats %+v", st.Streams)
	}
}

func TestSwapStaleness(t *testing.T) {
	e, at := newTestEngine(t, Config{StalenessTarget: 10 * time.Second, LongWindow: time.Minute})
	*at = time.Second
	e.ObserveStaleness(0, 5*time.Second)
	e.ObserveStaleness(1, 25*time.Second)
	e.ObserveStaleness(2, -3*time.Second) // skewed negative clamps to 0
	st := e.Status()
	if st.Long.SwapStaleness != 25*time.Second {
		t.Fatalf("worst staleness %v", st.Long.SwapStaleness)
	}
	if got := st.StalenessBurn.Long; got < 2.49 || got > 2.51 {
		t.Fatalf("staleness burn %v, want 2.5", got)
	}
}

// TestClockSkew: samples stamped ahead of the reader's clock (a writer
// racing ahead) must count toward every window, and a clock that
// steps backwards must not panic or produce negative windows.
func TestClockSkew(t *testing.T) {
	e, at := newTestEngine(t, Config{ShortWindow: time.Second, LongWindow: 10 * time.Second})
	*at = 5 * time.Second
	e.ObserveFrame(0, time.Millisecond, true, false)
	// Clock steps backwards before Status: the sample is "from the
	// future" relative to now.
	*at = 2 * time.Second
	st := e.Status()
	if st.Short.Frames != 1 || st.Long.Frames != 1 {
		t.Fatalf("future sample vanished: short=%d long=%d", st.Short.Frames, st.Long.Frames)
	}
	// Far-backwards step: window cut underflows below zero; still sane.
	*at = 0
	if st = e.Status(); st.Long.Frames != 1 {
		t.Fatalf("zero-clock window lost the sample: %+v", st.Long)
	}
}

func TestMetricsExportAndScheme(t *testing.T) {
	reg := telemetry.NewRegistry()
	at, now := fixedClock()
	e := NewEngine(Config{Metrics: reg, Now: now, LatencyTarget: 10 * time.Millisecond})
	*at = time.Second
	e.ObserveFrame(0, 20*time.Millisecond, true, true)
	e.Status()
	m := telemetry.Map(reg)
	if m["anole_slo_frames_total"] != 1 {
		t.Fatalf("frames counter %v", m["anole_slo_frames_total"])
	}
	if m["anole_slo_latency_p99_seconds"] != 0.02 {
		t.Fatalf("latency gauge %v", m["anole_slo_latency_p99_seconds"])
	}
	if m["anole_slo_latency_burn_long"] != 100 {
		t.Fatalf("latency burn gauge %v", m["anole_slo_latency_burn_long"])
	}
	if m["anole_slo_degraded_fraction"] != 1 {
		t.Fatalf("degraded gauge %v", m["anole_slo_degraded_fraction"])
	}
	if err := telemetry.ValidateScheme(reg.Gather()); err != nil {
		t.Fatalf("scheme: %v", err)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.ObserveFrame(0, time.Millisecond, true, false)
	e.ObserveStaleness(0, time.Second)
	if e.Now() != 0 {
		t.Fatal("nil Now")
	}
	if st := e.Status(); st.Long.Frames != 0 {
		t.Fatal("nil engine status")
	}
}

// TestEngineConcurrent hammers the engine from parallel observers and
// readers; run with -race.
func TestEngineConcurrent(t *testing.T) {
	e := NewEngine(Config{MaxSamples: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				e.ObserveFrame(w, time.Duration(i)*time.Microsecond, i%7 != 0, i%5 == 0)
				if i%20 == 0 {
					e.ObserveStaleness(w, time.Duration(i)*time.Millisecond)
					_ = e.Status()
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Status()
	if st.Long.Frames == 0 || st.Fleet.Streams == 0 {
		t.Fatalf("concurrent run folded nothing: %+v", st.Long)
	}
}

func TestRingBound(t *testing.T) {
	e, at := newTestEngine(t, Config{MaxSamples: 8, LongWindow: time.Hour})
	*at = time.Second
	for i := 0; i < 100; i++ {
		e.ObserveFrame(0, time.Millisecond, true, false)
	}
	if st := e.Status(); st.Long.Frames != 8 {
		t.Fatalf("ring did not bound samples: %d", st.Long.Frames)
	}
}

// TestClassStats partitions the fleet percentiles by device class: two
// classes with well-separated per-stream latencies must each report
// their own p99 aggregates, sorted by class, and export them as
// anole_fleet_<class>_* gauges.
func TestClassStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	at, now := fixedClock()
	e := NewEngine(Config{Metrics: reg, Now: now, LongWindow: 10 * time.Second})
	*at = time.Second

	// Streams 0-1 are "nano" at 20ms, streams 2-3 "tx2" at 5ms; stream
	// 4 has no class and must stay out of every class bucket.
	for _, s := range []int32{0, 1} {
		e.SetStreamClass(s, "nano")
	}
	for _, s := range []int32{2, 3} {
		e.SetStreamClass(s, "tx2")
	}
	for s := 0; s < 5; s++ {
		lat := 20 * time.Millisecond
		if s >= 2 {
			lat = 5 * time.Millisecond
		}
		for f := 0; f < 4; f++ {
			e.ObserveFrame(s, lat, true, false)
		}
	}

	st := e.Status()
	if len(st.Classes) != 2 {
		t.Fatalf("classes %+v, want nano and tx2", st.Classes)
	}
	nano, tx2 := st.Classes[0], st.Classes[1]
	if nano.Class != "nano" || tx2.Class != "tx2" {
		t.Fatalf("classes not sorted: %q, %q", nano.Class, tx2.Class)
	}
	if nano.Streams != 2 || tx2.Streams != 2 {
		t.Fatalf("class stream counts %d/%d, want 2/2", nano.Streams, tx2.Streams)
	}
	if nano.LatencyP99Max != 20*time.Millisecond || tx2.LatencyP99Max != 5*time.Millisecond {
		t.Fatalf("class p99 max nano=%v tx2=%v", nano.LatencyP99Max, tx2.LatencyP99Max)
	}
	if nano.ServedFractionMin != 1 || tx2.ServedFractionMin != 1 {
		t.Fatalf("served fraction min nano=%v tx2=%v", nano.ServedFractionMin, tx2.ServedFractionMin)
	}

	m := telemetry.Map(reg)
	if m["anole_fleet_nano_latency_p99_max_seconds"] != 0.02 {
		t.Fatalf("nano gauge %v", m["anole_fleet_nano_latency_p99_max_seconds"])
	}
	if m["anole_fleet_tx2_latency_p99_max_seconds"] != 0.005 {
		t.Fatalf("tx2 gauge %v", m["anole_fleet_tx2_latency_p99_max_seconds"])
	}
	if m["anole_fleet_nano_streams"] != 2 {
		t.Fatalf("nano streams gauge %v", m["anole_fleet_nano_streams"])
	}
	if err := telemetry.ValidateScheme(reg.Gather()); err != nil {
		t.Fatalf("scheme: %v", err)
	}

	// SetStreamClass is nil-safe and ignores empty classes.
	var nilE *Engine
	nilE.SetStreamClass(0, "nano")
	e.SetStreamClass(9, "")
	if st := e.Status(); len(st.Classes) != 2 {
		t.Fatalf("empty class leaked into stats: %+v", st.Classes)
	}
}
