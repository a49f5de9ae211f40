package pressure

import "sync"

// WatchdogConfig tunes the per-stream stall watchdog. Zero values
// select the documented defaults.
type WatchdogConfig struct {
	// StallTicks is how many consecutive ticks a stream may go without
	// completing a frame (served or downgraded verdict) before it is
	// quarantined. Default: 32.
	StallTicks int
	// QuarantineTicks is how long a quarantined stream's frames are
	// disposed without processing before the stream is probed again.
	// Default: 16.
	QuarantineTicks int
}

func (c *WatchdogConfig) withDefaults() WatchdogConfig {
	out := *c
	if out.StallTicks <= 0 {
		out.StallTicks = 32
	}
	if out.QuarantineTicks <= 0 {
		out.QuarantineTicks = 16
	}
	return out
}

// Watchdog tracks per-stream liveness across ticks and quarantines
// streams that stop completing frames — either because their frames
// keep erroring (e.g. a cold-start stream whose model repository is
// unreachable) or because no frame has produced a terminal served
// verdict for StallTicks consecutive ticks. A quarantined stream's
// frames are disposed immediately with a quarantined verdict, so one
// dead stream never blocks the tick barrier for the rest of the
// fleet; after QuarantineTicks the stream is released and its next
// frame probes the full pipeline again.
//
// Methods are safe for concurrent use. A nil *Watchdog is inert.
type Watchdog struct {
	cfg WatchdogConfig

	mu      sync.Mutex
	stalled []int // consecutive no-progress ticks per stream
	quar    []int // remaining quarantine ticks per stream (0 = live)

	quarantines int // total quarantine entries (for stats)
}

// NewWatchdog builds a Watchdog for n streams.
func NewWatchdog(n int, cfg WatchdogConfig) *Watchdog {
	if n <= 0 {
		return nil
	}
	return &Watchdog{
		cfg:     cfg.withDefaults(),
		stalled: make([]int, n),
		quar:    make([]int, n),
	}
}

// Quarantined reports whether stream i is currently quarantined.
// Nil-safe.
func (w *Watchdog) Quarantined(i int) bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return i >= 0 && i < len(w.quar) && w.quar[i] > 0
}

// Quarantine forces stream i into quarantine immediately (used when a
// frame errors). Returns true if this call transitioned the stream
// from live to quarantined. Nil-safe.
func (w *Watchdog) Quarantine(i int) bool {
	if w == nil || i < 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if i >= len(w.quar) || w.quar[i] > 0 {
		return false
	}
	w.quar[i] = w.cfg.QuarantineTicks
	w.stalled[i] = 0
	w.quarantines++
	return true
}

// ObserveTick folds one tick's per-stream progress into the watchdog.
// progress[i] must be true when stream i completed a frame this tick
// (served or downgraded verdict); streams with no frame this tick
// (inactive, shed by fleet policy, or already quarantined) must be
// reported false via active[i]=false so they neither accrue stall
// credit nor reset it. Returns the streams newly quarantined this
// tick. Nil-safe.
func (w *Watchdog) ObserveTick(active, progress []bool) []int {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var newly []int
	for i := range w.quar {
		if w.quar[i] > 0 {
			w.quar[i]--
			continue
		}
		if i >= len(active) || !active[i] {
			continue
		}
		if i < len(progress) && progress[i] {
			w.stalled[i] = 0
			continue
		}
		w.stalled[i]++
		if w.stalled[i] >= w.cfg.StallTicks {
			w.quar[i] = w.cfg.QuarantineTicks
			w.stalled[i] = 0
			w.quarantines++
			newly = append(newly, i)
		}
	}
	return newly
}

// Quarantines returns the total number of quarantine entries so far.
// Nil-safe.
func (w *Watchdog) Quarantines() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantines
}
