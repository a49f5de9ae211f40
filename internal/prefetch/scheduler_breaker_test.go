package prefetch

import (
	"context"
	"sync"
	"testing"
	"time"

	"anole/internal/breaker"
	"anole/internal/modelcache"
)

// breakerClock is a hand-advanced clock for breaker cooldowns in tests.
type breakerClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *breakerClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *breakerClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestSchedulerBreakerPausesPlans(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	clk := &breakerClock{}
	br := breaker.New(breaker.Config{FailureThreshold: 1, Cooldown: time.Second, Now: clk.Now})
	s, err := NewScheduler(Config{Fetcher: errFetcher{}, TopK: 1, Breaker: br}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The first plan's fetch fails and opens the breaker.
	s.Plan(0)
	waitFor(t, func() bool { return s.Stats().Failed == 1 }, "failed prefetch counted")
	waitFor(t, func() bool { return br.State() == breaker.Open }, "breaker open")

	// While open, plans are skipped without issuing fetches.
	s.Plan(0)
	s.Plan(0)
	st := s.Stats()
	if st.SkippedBreaker != 2 {
		t.Fatalf("skipped %d plans, want 2", st.SkippedBreaker)
	}
	if st.Issued != 1 {
		t.Fatalf("issued %d fetches, want only the pre-open one", st.Issued)
	}
	if st.BreakerOpens != 1 {
		t.Fatalf("breaker opens %d, want 1", st.BreakerOpens)
	}
}

func TestSchedulerBreakerHalfOpenProbeResumesPrefetch(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	clk := &breakerClock{}
	br := breaker.New(breaker.Config{FailureThreshold: 1, Cooldown: time.Second, Now: clk.Now})
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1, Breaker: br}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	br.Failure() // open directly: threshold 1
	if br.State() != breaker.Open {
		t.Fatalf("state %v after failure, want open", br.State())
	}
	s.Plan(0)
	if st := s.Stats(); st.SkippedBreaker != 1 || st.Issued != 0 {
		t.Fatalf("open breaker: skipped %d issued %d, want 1/0", st.SkippedBreaker, st.Issued)
	}

	// After the cooldown the breaker goes half-open and the next plan is
	// admitted as the probe; its success closes the breaker for good.
	clk.Advance(2 * time.Second)
	if br.State() != breaker.HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", br.State())
	}
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	name := waitStarted(t, ff)
	ff.release(name)
	waitFor(t, func() bool { return s.Stats().Completed == 1 }, "probe prefetch completed")
	if br.State() != breaker.Closed {
		t.Fatalf("state %v after probe success, want closed", br.State())
	}
	s.Plan(1)
	if st := s.Stats(); st.SkippedBreaker != 1 {
		t.Fatalf("closed breaker still skipping: %d", st.SkippedBreaker)
	}
}

func TestSchedulerBreakerDemandOutcomesDriveState(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	clk := &breakerClock{}
	br := breaker.New(breaker.Config{FailureThreshold: 2, Cooldown: time.Second, Now: clk.Now})
	s, err := NewScheduler(Config{Fetcher: errFetcher{}, TopK: 0, Breaker: br}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Demand fetches are never blocked by the breaker (the frame needs a
	// model), but their failures feed it.
	for i := 0; i < 2; i++ {
		if _, err := s.DemandFetch(context.Background(), 0); err == nil {
			t.Fatal("failing demand fetch succeeded")
		}
	}
	if br.State() != breaker.Open {
		t.Fatalf("state %v after %d demand failures, want open", br.State(), 2)
	}
	// Still not blocked while open.
	if _, err := s.DemandFetch(context.Background(), 0); err == nil {
		t.Fatal("failing demand fetch succeeded")
	}
	if st := s.Stats(); st.DemandFailures != 3 {
		t.Fatalf("demand failures %d, want 3", st.DemandFailures)
	}
}
