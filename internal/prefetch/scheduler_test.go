package prefetch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anole/internal/modelcache"
)

// fakeFetcher is a controllable Fetcher: background fetches block until
// released (or their context is cancelled), demand fetches return
// immediately with a fixed stall.
type fakeFetcher struct {
	mu       sync.Mutex
	gates    map[string]chan struct{}
	started  chan string
	demanded []string
	stall    time.Duration
}

func newFakeFetcher() *fakeFetcher {
	return &fakeFetcher{
		gates:   make(map[string]chan struct{}),
		started: make(chan string, 64),
		stall:   50 * time.Millisecond,
	}
}

func (f *fakeFetcher) gate(name string) chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gates[name]
	if !ok {
		g = make(chan struct{})
		f.gates[name] = g
	}
	return g
}

// release lets a blocked background fetch of name complete.
func (f *fakeFetcher) release(name string) {
	close(f.gate(name))
}

func (f *fakeFetcher) FetchModel(ctx context.Context, name string) (int64, time.Duration, error) {
	f.started <- name
	select {
	case <-f.gate(name):
		return 1000, 10 * time.Millisecond, nil
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
}

func (f *fakeFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	f.mu.Lock()
	f.demanded = append(f.demanded, name)
	f.mu.Unlock()
	return 1000, f.stall, nil
}

func testModels(n int) []Model {
	out := make([]Model, n)
	for i := range out {
		out[i] = Model{Name: fmt.Sprintf("M_%d", i), Bytes: 1 << 20}
	}
	return out
}

// waitStarted blocks until the fetcher reports a background fetch of
// some model, returning its name.
func waitStarted(t *testing.T, f *fakeFetcher) string {
	t.Helper()
	select {
	case name := <-f.started:
		return name
	case <-time.After(5 * time.Second):
		t.Fatal("no background fetch started")
		return ""
	}
}

func TestSchedulerPlanPrefetchesPrediction(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Teach 0→1 strongly, then plan from 0.
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	if got := waitStarted(t, ff); got != "M_1" {
		t.Fatalf("prefetched %q, want M_1", got)
	}
	ff.release("M_1")
	waitFor(t, func() bool { return store.Contains("M_1") }, "M_1 admitted")
	st := s.Stats()
	if st.Issued != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if cs := store.Stats(); cs.Prefetches != 1 {
		t.Fatalf("store prefetches %d", cs.Prefetches)
	}
}

func TestSchedulerCancelsStaleTarget(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(0, 1) // from 0, predict 1
		s.Observe(1, 2) // from 1, predict 2
	}
	s.Plan(0)
	if got := waitStarted(t, ff); got != "M_1" {
		t.Fatalf("first prefetch %q", got)
	}
	// The run moved on: from model 1 the prediction is 2, so the M_1
	// flight is stale and must be cancelled.
	s.Plan(1)
	if got := waitStarted(t, ff); got != "M_2" {
		t.Fatalf("second prefetch %q", got)
	}
	waitFor(t, func() bool { return s.Stats().Cancelled == 1 }, "stale flight cancelled")
	ff.release("M_2")
	waitFor(t, func() bool { return store.Contains("M_2") }, "M_2 admitted")
	if store.Contains("M_1") {
		t.Fatal("cancelled prefetch still admitted M_1")
	}
}

func TestSchedulerDemandPreemptsPrefetch(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	if got := waitStarted(t, ff); got != "M_1" {
		t.Fatalf("prefetch %q", got)
	}
	// Miss path: the in-flight prefetch must be cancelled, and the
	// demand stall returned.
	d, err := s.DemandFetch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != ff.stall {
		t.Fatalf("stall %v, want %v", d, ff.stall)
	}
	waitFor(t, func() bool { return s.Stats().Cancelled == 1 }, "prefetch preempted")
	st := s.Stats()
	if st.DemandFetches != 1 || st.DemandStall != ff.stall {
		t.Fatalf("demand stats %+v", st)
	}
	// DemandFetch must not admit: that's the caller's job.
	if store.Contains("M_2") {
		t.Fatal("demand fetch admitted into store")
	}
}

func TestSchedulerBudgetSkips(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	models := testModels(3) // 1 MiB each
	s, err := NewScheduler(Config{
		Fetcher:     ff,
		TopK:        2,
		BudgetBytes: 1 << 20, // room for exactly one model
		MaxInFlight: 2,
	}, store, models)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Plan(0) // uniform predictions: candidates 1 and 2, budget admits one
	first := waitStarted(t, ff)
	if first != "M_1" {
		t.Fatalf("budgeted prefetch %q", first)
	}
	waitFor(t, func() bool { return s.Stats().SkippedBudget == 1 }, "budget skip counted")
	if got := s.Stats(); got.Issued != 1 {
		t.Fatalf("issued %d with one-model budget", got.Issued)
	}
	ff.release("M_1")
}

func TestSchedulerDemandOnlyMode(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: -1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	select {
	case name := <-ff.started:
		t.Fatalf("demand-only scheduler prefetched %q", name)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := s.DemandFetch(context.Background(), 1); err != nil {
		t.Fatalf("demand fetch in demand-only mode: %v", err)
	}
}

func TestSchedulerSkipsResidentModels(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	if _, _, err := store.Request("M_1", 1); err != nil {
		t.Fatal(err)
	}
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	select {
	case name := <-ff.started:
		t.Fatalf("prefetched resident model %q", name)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	s.Plan(0)
	waitStarted(t, ff)
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain in-flight prefetch")
	}
	if _, err := s.DemandFetch(context.Background(), 0); err == nil {
		t.Fatal("DemandFetch after Close succeeded")
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	ff := newFakeFetcher()
	if _, err := NewScheduler(Config{}, store, testModels(2)); err == nil {
		t.Fatal("nil fetcher accepted")
	}
	if _, err := NewScheduler(Config{Fetcher: ff}, nil, testModels(2)); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewScheduler(Config{Fetcher: ff}, store, nil); err == nil {
		t.Fatal("empty repertoire accepted")
	}
	s, err := NewScheduler(Config{Fetcher: ff}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.DemandFetch(context.Background(), 99); err == nil {
		t.Fatal("out-of-range demand fetch accepted")
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// errFetcher always fails; the scheduler must count failures, not hang.
type errFetcher struct{}

func (errFetcher) FetchModel(ctx context.Context, name string) (int64, time.Duration, error) {
	return 0, 0, errors.New("boom")
}
func (errFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	return 0, 0, errors.New("boom")
}

func TestSchedulerCountsFailures(t *testing.T) {
	store := modelcache.MustNew(4, modelcache.LFU)
	s, err := NewScheduler(Config{Fetcher: errFetcher{}, TopK: 1}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Plan(0)
	waitFor(t, func() bool { return s.Stats().Failed == 1 }, "failed prefetch counted")
	if _, err := s.DemandFetch(context.Background(), 1); err == nil {
		t.Fatal("failing demand fetch succeeded")
	}
	if st := s.Stats(); st.DemandFailures != 1 {
		t.Fatalf("demand failures %d", st.DemandFailures)
	}
}
