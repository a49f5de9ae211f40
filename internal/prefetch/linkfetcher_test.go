package prefetch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anole/internal/modelcache"
	"anole/internal/netsim"
	"anole/internal/xrand"
)

// alwaysGood is a link config that never leaves the Good state.
func alwaysGood() netsim.Config {
	cfg := netsim.DefaultConfig(1)
	return cfg
}

// goodThenDownForever: Good → Down on the first step, then Down sticks.
func goodThenDown() netsim.Config {
	cfg := netsim.DefaultConfig(0)
	cfg.Transition = [3][3]float64{
		{0, 0, 1},
		{0, 0, 1},
		{0, 0, 1},
	}
	return cfg
}

// downOneFrame: Good → Down on the first step, back to Good after one
// Down frame.
func downOneFrame() netsim.Config {
	cfg := netsim.DefaultConfig(0)
	cfg.Transition = [3][3]float64{
		{0, 0, 1},
		{1, 0, 0},
		{1, 0, 0},
	}
	return cfg
}

func newLF(t *testing.T, cfg netsim.Config, models []Model) *LinkFetcher {
	t.Helper()
	link, err := netsim.NewLink(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewLinkFetcher(link, models, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return lf
}

func TestLinkFetcherBackgroundCompletesOnTicks(t *testing.T) {
	// 3 MB at 6 MB/s = 500 ms + 40 ms RTT → completes on the 6th tick.
	models := []Model{{Name: "M_0", Bytes: 3 << 20}}
	lf := newLF(t, alwaysGood(), models)

	done := make(chan error, 1)
	var gotD time.Duration
	go func() {
		_, d, err := lf.FetchModel(context.Background(), "M_0")
		gotD = d
		done <- err
	}()
	// Wait until the transfer is registered before ticking.
	waitFor(t, func() bool {
		lf.mu.Lock()
		defer lf.mu.Unlock()
		return len(lf.pending) == 1
	}, "transfer registered")
	for i := 0; i < 5; i++ {
		lf.Tick()
		select {
		case <-done:
			t.Fatalf("transfer completed after %d ticks", i+1)
		default:
		}
	}
	lf.Tick() // 6 × 100 ms = 600 ms ≥ 540 ms
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gotD < 500*time.Millisecond || gotD > 600*time.Millisecond {
		t.Fatalf("transfer duration %v", gotD)
	}
	if n, b := lf.Transferred(); n != 1 || b != 3<<20 {
		t.Fatalf("transferred %d/%d", n, b)
	}
}

func TestLinkFetcherOutageStallsTransfers(t *testing.T) {
	// Transfer needs ~540 ms ≈ 6 ticks; every Down tick pushes the
	// deadline out by one interval, so with the goodThenDown chain the
	// transfer never completes (Down after tick 1) and cancellation is
	// the only exit.
	models := []Model{{Name: "M_0", Bytes: 3 << 20}}
	lf := newLF(t, goodThenDown(), models)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := lf.FetchModel(ctx, "M_0")
		done <- err
	}()
	waitFor(t, func() bool {
		lf.mu.Lock()
		defer lf.mu.Unlock()
		return len(lf.pending) == 1
	}, "transfer registered")
	for i := 0; i < 20; i++ {
		lf.Tick()
	}
	select {
	case err := <-done:
		t.Fatalf("transfer completed across an outage: %v", err)
	default:
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel returned %v", err)
	}
	lf.mu.Lock()
	rem := len(lf.pending)
	lf.mu.Unlock()
	if rem != 0 {
		t.Fatalf("%d pending transfers after cancel", rem)
	}
}

func TestLinkFetcherDownFailsBackgroundFetch(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, goodThenDown(), models)
	lf.Tick() // Good → Down
	if lf.State() != netsim.Down {
		t.Fatalf("state %v after forced transition", lf.State())
	}
	if _, _, err := lf.FetchModel(context.Background(), "M_0"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("down-link fetch returned %v", err)
	}
}

// goodTransfer is the expected Good-state transfer time of a payload
// under DefaultConfig: RTT + (request + payload) / bandwidth.
func goodTransfer(size int64) time.Duration {
	seconds := float64(256+size) / (6 * (1 << 20))
	return 40*time.Millisecond + time.Duration(seconds*float64(time.Second))
}

func TestLinkFetcherDemandStallIncludesOutage(t *testing.T) {
	// After one tick the link is Down for exactly one frame, so the
	// demand stall must be one interval (100 ms) + the Good transfer.
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, downOneFrame(), models)
	lf.Tick() // now Down
	if lf.State() != netsim.Down {
		t.Fatalf("state %v", lf.State())
	}
	_, stall, err := lf.FetchModelNow(context.Background(), "M_0")
	if err != nil {
		t.Fatal(err)
	}
	want := 100*time.Millisecond + goodTransfer(1<<20)
	if diff := stall - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("stall %v, want ≈%v", stall, want)
	}
}

func TestLinkFetcherDemandNoWaitWhenUp(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, alwaysGood(), models)
	start := time.Now()
	_, stall, err := lf.FetchModelNow(context.Background(), "M_0")
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("demand fetch blocked %v of wall clock", wall)
	}
	want := goodTransfer(1 << 20)
	if diff := stall - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("stall %v, want ≈%v", stall, want)
	}
	// The simulated clock advanced by the stall.
	if lf.Now() != stall {
		t.Fatalf("sim clock %v, want %v", lf.Now(), stall)
	}
}

func TestLinkFetcherUnknownModel(t *testing.T) {
	lf := newLF(t, alwaysGood(), []Model{{Name: "M_0", Bytes: 1}})
	if _, _, err := lf.FetchModel(context.Background(), "nope"); err == nil {
		t.Fatal("unknown model fetched")
	}
	if _, _, err := lf.FetchModelNow(context.Background(), "nope"); err == nil {
		t.Fatal("unknown model demand-fetched")
	}
}

func TestLinkFetcherValidation(t *testing.T) {
	link, err := netsim.NewLink(alwaysGood(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLinkFetcher(nil, []Model{{Name: "a", Bytes: 1}}, 0); err == nil {
		t.Fatal("nil link accepted")
	}
	if _, err := NewLinkFetcher(link, nil, 0); err == nil {
		t.Fatal("empty repertoire accepted")
	}
	if _, err := NewLinkFetcher(link, []Model{{Name: "a", Bytes: 0}}, 0); err == nil {
		t.Fatal("zero-byte model accepted")
	}
	lf, err := NewLinkFetcher(link, []Model{{Name: "a", Bytes: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Interval() != DefaultFrameInterval {
		t.Fatalf("default interval %v", lf.Interval())
	}
}

// TestSchedulerWithLinkFetcherEndToEnd runs the full stack — Markov →
// Scheduler → LinkFetcher → Cache — under concurrent ticks,
// plans and demand fetches. Run with -race.
func TestSchedulerWithLinkFetcherEndToEnd(t *testing.T) {
	models := testModels(4) // 1 MiB each → ~207 ms per transfer on Good
	lf := newLF(t, alwaysGood(), models)
	store := modelcache.MustNew(3, modelcache.LFU)
	s, err := NewScheduler(Config{Fetcher: lf, TopK: 1}, store, models)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Observe(0, 1)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Tick()
		}
	}()
	s.Plan(0)
	if _, err := s.DemandFetch(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// After 200 ticks (20 s simulated) the M_1 prefetch either finished
	// or was preempted by the demand fetch; both are legal, but the
	// counters must balance.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Completed+st.Cancelled+st.Failed == st.Issued
	}, "flights settled")
	if st := s.Stats(); st.DemandFetches != 1 {
		t.Fatalf("demand fetches %d", st.DemandFetches)
	}
}

func TestLinkFetcherStartBackgroundSynchronousCompletion(t *testing.T) {
	// 3 MB at 6 MB/s = 500 ms + 40 ms RTT → due on the 6th tick. The
	// callback must fire inside that Tick call, not on some later
	// goroutine schedule — that synchrony is what makes prefetch
	// completion deterministic in simulated time.
	models := []Model{{Name: "M_0", Bytes: 3 << 20}}
	lf := newLF(t, alwaysGood(), models)
	var gotBytes int64
	var gotErr error
	fired := 0
	cancel, err := lf.StartBackground("M_0", func(b int64, e error) {
		fired++
		gotBytes, gotErr = b, e
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lf.Tick()
		if fired != 0 {
			t.Fatalf("callback fired after %d ticks, want 6", i+1)
		}
	}
	lf.Tick()
	if fired != 1 {
		t.Fatalf("callback fired %d times after the due tick", fired)
	}
	if gotErr != nil || gotBytes != models[0].Bytes {
		t.Fatalf("callback got (%d, %v)", gotBytes, gotErr)
	}
	// Cancelling a settled transfer reports false: the callback owns the
	// accounting.
	if cancel() {
		t.Fatal("cancel returned true after completion")
	}
	if n, b := lf.Transferred(); n != 1 || b != models[0].Bytes {
		t.Fatalf("transferred (%d, %d)", n, b)
	}
}

func TestLinkFetcherStartBackgroundCancel(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 3 << 20}}
	lf := newLF(t, alwaysGood(), models)
	fired := false
	cancel, err := lf.StartBackground("M_0", func(int64, error) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	lf.Tick()
	if !cancel() {
		t.Fatal("cancel of a pending transfer returned false")
	}
	for i := 0; i < 20; i++ {
		lf.Tick()
	}
	if fired {
		t.Fatal("cancelled transfer still completed")
	}
	if n, _ := lf.Transferred(); n != 0 {
		t.Fatalf("cancelled transfer counted: %d", n)
	}
}

func TestLinkFetcherStartBackgroundDownAndUnknown(t *testing.T) {
	models := []Model{{Name: "M_0", Bytes: 1 << 20}}
	lf := newLF(t, goodThenDown(), models)
	lf.Tick() // Good → Down
	if _, err := lf.StartBackground("M_0", func(int64, error) {}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("start on a down link: %v", err)
	}
	if _, err := lf.StartBackground("nope", func(int64, error) {}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
