package modelcache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"anole/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, LFU); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(3, Policy(0)); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if c := MustNew(3, LFU); c.Capacity() != 3 {
		t.Fatal("capacity wrong")
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, LFU, 4); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewSharded(-3, LRU, 1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewSharded(4, Policy(99), 2); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestShardedRequestRejectsBadSize(t *testing.T) {
	c := MustNew(4, LFU)
	if _, _, err := c.Request("m", 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, _, err := c.Request("m", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	// An entry larger than the whole capacity is rejected, and the
	// failed admission still counts as a lookup and a miss.
	if _, _, err := c.Request("m", 5); err == nil {
		t.Fatal("oversized entry accepted")
	}
	st := c.Stats()
	if st.Hits+st.Misses != c.Lookups() || c.Lookups() != 1 || st.Misses != 1 {
		t.Fatalf("counters unbalanced after rejection: %+v lookups %d", st, c.Lookups())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(-1, LFU)
}

func TestRequestHitMiss(t *testing.T) {
	c := MustNew(2, LFU)
	hit, ev, err := c.Request("a", 1)
	if err != nil || hit || len(ev) != 0 {
		t.Fatalf("first request: hit=%v ev=%v err=%v", hit, ev, err)
	}
	hit, _, err = c.Request("a", 1)
	if err != nil || !hit {
		t.Fatal("second request should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

func TestLFUEviction(t *testing.T) {
	c := MustNew(2, LFU)
	c.Request("a", 1)
	c.Request("b", 1)
	// Use a twice more; b stays at freq 1.
	c.Request("a", 1)
	c.Request("a", 1)
	_, evicted, err := c.Request("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if !c.Contains("a") || !c.Contains("c") || c.Contains("b") {
		t.Fatalf("cache contents: %v", c.Keys())
	}
}

func TestLFUTieBreaksByInsertionOrder(t *testing.T) {
	c := MustNew(2, LFU)
	c.Request("first", 1)
	c.Request("second", 1)
	_, evicted, _ := c.Request("third", 1)
	if evicted[0] != "first" {
		t.Fatalf("tie should evict oldest: %v", evicted)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2, LRU)
	c.Request("a", 1)
	c.Request("b", 1)
	c.Request("a", 1) // refresh a's recency
	_, evicted, _ := c.Request("c", 1)
	if evicted[0] != "b" {
		t.Fatalf("LRU should evict b: %v", evicted)
	}
}

func TestFIFOEviction(t *testing.T) {
	c := MustNew(2, FIFO)
	c.Request("a", 1)
	c.Request("b", 1)
	// Heavy reuse of a must not save it under FIFO.
	for i := 0; i < 5; i++ {
		c.Request("a", 1)
	}
	_, evicted, _ := c.Request("c", 1)
	if evicted[0] != "a" {
		t.Fatalf("FIFO should evict a: %v", evicted)
	}
}

func TestMultiUnitSizes(t *testing.T) {
	c := MustNew(4, LFU)
	c.Request("big", 3)
	c.Request("small", 1)
	if c.Used() != 4 {
		t.Fatalf("used = %d", c.Used())
	}
	// Inserting a 2-unit model must evict until it fits (the 1-unit
	// small alone is not enough: big has equal freq but older insert).
	_, evicted, err := c.Request("mid", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 {
		t.Fatal("no eviction for oversized insert")
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("over capacity: %d/%d", c.Used(), c.Capacity())
	}
}

func TestRequestRejectsOversized(t *testing.T) {
	c := MustNew(2, LFU)
	if _, _, err := c.Request("huge", 3); err == nil {
		t.Fatal("oversized entry accepted")
	}
	if _, _, err := c.Request("zero", 0); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestRemove(t *testing.T) {
	c := MustNew(2, LFU)
	c.Request("a", 1)
	if !c.Remove("a") {
		t.Fatal("remove missed present key")
	}
	if c.Remove("a") {
		t.Fatal("double remove reported success")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("remove did not free space")
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("Remove must not count as eviction")
	}
}

func TestTouch(t *testing.T) {
	c := MustNew(2, LFU)
	if c.Touch("ghost") {
		t.Fatal("touch on absent key")
	}
	c.Request("a", 1)
	if !c.Touch("a") {
		t.Fatal("touch missed")
	}
	if c.Freq("a") != 2 {
		t.Fatalf("freq = %d", c.Freq("a"))
	}
	if c.Freq("ghost") != 0 {
		t.Fatal("ghost freq should be 0")
	}
}

func TestKeysSorted(t *testing.T) {
	c := MustNew(3, LFU)
	c.Request("zebra", 1)
	c.Request("alpha", 1)
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "zebra" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestPolicyString(t *testing.T) {
	if LFU.String() != "LFU" || LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must print")
	}
}

func TestHotSetStaysResidentUnderLFU(t *testing.T) {
	// Power-law access: models 0-2 are hot, 3-9 cold. With a 3-slot LFU
	// cache the hot set should converge to residency (Fig. 4b ⇒ 7b).
	c := MustNew(3, LFU)
	rng := xrand.New(42)
	weights := []float64{30, 20, 10, 1, 1, 1, 1, 1, 1, 1}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("m%d", rng.Categorical(weights))
		if _, _, err := c.Request(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// m0 and m1 dominate and must be resident; the third slot churns
	// between m2 and one-off cold models under plain LFU.
	for _, hot := range []string{"m0", "m1"} {
		if !c.Contains(hot) {
			t.Fatalf("hot model %s not resident: %v", hot, c.Keys())
		}
	}
	if c.MissRate() > 0.3 {
		t.Fatalf("hot-set miss rate = %v", c.MissRate())
	}
}

func TestLargerCacheLowersMissRate(t *testing.T) {
	run := func(capacity int) float64 {
		c := MustNew(capacity, LFU)
		rng := xrand.New(7)
		weights := []float64{8, 5, 3, 2, 1, 1, 1, 1}
		for i := 0; i < 4000; i++ {
			k := fmt.Sprintf("m%d", rng.Categorical(weights))
			if _, _, err := c.Request(k, 1); err != nil {
				panic(err)
			}
		}
		return c.MissRate()
	}
	small, large := run(2), run(6)
	if large >= small {
		t.Fatalf("bigger cache should miss less: %v vs %v", large, small)
	}
}

// Property: used never exceeds capacity and counters never go negative.
func TestCacheInvariants(t *testing.T) {
	rng := xrand.New(99)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.Split(uint64(seed))
		policies := []Policy{LFU, LRU, FIFO}
		c := MustNew(rr.Intn(5)+1, policies[rr.Intn(3)])
		for op := 0; op < 200; op++ {
			key := fmt.Sprintf("k%d", rr.Intn(8))
			switch rr.Intn(3) {
			case 0, 1:
				size := rr.Intn(2) + 1
				if _, _, err := c.Request(key, size); err != nil && size <= c.Capacity() {
					return false
				}
			case 2:
				c.Remove(key)
			}
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
			total := 0
			for _, k := range c.Keys() {
				if !c.Contains(k) {
					return false
				}
				total++
			}
			if total != c.Len() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLFUHistorySurvivesEviction(t *testing.T) {
	// A hot model evicted during a burst of other requests regains its
	// frequency standing when re-admitted: the next eviction removes
	// the low-history newcomer, not the returning hot model.
	c := MustNew(2, LFU)
	for i := 0; i < 5; i++ {
		c.Request("hot", 1)
	}
	c.Request("b", 1)
	c.Request("cold1", 1) // evicts b (freq 1 vs hot 5)
	if !c.Contains("hot") {
		t.Fatal("hot evicted prematurely")
	}
	c.Request("cold2", 1) // evicts cold1
	c.Request("cold3", 1) // evicts cold2
	if !c.Contains("hot") {
		t.Fatal("hot lost residency to one-off requests")
	}
	// Evict hot by filling with another key, then bring it back: its
	// history must outrank fresh entries immediately.
	c.Remove("hot")
	c.Request("x", 1)
	c.Request("hot", 1) // re-admitted with historical freq 6
	c.Request("y", 1)   // must evict x or cold3, never hot
	if !c.Contains("hot") {
		t.Fatalf("returning hot model evicted: %v", c.Keys())
	}
}

// bytesInvariant checks BytesUsed equals the sum of the sizer over the
// resident keys — the accounting invariant SetSizer promises.
func bytesInvariant(t *testing.T, c *Cache, size func(string) int64) {
	t.Helper()
	var want int64
	for _, k := range c.Keys() {
		want += size(k)
	}
	if got := c.BytesUsed(); got != want {
		t.Fatalf("BytesUsed %d, resident sum %d (keys %v)", got, want, c.Keys())
	}
}

func TestBytesUsedTracksResidentSet(t *testing.T) {
	// Deterministic fake sizer: key "M_i" weighs (i+1)*1000 bytes.
	size := func(key string) int64 {
		var i int
		fmt.Sscanf(key, "M_%d", &i)
		return int64(i+1) * 1000
	}
	c := MustNew(3, LFU)
	if c.BytesUsed() != 0 {
		t.Fatalf("BytesUsed %d before SetSizer, want 0", c.BytesUsed())
	}

	// Admissions before the sizer is installed are re-measured by SetSizer.
	if _, _, err := c.Request("M_0", 1); err != nil {
		t.Fatal(err)
	}
	c.SetSizer(size)
	bytesInvariant(t, c, size)

	// Demand admissions, hits, evictions, prefetches and removals all
	// keep the invariant.
	for _, key := range []string{"M_1", "M_2", "M_3", "M_1", "M_4"} {
		if _, _, err := c.Request(key, 1); err != nil {
			t.Fatal(err)
		}
		bytesInvariant(t, c, size)
	}
	if _, _, err := c.Prefetch("M_5", 1); err != nil {
		t.Fatal(err)
	}
	bytesInvariant(t, c, size)
	for _, k := range c.Keys() {
		c.Remove(k)
		bytesInvariant(t, c, size)
	}
	if c.BytesUsed() != 0 {
		t.Fatalf("BytesUsed %d after emptying, want 0", c.BytesUsed())
	}

	// Clearing the sizer zeroes the accounting.
	if _, _, err := c.Request("M_9", 1); err != nil {
		t.Fatal(err)
	}
	c.SetSizer(nil)
	if c.BytesUsed() != 0 {
		t.Fatalf("BytesUsed %d after clearing sizer, want 0", c.BytesUsed())
	}
}

// TestShardedBytesUsed keeps the byte ledger exact while goroutines
// request, prefetch and remove concurrently; run with -race.
func TestShardedBytesUsed(t *testing.T) {
	size := func(key string) int64 { return int64(len(key)) * 100 }
	s := MustNew(4, LFU)
	s.SetSizer(size)
	keys := []string{"a", "bb", "ccc", "dddd", "ee", "f"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				switch (g + i) % 5 {
				case 0:
					s.Remove(k)
				case 1:
					if _, _, err := s.Prefetch(k, 1); err != nil {
						t.Errorf("prefetch %q: %v", k, err)
						return
					}
				default:
					if _, _, err := s.Request(k, 1); err != nil {
						t.Errorf("request %q: %v", k, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	bytesInvariant(t, s, size)
	for _, k := range s.Keys() {
		s.Remove(k)
	}
	if got := s.BytesUsed(); got != 0 {
		t.Fatalf("BytesUsed %d after emptying, want 0", got)
	}
}
