package modelcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anole/internal/telemetry"
	"anole/internal/xrand"
)

// TestShardedConcurrentHammer is the race/stress harness for the one
// Cache: goroutines hammer Contains/Touch/Request/Prefetch plus
// occasional Remove across every policy, while a checker goroutine reads
// the snapshot views. After the storm: residency never exceeds capacity,
// the counters balance (hits+misses == lookups), and the resident set
// equals admissions minus evictions minus removals. Run with -race.
func TestShardedConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 3000
		capacity   = 6
		keySpace   = 24
	)
	for _, policy := range []Policy{LFU, LRU, FIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			c := MustNew(capacity, policy)

			stop := make(chan struct{})
			var checker sync.WaitGroup
			checker.Add(1)
			go func() {
				defer checker.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if used := c.Used(); used > c.Capacity() {
						t.Errorf("capacity exceeded mid-flight: used %d > %d", used, c.Capacity())
						return
					}
					c.Len()
					c.Keys()
					c.MissRate()
					c.Stats()
				}
			}()

			var removed atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := xrand.NewLabeled(uint64(g), "sharded-hammer")
					for i := 0; i < opsPerG; i++ {
						key := fmt.Sprintf("m%d", rng.Intn(keySpace))
						switch rng.Intn(10) {
						case 0:
							c.Contains(key)
						case 1:
							c.Touch(key)
						case 2:
							if c.Remove(key) {
								removed.Add(1)
							}
						case 3:
							c.Freq(key)
						case 4:
							if _, _, err := c.Prefetch(key, 1); err != nil {
								t.Errorf("prefetch %q: %v", key, err)
								return
							}
						default:
							if _, _, err := c.Request(key, 1); err != nil {
								t.Errorf("request %q: %v", key, err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			checker.Wait()

			if used := c.Used(); used > c.Capacity() {
				t.Fatalf("capacity exceeded at rest: used %d > %d", used, c.Capacity())
			}
			if n := c.Len(); n > c.Capacity() {
				t.Fatalf("more entries than slots: %d > %d", n, c.Capacity())
			}
			st := c.Stats()
			if st.Hits+st.Misses != c.Lookups() {
				t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, c.Lookups())
			}
			// Every miss and every counted prefetch admitted one entry.
			if got, want := int64(c.Len()), st.Misses+st.Prefetches-st.Evictions-removed.Load(); got != want {
				t.Fatalf("resident %d, ledger says %d (%+v, %d removed)", got, want, st, removed.Load())
			}
			if got, want := c.MissRate(), float64(st.Misses)/float64(st.Hits+st.Misses); got != want {
				t.Fatalf("miss rate %v, want %v", got, want)
			}
		})
	}
}

// TestShardedConcurrentDisjointKeys drives each goroutine at its own key
// in a cache with one slot per goroutine, so every request after the
// first admission must hit: exact per-key counters survive the
// concurrency.
func TestShardedConcurrentDisjointKeys(t *testing.T) {
	const goroutines, ops = 6, 500
	c := MustNew(goroutines, LFU)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("own-%d", g)
			for i := 0; i < ops; i++ {
				if _, _, err := c.Request(key, 1); err != nil {
					t.Errorf("request %q: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	want := Stats{Hits: goroutines * (ops - 1), Misses: goroutines}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if c.Lookups() != int64(goroutines*ops) {
		t.Fatalf("lookups %d, want %d", c.Lookups(), goroutines*ops)
	}
	for g := 0; g < goroutines; g++ {
		key := fmt.Sprintf("own-%d", g)
		if got := c.Freq(key); got != ops {
			t.Fatalf("key %q freq %d, want %d", key, got, ops)
		}
	}
}

// TestNewMetricsSharesRegistry checks that the counters Stats reads are
// the anole_modelcache_* handles on the registry the cache was built on.
func TestNewMetricsSharesRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewMetrics(2, LFU, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "a", "b", "c"} {
		if _, _, err := c.Request(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	m := telemetry.Map(reg)
	st := c.Stats()
	if m["anole_modelcache_hits_total"] != float64(st.Hits) || m["anole_modelcache_misses_total"] != float64(st.Misses) ||
		m["anole_modelcache_evictions_total"] != float64(st.Evictions) || m["anole_modelcache_lookups_total"] != float64(c.Lookups()) {
		t.Fatalf("registry %v disagrees with stats %+v lookups %d", m, st, c.Lookups())
	}
	if st != (Stats{Hits: 1, Misses: 3, Evictions: 1}) {
		t.Fatalf("stats %+v", st)
	}
	if m["anole_modelcache_resident_models"] != float64(c.Len()) {
		t.Fatalf("resident gauge %v, Len %d", m["anole_modelcache_resident_models"], c.Len())
	}
}
