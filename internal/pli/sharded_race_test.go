package pli

import (
	"sync"
	"sync/atomic"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

// TestShardedCacheCounterAggregation hammers a multi-shard cache with a
// concurrent mixed hit/miss workload and checks that the aggregated
// counters balance exactly: every Get is accounted as a hit or a miss, and
// every inserted entry is either still cached or counted as evicted. Run
// with -race, this also exercises the per-shard locking.
func TestShardedCacheCounterAggregation(t *testing.T) {
	rel := mustRelation(t)
	seedPLI := NewProvider(rel, 1, 0, 0).SingleColumn(0)

	const (
		goroutines   = 8
		setsPerG     = 64
		getsPerSet   = 5
		totalEntries = goroutines * setsPerG
	)
	// A small bound forces evictions under load.
	c := newCache(4, totalEntries/4, -1)

	var wg sync.WaitGroup
	var gets, hitsSeen, missesSeen atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < setsPerG; i++ {
				// Distinct two-column sets per goroutine: every Put inserts
				// a fresh key, never overwrites.
				key := bitset.New(g, goroutines+i)
				for k := 0; k < getsPerSet; k++ {
					if _, ok := c.get(key); ok {
						hitsSeen.Add(1)
					} else {
						missesSeen.Add(1)
					}
					gets.Add(1)
				}
				c.put(key, seedPLI)
			}
		}(g)
	}
	wg.Wait()

	st := cacheStats(c)
	hits, misses, evictions := st.Hits, st.Misses, st.Evictions
	if hits+misses != gets.Load() {
		t.Fatalf("hits+misses = %d+%d = %d, want %d (every probe counted exactly once)",
			hits, misses, hits+misses, gets.Load())
	}
	if hits != hitsSeen.Load() || misses != missesSeen.Load() {
		t.Fatalf("aggregated counters (hits=%d misses=%d) disagree with observed outcomes (hits=%d misses=%d)",
			hits, misses, hitsSeen.Load(), missesSeen.Load())
	}
	// Each key is Put exactly once, so inserts = totalEntries and every
	// insert is either resident or evicted.
	if got := st.Entries + int(evictions); got != totalEntries {
		t.Fatalf("Entries+evictions = %d+%d = %d, want %d inserts", st.Entries, evictions, got, totalEntries)
	}
	if evictions == 0 {
		t.Fatalf("expected evictions under a %d-entry bound with %d inserts", totalEntries/4, totalEntries)
	}
	// The first probe of every key must miss (keys are unique per
	// goroutine), so misses cover at least one probe per key.
	if misses < totalEntries {
		t.Fatalf("misses = %d, want >= %d (first probe of each key)", misses, totalEntries)
	}
}

// TestShardedCacheCountersConcurrentReads verifies that a multi-shard
// cache's stats can be read while the cache is being mutated.
func TestShardedCacheCountersConcurrentReads(t *testing.T) {
	rel := mustRelation(t)
	seedPLI := NewProvider(rel, 1, 0, 0).SingleColumn(0)
	c := newCache(4, 64, -1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := bitset.New(g, 4+i%32)
				c.get(key)
				c.put(key, seedPLI)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if st := cacheStats(c); st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 || st.Entries < 0 {
			t.Fatalf("negative counters: %+v", st)
		}
	}
	close(stop)
	wg.Wait()
}

func mustRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rel, err := relation.New("t", []string{"a", "b"}, [][]string{{"1", "x"}, {"2", "x"}, {"3", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
