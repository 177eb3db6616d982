package pli

import (
	"sync"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

func cacheTestRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rows := [][]string{
		{"a", "1", "x", "p"},
		{"a", "2", "y", "p"},
		{"b", "1", "x", "q"},
		{"b", "2", "y", "q"},
		{"c", "3", "x", "p"},
	}
	r, err := relation.New("cache", []string{"A", "B", "C", "D"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The TestMapCache* tests exercise a one-shard cache (one worker, no lock)
// and the TestShardedCache* tests a multi-shard one; the names predate the
// single cache type and are kept so the suites stay recognisable.

// cacheStats snapshots the cache-owned CacheStats fields of c.
func cacheStats(c *cache) CacheStats {
	var st CacheStats
	c.stats(&st)
	return st
}

func TestMapCacheCounters(t *testing.T) {
	c := newCache(1, 4, -1)
	s := bitset.New(0, 1)
	if _, ok := c.get(s); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.put(s, FromAllRows(3))
	if _, ok := c.get(s); !ok {
		t.Fatal("expected hit after put")
	}
	if st := cacheStats(c); st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/0", st.Hits, st.Misses, st.Evictions)
	}
}

func TestMapCacheEviction(t *testing.T) {
	c := newCache(1, 4, -1)
	for i := 0; i < 4; i++ {
		c.put(bitset.New(i, i+1), FromAllRows(2))
	}
	if n := cacheStats(c).Entries; n != 4 {
		t.Fatalf("Entries = %d, want 4", n)
	}
	// The fifth put drops half the entries before inserting.
	c.put(bitset.New(10, 11), FromAllRows(2))
	st := cacheStats(c)
	if st.Entries != 3 {
		t.Fatalf("Entries after eviction = %d, want 3", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestMapCacheDefaultBound(t *testing.T) {
	if c := newCache(1, 0, 0); c.shards[0].maxEntries != DefaultCacheEntries {
		t.Fatalf("maxEntries = %d, want %d", c.shards[0].maxEntries, DefaultCacheEntries)
	}
}

// TestProviderCacheStats checks that the snapshot reflects the Provider's
// admissions: a refuted IsUnique probe misses and admits its PLI, and
// repeating it turns into a hit without a new materialization.
func TestProviderCacheStats(t *testing.T) {
	rel := cacheTestRelation(t)
	p := NewProvider(rel, 1, 8, 0)
	s := bitset.New(2, 3) // rows 0 and 4 agree on C, D
	if p.IsUnique(s) {
		t.Fatalf("%v must not be unique", s)
	}
	first := p.CacheStats()
	if first.Entries != 1 || first.Materializations != 1 || first.Bytes != setPLI(rel, s).ApproxBytes() {
		t.Errorf("refuted probe of %v: want one admitted entry, got %+v", s, first)
	}
	if first.Hits != 0 || first.Misses == 0 {
		t.Errorf("first probe of %v must only miss, got %+v", s, first)
	}
	p.IsUnique(s)
	second := p.CacheStats()
	if second.Hits != first.Hits+1 {
		t.Errorf("repeated probe: hits %d, want %d", second.Hits, first.Hits+1)
	}
	if second.Materializations != first.Materializations {
		t.Errorf("repeated probe recomputed: %d materializations, want %d", second.Materializations, first.Materializations)
	}
}

func TestShardedCachePowerOfTwoShards(t *testing.T) {
	for want, counts := range map[int][]int{
		1: {1}, 2: {2}, 4: {3, 4}, 8: {5, 6, 7, 8}, 16: {9, 15, 16},
	} {
		for _, n := range counts {
			if got := len(newCache(n, 0, 0).shards); got != want {
				t.Errorf("newCache(%d): %d shards, want %d", n, got, want)
			}
		}
	}
}

// TestShardedCacheBasics checks the cache contract: probes route to a stable
// shard, counters aggregate, and the total bound is split across shards.
func TestShardedCacheBasics(t *testing.T) {
	c := newCache(4, 64, -1)
	s := bitset.New(0, 1)
	if _, ok := c.get(s); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.put(s, FromAllRows(3))
	if got, ok := c.get(s); !ok || got == nil {
		t.Fatal("expected hit after put")
	}
	st := cacheStats(c)
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/0", st.Hits, st.Misses, st.Evictions)
	}
	for i := range c.shards {
		if c.shards[i].maxEntries != 16 {
			t.Fatalf("shard %d bound = %d, want 64/4", i, c.shards[i].maxEntries)
		}
	}
}

// TestShardedCacheConcurrent hammers a multi-shard cache from several
// goroutines; run under -race this proves a Provider backed by it is
// shareable.
func TestShardedCacheConcurrent(t *testing.T) {
	c := newCache(8, 256, -1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := bitset.New(i%6, i%6+1+g%3)
				if _, ok := c.get(s); !ok {
					c.put(s, FromAllRows(2))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := cacheStats(c); st.Hits+st.Misses != 8*200 {
		t.Fatalf("probes = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestConcurrentProviderSharedGets shares one multi-worker Provider across
// goroutines probing overlapping column combinations; under -race this
// exercises the Provider's documented concurrency contract end to end
// (sharded cache puts, atomic counters).
func TestConcurrentProviderSharedGets(t *testing.T) {
	rel := cacheTestRelation(t)
	p := NewProvider(rel, 8, 0, 0)
	combos := []bitset.Set{
		bitset.New(0, 1), bitset.New(0, 2), bitset.New(1, 2), bitset.New(2, 3),
		bitset.New(0, 1, 2), bitset.New(1, 2, 3), bitset.New(0, 1, 2, 3),
	}
	// Resolve the expected answers before spawning the workers.
	wantCounts := make([]int, len(combos))
	wantUnique := make([]bool, len(combos))
	for i, s := range combos {
		ref := setPLI(rel, s)
		wantCounts[i], wantUnique[i] = ref.DistinctCount(), ref.IsUnique()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j := i % len(combos)
				if got := p.Cardinality(combos[j]); got != wantCounts[j] {
					t.Errorf("Cardinality(%v) = %d, want %d", combos[j], got, wantCounts[j])
					return
				}
				if got := p.IsUnique(combos[j]); got != wantUnique[j] {
					t.Errorf("IsUnique(%v) = %v, want %v", combos[j], got, wantUnique[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.CacheStats().FastChecks == 0 {
		t.Error("no checks recorded")
	}
}
