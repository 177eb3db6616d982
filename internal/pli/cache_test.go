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

func TestMapCacheCounters(t *testing.T) {
	c := NewMapCache(4)
	s := bitset.New(0, 1)
	if _, ok := c.Get(s); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(s, FromAllRows(3))
	if _, ok := c.Get(s); !ok {
		t.Fatal("expected hit after Put")
	}
	hits, misses, evictions := c.Counters()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

func TestMapCacheEviction(t *testing.T) {
	c := NewMapCache(4)
	for i := 0; i < 4; i++ {
		c.Put(bitset.New(i, i+1), FromAllRows(2))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// The fifth Put drops half the entries before inserting.
	c.Put(bitset.New(10, 11), FromAllRows(2))
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d, want 3", c.Len())
	}
	if _, _, evictions := c.Counters(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
}

func TestMapCacheDefaultBound(t *testing.T) {
	if c := NewMapCache(0); c.maxEntries != DefaultCacheEntries {
		t.Fatalf("maxEntries = %d, want %d", c.maxEntries, DefaultCacheEntries)
	}
}

// TestProviderCacheStats checks that the snapshot agrees with the Provider's
// own counters: Entries matches CachedEntries, Intersections matches the
// atomic counter, and repeated Gets turn into hits.
func TestProviderCacheStats(t *testing.T) {
	p := NewProvider(cacheTestRelation(t), 8)
	s := bitset.New(0, 1, 2)
	p.Get(s)
	first := p.CacheStats()
	if first.Intersections != p.IntersectionCount() {
		t.Errorf("Intersections = %d, want %d", first.Intersections, p.IntersectionCount())
	}
	if first.Entries != p.CachedEntries() {
		t.Errorf("Entries = %d, want %d", first.Entries, p.CachedEntries())
	}
	if first.Hits != 0 || first.Misses == 0 {
		t.Errorf("first Get of %v must only miss, got %+v", s, first)
	}
	p.Get(s)
	second := p.CacheStats()
	if second.Hits != first.Hits+1 {
		t.Errorf("repeated Get: hits %d, want %d", second.Hits, first.Hits+1)
	}
	if second.Intersections != first.Intersections {
		t.Errorf("repeated Get recomputed: %d intersections, want %d", second.Intersections, first.Intersections)
	}
}

// TestProviderWithNilCache verifies the default-cache fallback.
func TestProviderWithNilCache(t *testing.T) {
	p := NewProviderWithCache(cacheTestRelation(t), nil)
	if !p.IsUnique(bitset.New(0, 1)) {
		t.Error("A,B must be unique")
	}
}

func TestShardedCachePowerOfTwoShards(t *testing.T) {
	for want, counts := range map[int][]int{
		1: {1}, 2: {2}, 4: {3, 4}, 8: {5, 6, 7, 8}, 16: {9, 15, 16},
	} {
		for _, n := range counts {
			if got := NewShardedCache(n, 0).NumShards(); got != want {
				t.Errorf("NewShardedCache(%d): %d shards, want %d", n, got, want)
			}
		}
	}
}

// TestShardedCacheBasics checks the Cache contract: probes route to a stable
// shard, counters aggregate, and the total bound is split across shards.
func TestShardedCacheBasics(t *testing.T) {
	c := NewShardedCache(4, 64)
	s := bitset.New(0, 1)
	if _, ok := c.Get(s); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(s, FromAllRows(3))
	if got, ok := c.Get(s); !ok || got == nil {
		t.Fatal("expected hit after Put")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	hits, misses, evictions := c.Counters()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

// TestShardedCacheConcurrent hammers a ShardedCache from several goroutines;
// run under -race this proves a Provider backed by it is shareable.
func TestShardedCacheConcurrent(t *testing.T) {
	c := NewShardedCache(8, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := bitset.New(i%6, i%6+1+g%3)
				if _, ok := c.Get(s); !ok {
					c.Put(s, FromAllRows(2))
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := c.Counters()
	if hits+misses != 8*200 {
		t.Fatalf("probes = %d, want %d", hits+misses, 8*200)
	}
}

// TestConcurrentProviderSharedGets shares one concurrent Provider across
// goroutines probing overlapping column combinations; under -race this
// exercises the Provider's documented concurrency contract end to end
// (sharded cache puts, atomic intersection counting).
func TestConcurrentProviderSharedGets(t *testing.T) {
	rel := cacheTestRelation(t)
	p := NewConcurrentProvider(rel, 0, 8)
	want := NewProvider(rel, 0)
	combos := []bitset.Set{
		bitset.New(0, 1), bitset.New(0, 2), bitset.New(1, 2),
		bitset.New(0, 1, 2), bitset.New(1, 2, 3), bitset.New(0, 1, 2, 3),
	}
	// The sequential reference provider is not shareable; resolve the
	// expected distinct counts before spawning the workers.
	wantCounts := make([]int, len(combos))
	for i, s := range combos {
		wantCounts[i] = want.Get(s).DistinctCount()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := combos[i%len(combos)]
				if got := p.Get(s).DistinctCount(); got != wantCounts[i%len(combos)] {
					t.Errorf("Get(%v).DistinctCount = %d, want %d", s, got, wantCounts[i%len(combos)])
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.IntersectionCount() == 0 {
		t.Error("no intersections recorded")
	}
}
