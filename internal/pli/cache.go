package pli

import (
	"runtime"
	"sync"

	"holistic/internal/bitset"
)

// Cache is the pluggable storage behind a Provider's multi-column PLIs. The
// single-column PLIs and the empty-set PLI live outside the cache and are
// never evicted; a Cache only sees sets with two or more columns.
//
// Implementations count their own probe outcomes so that eviction policies
// can be compared without touching the Provider: Counters reports how many
// Get calls hit, how many missed, and how many entries eviction dropped. A
// probe is one Get call — the Provider probes subsets while assembling a PLI,
// so misses exceed the number of distinct sets requested by callers.
type Cache interface {
	// Get returns the cached PLI of s, if present.
	Get(s bitset.Set) (*PLI, bool)
	// Put stores the PLI of s, evicting other entries if needed.
	Put(s bitset.Set, pli *PLI)
	// Len returns the number of cached entries.
	Len() int
	// Bytes returns the approximate heap bytes held by the cached PLIs
	// (see PLI.ApproxBytes). It is what the memory governor budgets.
	Bytes() int64
	// Counters returns the accumulated hit/miss/eviction counts.
	Counters() (hits, misses, evictions int64)
	// ForEach visits every cached entry until fn returns false. It exists so
	// incremental maintenance can patch cached PLIs in place after a
	// relation append. fn must not call back into the cache (concurrent
	// implementations hold their locks during the walk); iteration order is
	// unspecified. Hit/miss counters are not touched.
	ForEach(fn func(s bitset.Set, pli *PLI) bool)
}

// DefaultCacheBytes is the default byte budget of a budgeted cache: enough
// for the paper's workloads, small enough that a hostile wide relation
// degrades to recomputation instead of OOM-killing the process.
const DefaultCacheBytes = 256 << 20

// CacheStats is a point-in-time snapshot of a Provider's cache behaviour,
// combining the cache's own probe counters with the Provider's intersection
// count. It is the payload of the engine's Observer cache hook and of the
// benchmark harness' cache metrics. It marshals cleanly with encoding/json,
// so per-job cache statistics can ride along in serialized profiling
// results and progress-event streams.
type CacheStats struct {
	// Hits and Misses count cache probes (see Cache.Counters).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the eviction policy (entry-count
	// pressure and byte-budget shedding both land here).
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached multi-column PLIs.
	Entries int `json:"entries"`
	// Bytes is the approximate heap held by the cached PLIs.
	Bytes int64 `json:"bytes"`
	// Intersections counts the column intersections the Provider performed —
	// the work the cache exists to avoid.
	Intersections int64 `json:"intersections"`
	// FastChecks counts validation questions (IsUnique, CheckFD, CheckFDs
	// per candidate, Cardinality) answered by the non-materializing check
	// kernels — no intersection PLI was built or cached for them.
	FastChecks int64 `json:"fast_checks"`
	// Materializations counts the PLIs the fast path chose to build and
	// admit to the cache: refuted IsUnique probes (whose survivors fall out
	// of the verdict fold and serve as stepping stones for later probes)
	// plus doorkeeper-gated intermediate promotions on deep plans. It is
	// the admission-controlled complement of FastChecks:
	// FastChecks / (FastChecks + Materializations) is the fast-check hit
	// rate of a validation-dominated run.
	Materializations int64 `json:"materializations"`
	// SampledRefutations counts questions settled negatively by the
	// deterministic stride-sample prefilter alone, before any exact check
	// ran (see Provider.WithSampleCheck).
	SampledRefutations int64 `json:"sampled_refutations,omitempty"`
}

// MapCache is the default Cache: a bounded map with a cheap random-replacement
// policy. When the entry bound is reached, roughly half the entries are
// dropped; map iteration order is effectively random, which serves as the
// replacement choice. An optional byte budget (NewMapCacheBudget) additionally
// bounds the approximate heap held by the cached PLIs: stores that would
// exceed it shed other entries first, and a PLI larger than the whole budget
// is never cached at all — the Provider then recomputes it on demand, trading
// time for bounded memory. It is not safe for concurrent use; a Provider
// shared across goroutines uses a ShardedCache instead.
type MapCache struct {
	entries    map[bitset.Set]cacheEntry
	maxEntries int
	maxBytes   int64 // 0 = no byte budget
	bytes      int64

	hits, misses, evictions int64
}

// cacheEntry pins the byte size accounted at Put time next to the PLI. A
// PLI's ApproxBytes can grow later (the probe vector materialises lazily),
// so evictions must subtract exactly what Put added — the pinned size —
// or the ledger would drift.
type cacheEntry struct {
	pli   *PLI
	bytes int64
}

// NewMapCache builds a MapCache bounded to maxEntries cached PLIs with no
// byte budget. maxEntries <= 0 selects DefaultCacheEntries.
func NewMapCache(maxEntries int) *MapCache {
	return NewMapCacheBudget(maxEntries, 0)
}

// NewMapCacheBudget builds a MapCache bounded to maxEntries cached PLIs and
// approximately maxBytes of cached PLI heap (0 = no byte budget; < 0 selects
// DefaultCacheBytes).
func NewMapCacheBudget(maxEntries int, maxBytes int64) *MapCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if maxBytes < 0 {
		maxBytes = DefaultCacheBytes
	}
	return &MapCache{
		entries:    make(map[bitset.Set]cacheEntry),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Get implements Cache.
func (c *MapCache) Get(s bitset.Set) (*PLI, bool) {
	e, ok := c.entries[s]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e.pli, ok
}

// Put implements Cache, evicting roughly half the entries when the entry
// bound is hit and shedding entries when the byte budget is exceeded. The
// stored PLI's size is snapshotted here (see cacheEntry).
func (c *MapCache) Put(s bitset.Set, pli *PLI) {
	sz := pli.ApproxBytes()
	if old, ok := c.entries[s]; ok {
		c.bytes += sz - old.bytes
		c.entries[s] = cacheEntry{pli: pli, bytes: sz}
		c.shedOver(s)
		return
	}
	if c.maxBytes > 0 && sz > c.maxBytes {
		// This single PLI would blow the whole budget: never cache it. The
		// Provider recomputes it when needed — slower, never OOM.
		c.evictions++
		return
	}
	if len(c.entries) >= c.maxEntries {
		drop := len(c.entries) / 2
		for k, v := range c.entries {
			if drop == 0 {
				break
			}
			c.bytes -= v.bytes
			delete(c.entries, k)
			c.evictions++
			drop--
		}
	}
	c.entries[s] = cacheEntry{pli: pli, bytes: sz}
	c.bytes += sz
	c.shedOver(s)
}

// shedOver drops entries (never keep itself) until the byte budget holds
// again. Map iteration order serves as the random replacement choice, as in
// the entry-bound eviction.
func (c *MapCache) shedOver(keep bitset.Set) {
	if c.maxBytes <= 0 {
		return
	}
	for k, v := range c.entries {
		if c.bytes <= c.maxBytes {
			return
		}
		if k == keep {
			continue
		}
		c.bytes -= v.bytes
		delete(c.entries, k)
		c.evictions++
	}
}

// Len implements Cache.
func (c *MapCache) Len() int { return len(c.entries) }

// Bytes implements Cache.
func (c *MapCache) Bytes() int64 { return c.bytes }

// Counters implements Cache.
func (c *MapCache) Counters() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}

// ForEach implements Cache (map order, i.e. unspecified).
func (c *MapCache) ForEach(fn func(s bitset.Set, pli *PLI) bool) {
	for k, v := range c.entries {
		if !fn(k, v.pli) {
			return
		}
	}
}

// ShardedCache spreads entries over a power-of-two number of independently
// locked shards, so concurrent workers probing disjoint column combinations
// rarely contend on the same mutex. Each shard is its own bounded MapCache
// with its own counters; Counters and Len aggregate across shards, which is
// how the per-shard counts surface in a Provider's CacheStats.
//
// The shard of a set is chosen by bitset.Set.Hash, so repeated probes of the
// same combination always hit the same shard and eviction pressure stays
// local to hot shards.
type ShardedCache struct {
	shards []shard
	mask   uint64
}

type shard struct {
	mu    sync.Mutex
	inner *MapCache
	// Pad shards to their own cache lines so two cores probing neighbouring
	// shards do not false-share the mutex words.
	_ [40]byte
}

// NewShardedCache builds a ShardedCache with at least shardCount shards
// (rounded up to a power of two; <= 0 selects the next power of two above
// runtime.GOMAXPROCS). maxEntries bounds the total cached PLIs across all
// shards (<= 0 selects DefaultCacheEntries); each shard is bounded to its
// equal split of the total. No byte budget is applied.
func NewShardedCache(shardCount, maxEntries int) *ShardedCache {
	return NewShardedCacheBudget(shardCount, maxEntries, 0)
}

// NewShardedCacheBudget builds a ShardedCache whose entry bound and byte
// budget are both split equally across the shards (maxBytes 0 = no byte
// budget; < 0 selects DefaultCacheBytes). Shedding pressure therefore stays
// local to hot shards, like entry eviction.
func NewShardedCacheBudget(shardCount, maxEntries int, maxBytes int64) *ShardedCache {
	if shardCount <= 0 {
		shardCount = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if maxBytes < 0 {
		maxBytes = DefaultCacheBytes
	}
	perShard := maxEntries / n
	if perShard < 1 {
		perShard = 1
	}
	perShardBytes := maxBytes / int64(n)
	if maxBytes > 0 && perShardBytes < 1 {
		perShardBytes = 1
	}
	c := &ShardedCache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].inner = NewMapCacheBudget(perShard, perShardBytes)
	}
	return c
}

// NumShards returns the number of shards (a power of two).
func (c *ShardedCache) NumShards() int { return len(c.shards) }

func (c *ShardedCache) shardFor(s bitset.Set) *shard {
	return &c.shards[s.Hash()&c.mask]
}

// Get implements Cache.
func (c *ShardedCache) Get(s bitset.Set) (*PLI, bool) {
	sh := c.shardFor(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.inner.Get(s)
}

// Put implements Cache.
func (c *ShardedCache) Put(s bitset.Set, pli *PLI) {
	sh := c.shardFor(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.inner.Put(s, pli)
}

// Len implements Cache, summing the shard sizes.
func (c *ShardedCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.inner.Len()
		sh.mu.Unlock()
	}
	return total
}

// Bytes implements Cache, summing the shard byte counts.
func (c *ShardedCache) Bytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.inner.Bytes()
		sh.mu.Unlock()
	}
	return total
}

// ForEach implements Cache, walking the shards in order (each shard's mutex
// is held while it is walked, so fn must not call back into the cache).
func (c *ShardedCache) ForEach(fn func(s bitset.Set, pli *PLI) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		done := false
		sh.inner.ForEach(func(s bitset.Set, pli *PLI) bool {
			if !fn(s, pli) {
				done = true
				return false
			}
			return true
		})
		sh.mu.Unlock()
		if done {
			return
		}
	}
}

// Counters implements Cache, aggregating the per-shard counters.
func (c *ShardedCache) Counters() (hits, misses, evictions int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		h, m, e := sh.inner.Counters()
		sh.mu.Unlock()
		hits += h
		misses += m
		evictions += e
	}
	return hits, misses, evictions
}
