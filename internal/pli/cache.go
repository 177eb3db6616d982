package pli

import (
	"sync"

	"holistic/internal/bitset"
	"holistic/internal/parallel"
)

// DefaultCacheBytes is the default byte budget of a Provider's cache: enough
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
	// Hits and Misses count cache probes. A probe is one lookup of a
	// multi-column set — the Provider probes subsets while planning a check,
	// so misses exceed the number of distinct sets asked about.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the eviction policy (entry-count
	// pressure, byte-budget shedding and refused oversize stores all land
	// here).
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

// cache stores a Provider's multi-column PLIs. The single-column PLIs and
// the empty-set PLI live outside it and are never evicted; the cache only
// sees sets with two or more columns.
//
// It is a power-of-two set of shards chosen by bitset.Set.Hash, so repeated
// probes of one combination always land on the same shard and eviction
// pressure stays local to hot shards. Each shard is a bounded map with a
// cheap random-replacement policy and an optional byte budget; the entry
// bound and the budget are split equally across the shards. A one-shard
// cache takes no lock and is single-goroutine only; a multi-shard cache
// locks the probed shard, so concurrent workers probing disjoint
// combinations rarely contend.
type cache struct {
	shards []shard
	mask   uint64 // len(shards)-1; 0 = one unlocked shard
}

// shard is one bounded map of the cache. When the entry bound is reached,
// roughly half the entries are dropped; map iteration order is effectively
// random, which serves as the replacement choice. Under a byte budget,
// stores that would exceed it shed other entries first, and a PLI larger
// than the whole budget is never cached at all — the Provider then
// recomputes it on demand, trading time for bounded memory. PLIs are
// immutable, so an entry's ApproxBytes is the same at eviction as at Put.
type shard struct {
	mu         sync.Mutex
	entries    map[bitset.Set]*PLI
	maxEntries int
	maxBytes   int64 // 0 = no byte budget
	bytes      int64

	hits, misses, evictions int64

	// Pad shards apart so two cores probing neighbouring shards do not
	// false-share the mutex and counter words.
	_ [64]byte
}

// newCache builds a cache with the next power of two >= parallel.Workers(
// workers) shards. maxEntries bounds the total cached PLIs (<= 0 selects
// DefaultCacheEntries); maxBytes budgets their approximate heap (0 selects
// DefaultCacheBytes, < 0 disables the byte budget).
func newCache(workers, maxEntries int, maxBytes int64) *cache {
	n := 1
	for n < parallel.Workers(workers) {
		n <<= 1
	}
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	switch {
	case maxBytes == 0:
		maxBytes = DefaultCacheBytes
	case maxBytes < 0:
		maxBytes = 0
	}
	perShard := max(maxEntries/n, 1)
	perShardBytes := maxBytes / int64(n)
	if maxBytes > 0 && perShardBytes < 1 {
		perShardBytes = 1
	}
	c := &cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].entries = make(map[bitset.Set]*PLI)
		c.shards[i].maxEntries = perShard
		c.shards[i].maxBytes = perShardBytes
	}
	return c
}

// get returns the cached PLI of s, if present.
func (c *cache) get(s bitset.Set) (*PLI, bool) {
	if c.mask == 0 {
		return c.shards[0].get(s)
	}
	sh := &c.shards[s.Hash()&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.get(s)
}

// put stores the PLI of s, evicting other entries if needed.
func (c *cache) put(s bitset.Set, pli *PLI) {
	if c.mask == 0 {
		c.shards[0].put(s, pli)
		return
	}
	sh := &c.shards[s.Hash()&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.put(s, pli)
}

// stats fills the cache's share of a CacheStats snapshot: probe counters,
// entry count and byte ledger, summed over the shards.
func (c *cache) stats(st *CacheStats) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
}

// entry is one cached set and its PLI, as handed out by drain.
type entry struct {
	set bitset.Set
	pli *PLI
}

// drain removes every entry and returns them, leaving the probe and
// eviction counters untouched. It exists so Refresh can re-Put patched PLIs
// into an empty cache: a dropped re-Put then leaves a miss, never the stale
// pre-append PLI.
func (c *cache) drain() []entry {
	var out []entry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for s, pli := range sh.entries {
			out = append(out, entry{s, pli})
		}
		clear(sh.entries)
		sh.bytes = 0
		sh.mu.Unlock()
	}
	return out
}

func (sh *shard) get(s bitset.Set) (*PLI, bool) {
	pli, ok := sh.entries[s]
	if ok {
		sh.hits++
	} else {
		sh.misses++
	}
	return pli, ok
}

// put evicts roughly half the entries when the entry bound is hit and sheds
// entries when the byte budget is exceeded. A replaced entry is retired
// first, so the new PLI passes the same oversize refusal as a fresh store.
func (sh *shard) put(s bitset.Set, pli *PLI) {
	if old, ok := sh.entries[s]; ok {
		sh.bytes -= old.ApproxBytes()
		delete(sh.entries, s)
	}
	sz := pli.ApproxBytes()
	if sh.maxBytes > 0 && sz > sh.maxBytes {
		// This single PLI would blow the whole budget: never cache it. The
		// Provider recomputes it when needed — slower, never OOM.
		sh.evictions++
		return
	}
	if len(sh.entries) >= sh.maxEntries {
		drop := len(sh.entries) / 2
		for k, v := range sh.entries {
			if drop == 0 {
				break
			}
			sh.bytes -= v.ApproxBytes()
			delete(sh.entries, k)
			sh.evictions++
			drop--
		}
	}
	sh.entries[s] = pli
	sh.bytes += sz
	sh.shedOver(s)
}

// shedOver drops entries (never keep itself) until the byte budget holds
// again. Map iteration order serves as the random replacement choice, as in
// the entry-bound eviction.
func (sh *shard) shedOver(keep bitset.Set) {
	if sh.maxBytes <= 0 {
		return
	}
	for k, v := range sh.entries {
		if sh.bytes <= sh.maxBytes {
			return
		}
		if k == keep {
			continue
		}
		sh.bytes -= v.ApproxBytes()
		delete(sh.entries, k)
		sh.evictions++
	}
}
