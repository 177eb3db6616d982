package pli

import (
	"testing"

	"holistic/internal/bitset"
)

// TestApproxBytesModel pins the byte-accounting model the memory governor
// budgets against: 96 bytes of struct overhead plus four bytes per stored
// row id and per offset entry. For the flat layout this is exact up to the
// struct constant.
func TestApproxBytesModel(t *testing.T) {
	// One cluster of 10 rows: 96 + 4*(10 rows + 2 offsets).
	if got := FromAllRows(10).ApproxBytes(); got != 144 {
		t.Errorf("FromAllRows(10).ApproxBytes() = %d, want 144", got)
	}
	// Single-row relations strip to zero clusters: struct overhead only.
	if got := FromAllRows(1).ApproxBytes(); got != 96 {
		t.Errorf("FromAllRows(1).ApproxBytes() = %d, want 96", got)
	}
	// Two clusters of 3: 96 + 4*(6 rows + 3 offsets).
	p := FromColumn([]int32{0, 1, 0, 1, 0, 1}, 2)
	if got := p.ApproxBytes(); got != 132 {
		t.Errorf("two-cluster ApproxBytes() = %d, want 132", got)
	}
}

// TestMapCacheBudgetSheds fills a byte-budgeted cache past its budget and
// checks the invariant the governor relies on: Bytes() never exceeds the
// budget after a Put, shed entries are counted as evictions, and the most
// recent store is retained.
func TestMapCacheBudgetSheds(t *testing.T) {
	// Each FromAllRows(10) PLI costs 144 bytes; a 300-byte budget holds two.
	c := newCache(1, 64, 300)
	for i := 0; i < 5; i++ {
		s := bitset.New(i, i+1)
		c.put(s, FromAllRows(10))
		if b := cacheStats(c).Bytes; b > 300 {
			t.Fatalf("after put %d: Bytes = %d, budget is 300", i, b)
		}
		if _, ok := c.get(s); !ok {
			t.Fatalf("put %d was shed immediately despite fitting the budget", i)
		}
	}
	st := cacheStats(c)
	if st.Entries > 2 {
		t.Errorf("Entries = %d, want <= 2 under a two-entry byte budget", st.Entries)
	}
	if st.Evictions < 3 {
		t.Errorf("evictions = %d, want >= 3 (five puts, two slots)", st.Evictions)
	}
}

// TestMapCacheOversizePLINeverCached checks the OOM guard: a single PLI
// larger than the whole budget is refused outright instead of evicting
// everything else to make room that still would not suffice.
func TestMapCacheOversizePLINeverCached(t *testing.T) {
	c := newCache(1, 64, 200)
	small := bitset.New(0, 1)
	c.put(small, FromAllRows(10)) // 144 bytes, fits
	c.put(bitset.New(2, 3), FromAllRows(1000))
	if n := cacheStats(c).Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1 (oversize PLI must be refused)", n)
	}
	if _, ok := c.get(small); !ok {
		t.Fatal("refusing the oversize PLI evicted an innocent resident entry")
	}
	if e := cacheStats(c).Evictions; e != 1 {
		t.Errorf("evictions = %d, want 1 (the refused store)", e)
	}
}

// TestMapCacheBudgetReplaceAccounting replaces a key with a differently sized
// PLI and checks the byte ledger tracks the delta, not the sum — and that a
// replacement larger than the whole budget is refused like a fresh store,
// taking the replaced entry with it.
func TestMapCacheBudgetReplaceAccounting(t *testing.T) {
	for _, tc := range []struct {
		budget               int64
		first, second        int // FromAllRows sizes of the two stores
		wantBytes            int64
		wantEntries, wantEvs int
	}{
		{1 << 20, 10, 20, 184, 1, 0}, // 144 → 184 bytes
		{200, 2, 100, 0, 0, 1},       // 112 → 504 bytes: oversize
	} {
		c := newCache(1, 64, tc.budget)
		s := bitset.New(0, 1)
		c.put(s, FromAllRows(tc.first))
		c.put(s, FromAllRows(tc.second))
		st := cacheStats(c)
		if st.Bytes != tc.wantBytes || st.Entries != tc.wantEntries || st.Evictions != int64(tc.wantEvs) {
			t.Errorf("budget %d, replace %d-row PLI with %d-row: bytes/entries/evictions = %d/%d/%d, want %d/%d/%d",
				tc.budget, tc.first, tc.second, st.Bytes, st.Entries, st.Evictions,
				tc.wantBytes, tc.wantEntries, tc.wantEvs)
		}
	}
}

// TestUnbudgetedMapCacheBytes checks byte accounting stays correct with no
// budget set (the governor reads Bytes() for stats even when not enforcing).
func TestUnbudgetedMapCacheBytes(t *testing.T) {
	c := newCache(1, 64, -1)
	var want int64
	for i := 0; i < 4; i++ {
		p := FromAllRows(10 + i)
		want += p.ApproxBytes()
		c.put(bitset.New(i, i+1), p)
	}
	if got := cacheStats(c).Bytes; got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

// TestMapCacheBudgetDefault checks the byte-budget sentinel shared with
// core.Options.MaxCacheBytes: zero selects DefaultCacheBytes, a negative
// budget disables budgeting (a shard's 0), and the budget is split equally
// across the shards.
func TestMapCacheBudgetDefault(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		maxBytes  int64
		wantShard int64
	}{
		{1, 0, DefaultCacheBytes},
		{1, -1, 0},
		{1, 500, 500},
		{4, 0, DefaultCacheBytes / 4},
		{4, -1, 0},
	} {
		c := newCache(tc.workers, 0, tc.maxBytes)
		for i := range c.shards {
			if got := c.shards[i].maxBytes; got != tc.wantShard {
				t.Errorf("newCache(%d, 0, %d): shard %d budget %d, want %d",
					tc.workers, tc.maxBytes, i, got, tc.wantShard)
			}
		}
	}
}

// TestShardedCacheBudgetSplit checks the total byte budget is enforced across
// shards: after hammering every shard, the aggregate Bytes() stays within the
// configured total.
func TestShardedCacheBudgetSplit(t *testing.T) {
	const budget = 4 << 10
	c := newCache(4, 1<<10, budget)
	for i := 0; i < 200; i++ {
		c.put(bitset.New(i%32, i%32+1+i/32), FromAllRows(50))
	}
	st := cacheStats(c)
	if st.Bytes <= 0 || st.Bytes > budget {
		t.Errorf("aggregate Bytes = %d, want in (0, %d]", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite overflowing the byte budget")
	}
}
