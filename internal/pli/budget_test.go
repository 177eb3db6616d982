package pli

import (
	"testing"

	"holistic/internal/bitset"
)

// TestApproxBytesModel pins the byte-accounting model the memory governor
// budgets against: 96 bytes of struct overhead, four bytes per stored row id
// and per offset entry, plus — once materialised — four bytes per relation
// row for the cached attribute vector. For the flat layout this is exact up
// to the struct constant.
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
	// Materialising the attribute vector folds it into the accounting:
	// + 4*6 rows.
	p.ProbeVector()
	if got := p.ApproxBytes(); got != 156 {
		t.Errorf("ApproxBytes() with probe = %d, want 156", got)
	}
}

// TestCacheLedgerStableAcrossProbeMaterialization pins the snapshot-at-Put
// semantics: a PLI whose attribute vector materialises after it was cached
// must not corrupt the byte ledger when it is later replaced or shed —
// evictions subtract exactly what Put added.
func TestCacheLedgerStableAcrossProbeMaterialization(t *testing.T) {
	c := NewMapCacheBudget(64, 1<<20)
	s := bitset.New(0, 1)
	p := FromAllRows(10)
	c.Put(s, p)
	accounted := c.Bytes()
	p.ProbeVector() // grows ApproxBytes after the Put snapshot
	c.Put(s, FromAllRows(10))
	if got := c.Bytes(); got != accounted {
		t.Errorf("Bytes() after replace = %d, want %d (ledger drifted)", got, accounted)
	}
}

// TestMapCacheBudgetSheds fills a byte-budgeted cache past its budget and
// checks the invariant the governor relies on: Bytes() never exceeds the
// budget after a Put, shed entries are counted as evictions, and the most
// recent store is retained.
func TestMapCacheBudgetSheds(t *testing.T) {
	// Each FromAllRows(10) PLI costs 144 bytes; a 300-byte budget holds two.
	c := NewMapCacheBudget(64, 300)
	for i := 0; i < 5; i++ {
		s := bitset.New(i, i+1)
		c.Put(s, FromAllRows(10))
		if c.Bytes() > 300 {
			t.Fatalf("after put %d: Bytes() = %d, budget is 300", i, c.Bytes())
		}
		if _, ok := c.Get(s); !ok {
			t.Fatalf("put %d was shed immediately despite fitting the budget", i)
		}
	}
	if c.Len() > 2 {
		t.Errorf("Len = %d, want <= 2 under a two-entry byte budget", c.Len())
	}
	if _, _, evictions := c.Counters(); evictions < 3 {
		t.Errorf("evictions = %d, want >= 3 (five puts, two slots)", evictions)
	}
}

// TestMapCacheOversizePLINeverCached checks the OOM guard: a single PLI
// larger than the whole budget is refused outright instead of evicting
// everything else to make room that still would not suffice.
func TestMapCacheOversizePLINeverCached(t *testing.T) {
	c := NewMapCacheBudget(64, 200)
	small := bitset.New(0, 1)
	c.Put(small, FromAllRows(10)) // 144 bytes, fits
	c.Put(bitset.New(2, 3), FromAllRows(1000))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (oversize PLI must be refused)", c.Len())
	}
	if _, ok := c.Get(small); !ok {
		t.Fatal("refusing the oversize PLI evicted an innocent resident entry")
	}
	if _, _, evictions := c.Counters(); evictions != 1 {
		t.Errorf("evictions = %d, want 1 (the refused store)", evictions)
	}
}

// TestMapCacheBudgetReplaceAccounting replaces a key with a differently sized
// PLI and checks the byte ledger tracks the delta, not the sum.
func TestMapCacheBudgetReplaceAccounting(t *testing.T) {
	c := NewMapCacheBudget(64, 1<<20)
	s := bitset.New(0, 1)
	c.Put(s, FromAllRows(10)) // 144
	c.Put(s, FromAllRows(20)) // 184
	if got := c.Bytes(); got != 184 {
		t.Errorf("Bytes() after replace = %d, want 184", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 after replacing the same key", c.Len())
	}
}

// TestUnbudgetedMapCacheBytes checks byte accounting stays correct with no
// budget set (the governor reads Bytes() for stats even when not enforcing).
func TestUnbudgetedMapCacheBytes(t *testing.T) {
	c := NewMapCache(64)
	var want int64
	for i := 0; i < 4; i++ {
		p := FromAllRows(10 + i)
		want += p.ApproxBytes()
		c.Put(bitset.New(i, i+1), p)
	}
	if got := c.Bytes(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

// TestMapCacheBudgetDefault checks the sentinel: a negative budget selects
// DefaultCacheBytes, zero disables budgeting.
func TestMapCacheBudgetDefault(t *testing.T) {
	if c := NewMapCacheBudget(0, -1); c.maxBytes != DefaultCacheBytes {
		t.Errorf("maxBytes = %d, want DefaultCacheBytes", c.maxBytes)
	}
	if c := NewMapCacheBudget(0, 0); c.maxBytes != 0 {
		t.Errorf("maxBytes = %d, want 0 (no budget)", c.maxBytes)
	}
}

// TestShardedCacheBudgetSplit checks the total byte budget is enforced across
// shards: after hammering every shard, the aggregate Bytes() stays within the
// configured total.
func TestShardedCacheBudgetSplit(t *testing.T) {
	const budget = 4 << 10
	c := NewShardedCacheBudget(4, 1<<10, budget)
	for i := 0; i < 200; i++ {
		c.Put(bitset.New(i%32, i%32+1+i/32), FromAllRows(50))
	}
	if got := c.Bytes(); got <= 0 || got > budget {
		t.Errorf("aggregate Bytes() = %d, want in (0, %d]", got, budget)
	}
	if _, _, evictions := c.Counters(); evictions == 0 {
		t.Error("no evictions despite overflowing the byte budget")
	}
}
