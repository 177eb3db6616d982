package core

import (
	"reflect"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

func testFD(t *testing.T) *mudsFD {
	t.Helper()
	rel := relation.MustNew("t", []string{"A", "B", "C", "D"}, [][]string{
		{"1", "x", "p", "q"},
		{"2", "x", "p", "r"},
		{"3", "y", "q", "q"},
	})
	p := pli.NewProvider(rel, 0)
	return newMudsFD(p, rel.AllColumns(), []bitset.Set{bitset.New(0)}, fd.NewStore(), 1)
}

// storeHas reports whether the store holds lhs → a.
func storeHas(s *fd.Store, lhs bitset.Set, a int) bool {
	for _, f := range s.All() {
		if f.LHS == lhs && f.RHS == a {
			return true
		}
	}
	return false
}

func TestEmitDeduplicates(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2)
	m.emit(bitset.FromLetters("B"), 2) // duplicate ignored
	if m.store.Count() != 1 {
		t.Errorf("Count = %d, want 1", m.store.Count())
	}
	if fam := m.lhsFamily(2); fam.Len() != 1 || !fam.Contains(bitset.FromLetters("B")) {
		t.Errorf("lhs family of C holds %d sets, want exactly {B}", fam.Len())
	}
}

func TestCanonicalLHS(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2) // B → C known
	// BC canonicalises to B (C is determined by the rest).
	if got := m.canonicalLHS(bitset.FromLetters("BC")); got != bitset.FromLetters("B") {
		t.Errorf("canonicalLHS(BC) = %v, want B", got)
	}
	// Nothing to remove without applicable FDs.
	if got := m.canonicalLHS(bitset.FromLetters("AD")); got != bitset.FromLetters("AD") {
		t.Errorf("canonicalLHS(AD) = %v, want AD", got)
	}
}

func TestRemoveUCCsBranchLimit(t *testing.T) {
	// Many overlapping UCCs inside the lhs: the enumeration must stay
	// bounded and every returned set must be UCC-free.
	store := fd.NewStore()
	var uccs []bitset.Set
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			uccs = append(uccs, bitset.New(a, b))
		}
	}
	m := newMudsFD(nil, bitset.Full(12), uccs, store, 0)
	out := m.removeUCCs(bitset.Full(10))
	if len(out) == 0 {
		t.Fatal("removeUCCs returned no reduced lhs")
	}
	for _, r := range out {
		if m.uccs.CoversSubsetOf(r) {
			t.Errorf("reduced lhs %v still contains a UCC", r)
		}
	}
	// The enumeration is deterministic.
	if !reflect.DeepEqual(m.removeUCCs(bitset.Full(10)), out) {
		t.Error("repeated call returned a different result")
	}
}
