// Package fd implements functional dependency discovery: the TANE and FUN
// baselines (paper Secs. 2.3 and 3.2) and a brute-force oracle for tests.
// FUN doubles as the FD part of Holistic FUN: it returns the minimal UCCs
// (its keys) alongside the minimal FDs, which by Lemma 3 of the paper it
// must traverse anyway.
//
// All algorithms emit the complete set of *minimal, non-trivial* FDs,
// including constant columns as FDs with an empty left-hand side (∅ → A).
package fd

import (
	"cmp"
	"fmt"
	"slices"

	"holistic/internal/bitset"
	"holistic/internal/pli"
)

// FD is a minimal functional dependency LHS → RHS with a single right-hand
// side attribute. A constant column A is represented as ∅ → A.
type FD struct {
	LHS bitset.Set
	RHS int
}

// String formats the FD in the paper's letter notation, e.g. "AF → B".
func (f FD) String() string {
	rhs := fmt.Sprintf("col%d", f.RHS)
	if f.RHS < 26 {
		rhs = string(rune('A' + f.RHS))
	}
	return fmt.Sprintf("%v → %s", f.LHS, rhs)
}

// Sort orders FDs by (LHS, RHS) for deterministic output and comparisons.
func Sort(fds []FD) {
	slices.SortFunc(fds, func(x, y FD) int {
		switch {
		case x.LHS == y.LHS:
			return cmp.Compare(x.RHS, y.RHS)
		case bitset.Less(x.LHS, y.LHS):
			return -1
		default:
			return 1
		}
	})
}

// Store collects FDs grouped by left-hand side, the map(lhs → rhs-set)
// representation of the paper's MUDS pseudocode.
type Store struct {
	byLHS map[bitset.Set]bitset.Set
	count int
}

// NewStore returns an empty FD store.
func NewStore() *Store {
	return &Store{byLHS: make(map[bitset.Set]bitset.Set)}
}

// Add records lhs → rhs. Trivial FDs (rhs ∈ lhs) are rejected with a panic:
// no discovery algorithm may produce them.
func (s *Store) Add(lhs bitset.Set, rhs int) {
	if lhs.Has(rhs) {
		panic(fmt.Sprintf("fd: trivial FD %v → %d", lhs, rhs))
	}
	prev := s.byLHS[lhs]
	next := prev.With(rhs)
	if next != prev {
		s.byLHS[lhs] = next
		s.count++
	}
}

// AddAll records lhs → A for every A in rhs.
func (s *Store) AddAll(lhs bitset.Set, rhs bitset.Set) {
	rhs.ForEach(func(a int) { s.Add(lhs, a) })
}

// Remove deletes lhs → rhs if present and reports whether it was stored.
func (s *Store) Remove(lhs bitset.Set, rhs int) bool {
	prev, ok := s.byLHS[lhs]
	if !ok || !prev.Has(rhs) {
		return false
	}
	next := prev.Without(rhs)
	if next.IsEmpty() {
		delete(s.byLHS, lhs)
	} else {
		s.byLHS[lhs] = next
	}
	s.count--
	return true
}

// Count returns the number of FDs (lhs, single rhs attribute) stored.
func (s *Store) Count() int { return s.count }

// LHSs returns all left-hand sides in deterministic order.
func (s *Store) LHSs() []bitset.Set {
	out := make([]bitset.Set, 0, len(s.byLHS))
	for lhs := range s.byLHS {
		out = append(out, lhs)
	}
	bitset.Sort(out)
	return out
}

// All returns the stored FDs sorted (nil when empty).
func (s *Store) All() []FD {
	if s.count == 0 {
		return nil
	}
	out := make([]FD, 0, s.count)
	for lhs, rhs := range s.byLHS {
		rhs.ForEach(func(a int) {
			out = append(out, FD{LHS: lhs, RHS: a})
		})
	}
	Sort(out)
	return out
}

// ForEach visits every (lhs, rhs-set) pair in deterministic order.
func (s *Store) ForEach(fn func(lhs, rhs bitset.Set) bool) {
	for _, lhs := range s.LHSs() {
		if !fn(lhs, s.byLHS[lhs]) {
			return
		}
	}
}

// ConstantColumns returns the set of columns with at most one distinct
// value. Such columns are exactly the FDs with empty left-hand side; every
// FD algorithm extracts them up front and excludes them from lattice work
// (X → A is never minimal for constant A and non-empty X, and a constant
// column inside a left-hand side never contributes).
func ConstantColumns(p *pli.Provider) bitset.Set {
	var s bitset.Set
	rel := p.Relation()
	for c := 0; c < rel.NumColumns(); c++ {
		if rel.Cardinality(c) <= 1 {
			s = s.With(c)
		}
	}
	return s
}

// Result is the output of an FD discovery run.
type Result struct {
	// FDs are the minimal non-trivial FDs, sorted.
	FDs []FD
	// MinimalUCCs are the minimal unique column combinations encountered as
	// keys during discovery. FUN fills this (Holistic FUN, paper Sec. 3.2);
	// TANE leaves it empty unless collection is requested.
	MinimalUCCs []bitset.Set
	// Checks counts FD validity checks (partition refinements or cardinality
	// comparisons) that required actual PLI work.
	Checks int
}
