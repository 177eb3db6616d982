package core

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/settrie"
)

// mudsFD is the state of MUDS' FD discovery part (paper Sec. 5): the shared
// PLI provider handed over from DUCC, the minimal UCCs organised in a prefix
// tree for the pruning rules of Sec. 4, and the FD result store with per-rhs
// minimal-lhs families.
type mudsFD struct {
	// ctx governs cancellation: the per-RHS walks poll it and stop early
	// when it is done.
	ctx     context.Context
	p       *pli.Provider
	working bitset.Set // non-constant columns
	uccs    *settrie.MinimalFamily
	z       bitset.Set // union of all minimal UCCs (Sec. 4)
	store   *fd.Store
	perRHS  map[int]*settrie.MinimalFamily
	checks  int
	seed    int64

	// workers bounds the worker pool of the per-RHS walks; <= 0 selects
	// GOMAXPROCS.
	workers int
}

func newMudsFD(p *pli.Provider, working bitset.Set, minimalUCCs []bitset.Set, store *fd.Store, seed int64) *mudsFD {
	m := &mudsFD{
		ctx:     context.Background(),
		p:       p,
		working: working,
		uccs:    &settrie.MinimalFamily{},
		store:   store,
		perRHS:  make(map[int]*settrie.MinimalFamily),
		seed:    seed,
	}
	for _, u := range minimalUCCs {
		m.uccs.Add(u)
		m.z = m.z.Union(u)
	}
	return m
}

// workerCount resolves the effective pool width for the walk phases.
func (m *mudsFD) workerCount() int { return parallel.Workers(m.workers) }

// run adapts a phase method to timePhase's signature: the phase runs to its
// internal cancellation checks, and the context error (if any) is what the
// engine reports.
func (m *mudsFD) run(phase func()) func() error {
	return func() error {
		phase()
		return m.ctx.Err()
	}
}

// lhsFamily returns the minimal-lhs family for right-hand side a.
func (m *mudsFD) lhsFamily(a int) *settrie.MinimalFamily {
	f, ok := m.perRHS[a]
	if !ok {
		f = &settrie.MinimalFamily{}
		m.perRHS[a] = f
	}
	return f
}

// emit records the verified-minimal FD lhs → a. Each right-hand side is
// walked exactly once and a walk returns an antichain, so no emission
// duplicates or subsumes another; an exact repeat would be a no-op anyway.
func (m *mudsFD) emit(lhs bitset.Set, a int) {
	m.lhsFamily(a).Add(lhs)
	m.store.Add(lhs, a)
}

// connectorLookup implements the look-up of paper Sec. 5.1 (Table 2): the
// union of all minimal UCCs that are supersets of the connector, minus the
// connector itself. The resulting columns are the right-hand-side candidates
// reachable from left-hand sides that connect to the given connector.
//
// Algorithm 1, which this look-up drives, is not part of the FD pipeline
// (the per-RHS walks find the same FDs, see DESIGN.md); the look-up is kept
// as the executable form of the paper's Table 2.
func (m *mudsFD) connectorLookup(connector bitset.Set) bitset.Set {
	var union bitset.Set
	for _, u := range m.uccs.SupersetsOf(connector) {
		union = union.Union(u)
	}
	return union.Diff(connector)
}

// rzColumns returns R \ Z: the working columns in no minimal UCC. By pruning
// rule 2 of Sec. 4, no subset of R \ Z can determine a column of Z.
func (m *mudsFD) rzColumns() bitset.Set {
	return m.working.Diff(m.z)
}
