package core

import (
	"holistic/internal/bitset"
	"holistic/internal/parallel"
	"holistic/internal/walker"
)

// This file implements the first of MUDS's two FD phases (paper Secs. 4.2
// and 5.2), calculateRZ: FDs whose right-hand side lies in R \ Z, the
// columns outside every minimal UCC. For each such right-hand side A one
// sub-lattice over R \ {A} is traversed with the DUCC-style random walk; "X
// determines A" is a monotone predicate, so downward pruning of non-FDs
// (Lemma 4) and upward pruning of supersets of found left-hand sides both
// apply, and unvisited holes are filled by the hitting-set duality — all
// provided by the shared lattice walker. It also holds walkEach, the per-RHS
// fan-out that calculateRZ and the completion sweep (sweep.go) share.
//
// The walks of different right-hand sides are independent: each one reads
// the shared PLI provider (concurrency-safe when the engine runs with
// workers > 1), its own false certificates (the sweep's, computed before the
// fan-out), and the per-RHS FD families — which are only *read* during a
// walk (via canonicalLHS) and only *written* by the ordered emission pass
// after the pool drains. Each walk therefore runs as one worker-pool task
// writing its outcome into an indexed slot; the emissions are applied in
// right-hand-side order, so the discovered FD set is identical for every
// worker count. The walk results themselves are scheduling-independent
// anyway: canonicalLHS preserves closures, so predicate values — and with
// them the seed-driven walk — do not depend on which FDs other walks have
// already found.

// calculateRZ discovers all minimal FDs with right-hand side in R \ Z. The
// walks start without certificates.
func (m *mudsFD) calculateRZ() {
	m.walkEach(m.rzColumns().Columns(), nil)
}

// walkEach runs one sub-lattice walk per right-hand side in cols across the
// worker pool, seeding walk i with knownFalse[i] (knownFalse may be nil),
// and applies the outcomes in RHS order once the pool drains.
func (m *mudsFD) walkEach(cols []int, knownFalse [][]bitset.Set) {
	walks := make([]walkOutcome, len(cols))
	parallel.For(m.ctx, m.workerCount(), len(cols), func(i int) {
		var seeds []bitset.Set
		if knownFalse != nil {
			seeds = knownFalse[i]
		}
		walks[i] = m.walkRHS(cols[i], seeds)
	})
	for i, a := range cols {
		m.applyWalk(a, walks[i])
	}
}

// walkOutcome is the result of one per-RHS sub-lattice walk, produced by a
// worker-pool task and applied to the shared state in RHS order afterwards.
type walkOutcome struct {
	minimal []bitset.Set // verified-minimal left-hand sides (nil on error)
	checks  int
}

// walkRHS runs the sub-lattice walk for one right-hand side and returns the
// minimal left-hand sides found. knownFalse seeds the walk with certified
// non-FDs (used by the completion sweep; nil for the plain R\Z phase). It
// only reads shared state, so walks of distinct right-hand sides may run
// concurrently.
func (m *mudsFD) walkRHS(a int, knownFalse []bitset.Set) walkOutcome {
	base := m.working.Without(a)
	pred := func(s bitset.Set) bool {
		// Known-FD pruning (paper Sec. 5.2): drop attributes of s that are
		// determined by the rest of s before touching PLIs — the canonical
		// set has the same closure and a cheaper fold plan. CheckFD answers
		// on the validation fast path without materialising the lhs PLI.
		return m.p.CheckFD(m.canonicalLHS(s), a)
	}
	res, err := walker.RunContext(m.ctx, base, pred, walker.Options{
		Seed:       m.seed + int64(a)*7919,
		KnownFalse: knownFalse,
	})
	out := walkOutcome{checks: res.Checks}
	if err == nil {
		out.minimal = res.MinimalTrue
	}
	return out
}

// applyWalk merges one walk's outcome into the shared state. A cancelled
// walk may report non-minimal left-hand sides; they are discarded rather
// than emitted as unverified FDs into the partial result.
func (m *mudsFD) applyWalk(a int, out walkOutcome) {
	m.checks += out.checks
	for _, lhs := range out.minimal {
		m.emit(lhs, a)
	}
}

// canonicalLHS removes attributes from s that are functionally determined by
// the remaining attributes according to already-emitted FDs ("the
// combination of a left hand side with its right hand side can never be the
// left hand side of an already known minimal FD", Sec. 5.2). The closure is
// unchanged, so predicate values are preserved. It reads the per-RHS
// families without mutating them, which keeps concurrent walks race-free.
func (m *mudsFD) canonicalLHS(s bitset.Set) bitset.Set {
	for {
		reduced := false
		for b := s.First(); b >= 0; b = s.NextAfter(b) {
			rest := s.Without(b)
			if f, ok := m.perRHS[b]; ok && f.CoversSubsetOf(rest) {
				s = rest
				reduced = true
				break
			}
		}
		if !reduced {
			return s
		}
	}
}
