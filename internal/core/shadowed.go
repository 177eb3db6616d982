package core

import (
	"holistic/internal/bitset"
	"holistic/internal/settrie"
)

// This file keeps Algorithm 3 of the paper (Sec. 5.3): stripping minimal
// UCCs out of a candidate left-hand side. The shadowed-FD phase it served
// (Algorithms 2 and 4) is not part of the FD pipeline — the per-RHS walks
// find the same FDs, see DESIGN.md — so removeUCCs is the executable form of
// the paper's algorithm, exercised by the unit tests.

// removeUCCBranchLimit bounds the branch-and-strip enumeration of
// Algorithm 3. Left-hand sides can contain hundreds of minimal UCCs on
// key-dense datasets, making the exact enumeration exponential; the bound
// keeps it deterministic and cheap.
const removeUCCBranchLimit = 2048

// removeUCCs implements Algorithm 3: split a left-hand side into the maximal
// reduced left-hand sides that contain no complete minimal UCC (a left-hand
// side containing a UCC can never yield a minimal FD). For every contained
// UCC one of its columns must be dropped; the branching enumerates the
// alternatives, bounded by removeUCCBranchLimit expansions.
func (m *mudsFD) removeUCCs(lhs bitset.Set) []bitset.Set {
	contained := m.uccs.SubsetsOf(lhs)
	if len(contained) == 0 {
		return []bitset.Set{lhs}
	}
	var acc settrie.MaximalFamily
	type task struct {
		pos     int
		removed bitset.Set
	}
	queue := []task{{}}
	budget := removeUCCBranchLimit
	for len(queue) > 0 && budget > 0 {
		budget--
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if t.pos >= len(contained) {
			acc.Add(lhs.Diff(t.removed))
			continue
		}
		u := contained[t.pos]
		if t.removed.Intersects(u) {
			// This UCC is already broken by an earlier removal.
			queue = append(queue, task{pos: t.pos + 1, removed: t.removed})
			continue
		}
		for c := u.First(); c >= 0; c = u.NextAfter(c) {
			queue = append(queue, task{pos: t.pos + 1, removed: t.removed.With(c)})
		}
	}
	out := acc.All()
	bitset.Sort(out)
	return out
}
