package core

import (
	"holistic/internal/bitset"
)

// completionSweep discovers all minimal FDs whose right-hand side lies in Z,
// the union of the minimal UCCs: one certificate-seeded sub-lattice walk per
// right-hand side — the same machinery as the R\Z phase, primed with the
// inter-task pruning of paper Sec. 4 (see pruningCertificates). Walking
// every right-hand side of Z returns the complete minimal cover on its own,
// so the paper's Algorithm 1 (minimizeFDs) and the shadowed-FD Algorithms 2
// and 4 are not run (DESIGN.md, deviation 2).
//
// It runs after calculateRZ, so the walks' canonicalLHS already reduces
// candidate left-hand sides by the R\Z FDs.
func (m *mudsFD) completionSweep() {
	zCols := m.z.Columns()
	knownFalse := make([][]bitset.Set, len(zCols))
	for i, a := range zCols {
		knownFalse[i] = m.pruningCertificates(a)
	}
	m.walkEach(zCols, knownFalse)
}

// pruningCertificates returns the false certificates of paper Sec. 4 for
// right-hand side a ∈ Z — left-hand sides none of whose subsets determine a:
//
//   - rule 1: for every minimal UCC V containing a, V\{a} (an FD inside a
//     minimal UCC would contradict its minimality);
//   - rule 2: R\Z (no subset of the columns outside every minimal UCC
//     determines a column of Z).
func (m *mudsFD) pruningCertificates(a int) []bitset.Set {
	var out []bitset.Set
	if rz := m.rzColumns(); !rz.IsEmpty() {
		out = append(out, rz)
	}
	for _, v := range m.uccs.SupersetsOf(bitset.Single(a)) {
		if sub := v.Without(a); !sub.IsEmpty() {
			out = append(out, sub)
		}
	}
	return out
}
