package walker

import (
	"context"
	"math/rand"
	"testing"

	"holistic/internal/bitset"
)

// BenchmarkWalk measures the randomized lattice learning of a monotone
// predicate with a mid-lattice boundary, the workload of DUCC and MUDS'
// sub-lattice phases.
func BenchmarkWalk(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	var gens []bitset.Set
	for i := 0; i < 12; i++ {
		var g bitset.Set
		for c := 0; c < 14; c++ {
			if rnd.Intn(4) == 0 {
				g = g.With(c)
			}
		}
		if g.IsEmpty() {
			g = g.With(rnd.Intn(14))
		}
		gens = append(gens, g)
	}
	pred := func(s bitset.Set) bool {
		for _, g := range gens {
			if g.IsSubsetOf(s) {
				return true
			}
		}
		return false
	}
	base := bitset.Full(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(base, pred, Options{Seed: int64(i)})
		if len(res.MinimalTrue) == 0 {
			b.Fatal("no minimal true sets")
		}
	}
}

// BenchmarkMinimalHittingSets measures the duality computation behind hole
// detection.
func BenchmarkMinimalHittingSets(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	var fams []bitset.Set
	for i := 0; i < 200; i++ {
		var f bitset.Set
		for c := 0; c < 16; c++ {
			if rnd.Intn(3) == 0 {
				f = f.With(c)
			}
		}
		if f.IsEmpty() {
			f = f.With(rnd.Intn(16))
		}
		fams = append(fams, f)
	}
	base := bitset.Full(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hs, _ := MinimalHittingSets(context.Background(), fams, base); len(hs) == 0 {
			b.Fatal("no hitting sets")
		}
	}
}
