package settrie

import (
	"math/rand"
	"testing"

	"holistic/internal/bitset"
)

func benchSets(n, cols int, seed int64) []bitset.Set {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]bitset.Set, n)
	for i := range out {
		var s bitset.Set
		for c := 0; c < cols; c++ {
			if rnd.Intn(4) == 0 {
				s = s.With(c)
			}
		}
		if s.IsEmpty() {
			s = s.With(rnd.Intn(cols))
		}
		out[i] = s
	}
	return out
}

// BenchmarkSubsetLookup measures the Sec. 5.4 prefix-tree subset query
// (the minimal UCCs inside a candidate left-hand side, as in Algorithm 3).
func BenchmarkSubsetLookup(b *testing.B) {
	var tr Trie
	for _, s := range benchSets(2000, 20, 1) {
		tr.Add(s)
	}
	queries := benchSets(64, 20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ContainsSubsetOf(queries[i%len(queries)])
	}
}

// BenchmarkSupersetLookup measures the connector look-up (Sec. 5.1).
func BenchmarkSupersetLookup(b *testing.B) {
	var tr Trie
	for _, s := range benchSets(2000, 20, 1) {
		tr.Add(s)
	}
	queries := benchSets(64, 20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SupersetsOf(queries[i%len(queries)])
	}
}

// BenchmarkMinimalFamilyAdd measures antichain maintenance, the store
// operation behind every certificate insertion.
func BenchmarkMinimalFamilyAdd(b *testing.B) {
	sets := benchSets(4096, 24, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f MinimalFamily
		for _, s := range sets {
			f.Add(s)
		}
	}
}
