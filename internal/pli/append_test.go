package pli

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

// canonicalClusters returns a PLI's clusters with rows sorted within each
// cluster and clusters sorted by first row — the order-independent view that
// every PLI consumer (uniqueness, refinement, error sums) observes.
func canonicalClusters(p *PLI) [][]int32 {
	var out [][]int32
	p.ForEachCluster(func(c []int32) {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		out = append(out, cc)
	})
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func appendTestRelation(t *testing.T, rng *rand.Rand, rows, cols int, card int) *relation.Relation {
	t.Helper()
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(card+c))
		}
		data[i] = row
	}
	rel, err := relation.New("t", names, data)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// fromScratch builds the PLI of cols over rel by chaining intersections.
func fromScratch(rel *relation.Relation, cols []int) *PLI {
	cur := FromColumn(rel.Column(cols[0]), rel.Cardinality(cols[0]))
	for _, c := range cols[1:] {
		cur = cur.IntersectColumn(rel.Column(c), rel.Cardinality(c))
	}
	return cur
}

// TestAppendRowsMergeEquivalence drives the merge path over random relations
// and batches: for every multi-column set, the patched PLI must hold exactly
// the clusters of a from-scratch build on the extended relation.
func TestAppendRowsMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nCols := 2 + rng.Intn(3)
		rel := appendTestRelation(t, rng, 20+rng.Intn(60), nCols, 2+rng.Intn(6))
		oldRows := rel.NumRows()

		// Build old PLIs for every 2+-column subset before the append.
		var subsets [][]int
		for s := 3; s < 1<<nCols; s++ {
			var set bitset.Set
			var ids []int
			for c := 0; c < nCols; c++ {
				if s&(1<<c) != 0 {
					set = set.With(c)
					ids = append(ids, c)
				}
			}
			if set.Len() >= 2 {
				subsets = append(subsets, ids)
			}
		}
		old := make(map[string]*PLI, len(subsets))
		for _, ids := range subsets {
			old[fmt.Sprint(ids)] = fromScratch(rel, ids)
		}

		// Append a batch mixing repeats of existing combos and fresh values.
		batch := make([][]string, 3+rng.Intn(10))
		for i := range batch {
			if rng.Intn(2) == 0 && oldRows > 0 {
				batch[i] = rel.Row(rng.Intn(oldRows))
				if rng.Intn(2) == 0 {
					batch[i] = append([]string(nil), batch[i]...)
					batch[i][rng.Intn(nCols)] = fmt.Sprintf("n%d", rng.Intn(4))
				}
			} else {
				row := make([]string, nCols)
				for c := range row {
					row[c] = fmt.Sprintf("n%d", rng.Intn(4))
				}
				batch[i] = row
			}
		}
		if _, err := rel.Append(batch); err != nil {
			t.Fatal(err)
		}

		singles := make([]*PLI, nCols)
		for c := 0; c < nCols; c++ {
			singles[c] = FromColumn(rel.Column(c), rel.Cardinality(c))
		}
		a := NewAppender(rel, oldRows, singles)
		s := NewScratch()
		s.Ensure(rel.MaxCardinality())
		for _, ids := range subsets {
			got := old[fmt.Sprint(ids)].AppendRows(a, ids, s)
			want := fromScratch(rel, ids)
			if got.NumRows() != want.NumRows() {
				t.Fatalf("trial %d set %v: nRows %d want %d", trial, ids, got.NumRows(), want.NumRows())
			}
			if !reflect.DeepEqual(canonicalClusters(got), canonicalClusters(want)) {
				t.Fatalf("trial %d set %v: clusters differ\ngot  %v\nwant %v",
					trial, ids, canonicalClusters(got), canonicalClusters(want))
			}
			if got.ErrorSum() != want.ErrorSum() || got.DistinctCount() != want.DistinctCount() {
				t.Fatalf("trial %d set %v: stats differ", trial, ids)
			}
		}
	}
}

// TestAppendRowsRebuildFallback pins the fallback path to the same answer as
// the merge path.
func TestAppendRowsRebuildFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := appendTestRelation(t, rng, 50, 3, 3)
	oldRows := rel.NumRows()
	ids := []int{0, 1, 2}
	oldPLI := fromScratch(rel, ids)
	batch := make([][]string, 8)
	for i := range batch {
		batch[i] = []string{"a", "b", fmt.Sprintf("x%d", i%3)}
	}
	if _, err := rel.Append(batch); err != nil {
		t.Fatal(err)
	}
	singles := make([]*PLI, 3)
	for c := range singles {
		singles[c] = FromColumn(rel.Column(c), rel.Cardinality(c))
	}
	a := NewAppender(rel, oldRows, singles)
	s := NewScratch()
	s.Ensure(rel.MaxCardinality())
	merged := oldPLI.AppendRows(a, ids, s)
	rebuilt := a.rebuild(ids, s)
	if !reflect.DeepEqual(canonicalClusters(merged), canonicalClusters(rebuilt)) {
		t.Fatalf("merge and rebuild disagree:\nmerge   %v\nrebuild %v",
			canonicalClusters(merged), canonicalClusters(rebuilt))
	}
}

// TestProviderRefresh pins the full provider patch: after an append and a
// Refresh, every previously cached set answers exactly like a fresh provider
// over the extended relation, and the cache byte ledger matches the patched
// contents.
func TestProviderRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cacheKind := range []string{"map", "sharded"} {
		t.Run(cacheKind, func(t *testing.T) {
			rel := appendTestRelation(t, rng, 80, 4, 4)
			var cache Cache
			switch cacheKind {
			case "map":
				cache = NewMapCache(0)
			default:
				cache = NewShardedCache(4, 0)
			}
			p := NewProviderWithCache(rel, cache)
			sets := []bitset.Set{
				bitset.Single(0).With(1),
				bitset.Single(1).With(2).With(3),
				bitset.Single(0).With(2),
				bitset.Single(0).With(1).With(2).With(3),
			}
			for _, s := range sets {
				p.Get(s)
			}
			oldRows := rel.NumRows()
			batch := [][]string{
				{"v0", "v1", "v2", "fresh"},
				{"v0", "v1", "v2", "fresh"},
				{"z", "z", "z", "z"},
			}
			if _, err := rel.Append(batch); err != nil {
				t.Fatal(err)
			}
			p.Refresh(oldRows)

			fresh := NewProvider(rel, 0)
			for _, s := range sets {
				if !reflect.DeepEqual(canonicalClusters(p.Get(s)), canonicalClusters(fresh.Get(s))) {
					t.Fatalf("set %v: patched provider disagrees with fresh provider", s)
				}
			}
			for c := 0; c < rel.NumColumns(); c++ {
				if !reflect.DeepEqual(canonicalClusters(p.SingleColumn(c)), canonicalClusters(fresh.SingleColumn(c))) {
					t.Fatalf("single column %d not rebuilt", c)
				}
			}
			// The byte ledger must equal a re-summation of the cached PLIs.
			var want int64
			cache.ForEach(func(_ bitset.Set, q *PLI) bool {
				want += q.ApproxBytes()
				return true
			})
			if got := cache.Bytes(); got != want {
				t.Fatalf("cache bytes ledger %d, recomputed %d", got, want)
			}
		})
	}
}
