package walker

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
)

// naive computes the minimal true and maximal false sets of a monotone
// predicate by full enumeration.
func naive(base bitset.Set, pred Predicate) ([]bitset.Set, []bitset.Set) {
	var all []bitset.Set
	n := base.Len()
	for k := 1; k <= n; k++ {
		base.SubsetsOfSize(k, func(s bitset.Set) bool {
			all = append(all, s)
			return true
		})
	}
	var minTrue, maxFalse []bitset.Set
	for _, s := range all {
		v := pred(s)
		if v {
			minimal := true
			for _, sub := range s.DirectSubsets() {
				if !sub.IsEmpty() && pred(sub) {
					minimal = false
					break
				}
			}
			if minimal {
				minTrue = append(minTrue, s)
			}
		} else {
			maximal := true
			for _, sup := range s.DirectSupersets(bitset.MaxColumns) {
				if sup.IsSubsetOf(base) && !pred(sup) {
					maximal = false
					break
				}
			}
			if maximal {
				maxFalse = append(maxFalse, s)
			}
		}
	}
	bitset.Sort(minTrue)
	bitset.Sort(maxFalse)
	return minTrue, maxFalse
}

// monotonePred builds a random monotone predicate from generator sets:
// s is true iff it contains one of the generators.
func monotonePred(gens []bitset.Set) Predicate {
	return func(s bitset.Set) bool {
		for _, g := range gens {
			if g.IsSubsetOf(s) {
				return true
			}
		}
		return false
	}
}

func TestSimplePredicate(t *testing.T) {
	base := bitset.FromLetters("ABCD")
	gens := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("C")}
	res := Run(base, monotonePred(gens), Options{Seed: 1})
	wantTrue := []bitset.Set{bitset.FromLetters("C"), bitset.FromLetters("AB")}
	if !reflect.DeepEqual(res.MinimalTrue, wantTrue) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, wantTrue)
	}
	// Maximal false: ABD minus... sets avoiding C and not containing AB:
	// {A,B,D} without both A and B: AD, BD are false, ABD contains AB → true.
	wantFalse := []bitset.Set{bitset.FromLetters("AD"), bitset.FromLetters("BD")}
	if !reflect.DeepEqual(res.MaximalFalse, wantFalse) {
		t.Errorf("MaximalFalse = %v, want %v", res.MaximalFalse, wantFalse)
	}
}

func TestAllTrue(t *testing.T) {
	base := bitset.FromLetters("ABC")
	res := Run(base, func(bitset.Set) bool { return true }, Options{Seed: 0})
	want := []bitset.Set{bitset.FromLetters("A"), bitset.FromLetters("B"), bitset.FromLetters("C")}
	if !reflect.DeepEqual(res.MinimalTrue, want) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, want)
	}
	if len(res.MaximalFalse) != 0 {
		t.Errorf("MaximalFalse = %v, want none", res.MaximalFalse)
	}
}

func TestAllFalse(t *testing.T) {
	base := bitset.FromLetters("ABC")
	res := Run(base, func(bitset.Set) bool { return false }, Options{Seed: 0})
	if len(res.MinimalTrue) != 0 {
		t.Errorf("MinimalTrue = %v, want none", res.MinimalTrue)
	}
	if !reflect.DeepEqual(res.MaximalFalse, []bitset.Set{base}) {
		t.Errorf("MaximalFalse = %v, want [%v]", res.MaximalFalse, base)
	}
}

func TestEmptyBase(t *testing.T) {
	res := Run(bitset.Set{}, func(bitset.Set) bool { return true }, Options{})
	if len(res.MinimalTrue) != 0 || len(res.MaximalFalse) != 0 || res.Checks != 0 {
		t.Errorf("empty base should produce empty result, got %+v", res)
	}
}

func TestKnownCertificatesReduceChecks(t *testing.T) {
	base := bitset.FromLetters("ABCDE")
	gens := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("CD")}
	pred := monotonePred(gens)

	plain := Run(base, pred, Options{Seed: 7})
	seeded := Run(base, pred, Options{
		Seed:      7,
		KnownTrue: []bitset.Set{bitset.FromLetters("ABE")},
		// DE is genuinely false (contains neither AB nor CD).
		KnownFalse: []bitset.Set{bitset.FromLetters("DE")},
	})
	if !reflect.DeepEqual(plain.MinimalTrue, seeded.MinimalTrue) {
		t.Errorf("seeded MinimalTrue = %v, want %v", seeded.MinimalTrue, plain.MinimalTrue)
	}
	if !reflect.DeepEqual(plain.MaximalFalse, seeded.MaximalFalse) {
		t.Errorf("seeded MaximalFalse = %v, want %v", seeded.MaximalFalse, plain.MaximalFalse)
	}
}

func TestNonFullBase(t *testing.T) {
	// Base restricted to BCD within a wider column space: results must stay
	// inside the base.
	base := bitset.FromLetters("BCD")
	gens := []bitset.Set{bitset.FromLetters("BD")}
	res := Run(base, monotonePred(gens), Options{Seed: 3})
	if !reflect.DeepEqual(res.MinimalTrue, gens) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, gens)
	}
	for _, m := range res.MaximalFalse {
		if !m.IsSubsetOf(base) {
			t.Errorf("MaximalFalse %v escapes base %v", m, base)
		}
	}
}

func TestMinimalHittingSets(t *testing.T) {
	// Families {A,B}, {B,C}: minimal hitting sets are {B}, {A,C}.
	fams := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("BC")}
	got := MinimalHittingSets(fams, bitset.Full(3))
	want := []bitset.Set{bitset.FromLetters("B"), bitset.FromLetters("AC")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hitting sets = %v, want %v", got, want)
	}
	// An empty family set can never be hit.
	if got := MinimalHittingSets([]bitset.Set{{}}, bitset.Full(3)); got != nil {
		t.Errorf("hitting sets with empty member = %v, want nil", got)
	}
	// No constraints: the empty set is the unique minimal hitting set.
	if got := MinimalHittingSets(nil, bitset.Full(3)); len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("hitting sets of empty family = %v", got)
	}
}

// Property: the hitting-set enumeration agrees with full enumeration of the
// monotone predicate "hits every family set" on random families, including
// columns outside base and sets with none inside it.
func TestQuickMinimalHittingSetsMatchesNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			n := 1 + rnd.Intn(9)
			base := bitset.Full(n)
			var fams []bitset.Set
			for i := 0; i < 1+rnd.Intn(12); i++ {
				var f bitset.Set
				for c := 0; c <= n; c++ { // column n lies outside base
					if rnd.Intn(3) == 0 {
						f = f.With(c)
					}
				}
				if !f.IsEmpty() {
					fams = append(fams, f)
				}
			}
			if len(fams) == 0 {
				fams = append(fams, bitset.Single(0))
			}
			vals[0] = reflect.ValueOf(base)
			vals[1] = reflect.ValueOf(fams)
		},
	}
	if err := quick.Check(func(base bitset.Set, fams []bitset.Set) bool {
		hitsAll := func(s bitset.Set) bool {
			for _, f := range fams {
				if !f.Intersects(s) {
					return false
				}
			}
			return true
		}
		want, _ := naive(base, hitsAll)
		got := MinimalHittingSets(fams, base)
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the walk agrees with full enumeration for random monotone
// predicates, random bases and random seeds.
func TestQuickWalkerMatchesNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 250,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			n := 2 + rnd.Intn(6)
			var base bitset.Set
			for c := 0; c < n; c++ {
				base = base.With(c + rnd.Intn(2)) // occasionally sparse bases
			}
			var gens []bitset.Set
			for i := 0; i < rnd.Intn(5); i++ {
				var g bitset.Set
				base.ForEach(func(c int) {
					if rnd.Intn(3) == 0 {
						g = g.With(c)
					}
				})
				if !g.IsEmpty() {
					gens = append(gens, g)
				}
			}
			vals[0] = reflect.ValueOf(base)
			vals[1] = reflect.ValueOf(gens)
			vals[2] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(base bitset.Set, gens []bitset.Set, seed int64) bool {
		pred := monotonePred(gens)
		res := Run(base, pred, Options{Seed: seed})
		wantTrue, wantFalse := naive(base, pred)
		return reflect.DeepEqual(res.MinimalTrue, wantTrue) &&
			reflect.DeepEqual(res.MaximalFalse, wantFalse)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: seeding with valid certificates never changes the result.
func TestQuickSeedingPreservesResult(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			var gens []bitset.Set
			for i := 0; i < 1+rnd.Intn(4); i++ {
				var g bitset.Set
				for c := 0; c < 5; c++ {
					if rnd.Intn(3) == 0 {
						g = g.With(c)
					}
				}
				if !g.IsEmpty() {
					gens = append(gens, g)
				}
			}
			vals[0] = reflect.ValueOf(gens)
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(gens []bitset.Set, seed int64) bool {
		base := bitset.Full(5)
		pred := monotonePred(gens)
		plain := Run(base, pred, Options{Seed: seed})
		// Seed with every true generator and every maximal false set.
		seeded := Run(base, pred, Options{
			Seed:       seed,
			KnownTrue:  gens,
			KnownFalse: plain.MaximalFalse,
		})
		return reflect.DeepEqual(plain.MinimalTrue, seeded.MinimalTrue) &&
			reflect.DeepEqual(plain.MaximalFalse, seeded.MaximalFalse)
	}, cfg); err != nil {
		t.Error(err)
	}
}
