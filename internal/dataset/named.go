package dataset

import (
	"fmt"
	"sort"

	"holistic/internal/relation"
)

// This file defines the named dataset generators used by the benchmark
// harness, one per dataset of the paper's evaluation (Sec. 6). The comments
// give the shape targets each generator aims for; EXPERIMENTS.md records the
// paper-reported vs. measured dependency counts.

// Uniprot mimics the 10-column slice of the Universal Protein Resource used
// for the row-scalability experiment (Fig. 6): a unique accession column,
// a block of low-cardinality biological attributes, and derived annotation
// columns that plant FDs with overlapping left-hand sides — the structure
// behind the paper's expensive shadowed-FD phase; work scales linearly with
// rows.
func Uniprot(rows int) *relation.Relation { return UniprotSeeded(rows, 0) }

// UniprotSeeded is Uniprot with a generator-seed override; 0 keeps the
// canonical seed, so default outputs stay byte-stable. The same convention
// holds for every *Seeded generator below: the seed shuffles the drawn
// values, not the dependency structure the column specs encode.
func UniprotSeeded(rows int, seed int64) *relation.Relation {
	return Generate(Spec{
		Name: "uniprot",
		Rows: rows,
		Seed: seedOr(seed, 42),
		Columns: []ColumnSpec{
			{Name: "entry_name", Kind: Random, Card: max(rows/3, 8)},
			{Name: "organism", Kind: Zipf, Card: 60},
			{Name: "tax_id", Kind: Derived, Parents: []int{1}, Card: 60, Salt: 1},
			{Name: "gene", Kind: Random, Card: max(rows/20, 8)},
			{Name: "gene_syn", Kind: Derived, Parents: []int{3}, Card: max(rows/25, 6), Salt: 7},
			{Name: "length", Kind: Derived, Parents: []int{3, 1}, Card: 120, Salt: 2},
			{Name: "family", Kind: Derived, Parents: []int{1, 5}, Card: 40, Salt: 3},
			{Name: "keyword", Kind: Derived, Parents: []int{5, 6}, Card: 60, Salt: 6},
			{Name: "evidence", Kind: Derived, Parents: []int{6, 7}, Card: 14, Salt: 4},
			{Name: "reviewed", Kind: Derived, Parents: []int{2, 8}, Card: 6, Salt: 5},
		},
	})
}

// Ionosphere mimics the radar dataset of the column-scalability experiment
// (Fig. 7): 351 rows and up to 34 quantized signal columns. Real radar
// returns are highly correlated, which puts the minimal UCCs and FDs on
// high lattice levels without exploding their number; we model this with a
// crossed core of eight low-radix pulse columns (whose full combination is
// the only core key, pigeonhole-provably minimal at level 8) plus derived
// signal columns computed from 3–5 core pulses each. Level-wise algorithms
// must climb through the wide middle of the lattice; MUDS' UCC-first,
// depth-first strategy reaches the deep dependencies directly — the Fig. 7
// regime (paper Sec. 6.5, criteria 1–3).
func Ionosphere(cols, rows int) *relation.Relation { return IonosphereSeeded(cols, rows, 0) }

// IonosphereSeeded is Ionosphere with a generator-seed override (0 = canonical).
func IonosphereSeeded(cols, rows int, seed int64) *relation.Relation {
	spec := Spec{Name: "ionosphere", Rows: rows, Seed: seedOr(seed, 7)}
	radices := []int{3, 2, 2, 2, 2, 2, 2, 2} // product 384 ≥ 351 rows
	core := len(radices)
	if cols < core {
		core = cols
	}
	stride := 1
	for i := core - 1; i >= 0; i-- {
		spec.Columns = append(spec.Columns, ColumnSpec{
			Name:   fmt.Sprintf("pulse%02d", i),
			Kind:   MixedRadix,
			Card:   radices[i],
			Stride: stride,
		})
		stride *= radices[i]
	}
	// Reverse so the highest-stride digit is column 0 (cosmetic only).
	for i, j := 0, core-1; i < j; i, j = i+1, j-1 {
		spec.Columns[i], spec.Columns[j] = spec.Columns[j], spec.Columns[i]
	}
	for c := core; c < cols; c++ {
		k := 3 + c%3 // 3..5 parent pulses
		parents := make([]int, k)
		for i := 0; i < k; i++ {
			parents[i] = (c*5 + i*3) % core
		}
		spec.Columns = append(spec.Columns, ColumnSpec{
			Name:    fmt.Sprintf("sig%02d", c),
			Kind:    Derived,
			Parents: dedupInts(parents),
			Card:    2 + c%2, // low cardinality keeps mixed keys deep and few
			Salt:    int64(40 + c),
		})
	}
	return Generate(spec)
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// NCVoter mimics the North Carolina voter registration slice of the phase
// experiment (Fig. 8, 10k rows × 20 columns): paired code/description
// columns (mutual FDs), address hierarchies (zip → city → state) and
// moderate-cardinality person fields. The many overlapping small FDs make
// MUDS's FD part dominate the run, as in the paper.
func NCVoter(rows, cols int) *relation.Relation { return NCVoterSeeded(rows, cols, 0) }

// NCVoterSeeded is NCVoter with a generator-seed override (0 = canonical).
func NCVoterSeeded(rows, cols int, seed int64) *relation.Relation {
	all := []ColumnSpec{
		{Name: "county_id", Kind: Zipf, Card: 100},
		{Name: "county_desc", Kind: Derived, Parents: []int{0}, Card: 100, Salt: 10},
		{Name: "voter_reg_num", Kind: Random, Card: max(rows/2, 10)},
		{Name: "status_cd", Kind: Zipf, Card: 4},
		{Name: "status_desc", Kind: Derived, Parents: []int{3}, Card: 4, Salt: 11},
		{Name: "reason_cd", Kind: Zipf, Card: 12},
		{Name: "reason_desc", Kind: Derived, Parents: []int{5}, Card: 12, Salt: 12},
		{Name: "last_name", Kind: Random, Card: 150},
		{Name: "first_name", Kind: Zipf, Card: 90},
		{Name: "midl_name", Kind: Zipf, Card: 40},
		{Name: "house_num", Kind: Random, Card: 120},
		{Name: "street_name", Kind: Random, Card: 80},
		{Name: "street_type", Kind: Zipf, Card: 20},
		{Name: "res_city", Kind: Derived, Parents: []int{15}, Card: 90, Salt: 13},
		{Name: "state_cd", Kind: Derived, Parents: []int{15}, Card: 3, Salt: 14},
		{Name: "zip_code", Kind: Zipf, Card: 250},
		{Name: "area_cd", Kind: Derived, Parents: []int{13}, Card: 25, Salt: 15},
		{Name: "party_cd", Kind: Zipf, Card: 5},
		{Name: "race_cd", Kind: Zipf, Card: 7},
		{Name: "sex_cd", Kind: Zipf, Card: 3},
	}
	if cols > len(all) {
		cols = len(all)
	}
	// Derived parents must stay inside the slice; zip-derived columns appear
	// after zip in the 20-column layout, but res_city (13) and state_cd (14)
	// reference zip_code (15). Reorder for prefixes: move zip before them.
	order := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 13, 14, 16, 17, 18, 19}
	cols2 := make([]ColumnSpec, 0, cols)
	index := map[int]int{}
	for i, oi := range order[:cols] {
		index[oi] = i
		cols2 = append(cols2, all[oi])
	}
	// Remap parent indexes into the new order; drop derived columns whose
	// parents fell outside the slice by degrading them to Random.
	for i := range cols2 {
		if cols2[i].Kind != Derived {
			continue
		}
		ok := true
		parents := make([]int, len(cols2[i].Parents))
		for j, p := range cols2[i].Parents {
			np, found := index[p]
			if !found || np >= i {
				ok = false
				break
			}
			parents[j] = np
		}
		if ok {
			cols2[i].Parents = parents
		} else {
			cols2[i].Kind = Random
			if cols2[i].Card == 0 {
				cols2[i].Card = 50
			}
		}
	}
	return Generate(Spec{Name: "ncvoter", Rows: rows, Seed: seedOr(seed, 3), Columns: cols2})
}

// seedOr resolves a seed override: 0 selects the dataset's canonical seed.
func seedOr(seed, canonical int64) int64 {
	if seed != 0 {
		return seed
	}
	return canonical
}

// UCIInfo describes one UCI dataset row of Table 3: its shape and the FD
// count the paper reports for it.
type UCIInfo struct {
	Name     string
	Cols     int
	Rows     int
	PaperFDs int // "FDs" column of Table 3
}

// UCITable lists the eleven UCI datasets of Table 3 in paper order.
func UCITable() []UCIInfo {
	return []UCIInfo{
		{"iris", 5, 150, 4},
		{"balance", 5, 625, 1},
		{"chess", 7, 28056, 1},
		{"abalone", 9, 4177, 137},
		{"nursery", 9, 12960, 1},
		{"b-cancer", 11, 699, 46},
		{"bridges", 13, 108, 142},
		{"echocard", 13, 132, 538},
		{"adult", 14, 48842, 78},
		{"letter", 17, 20000, 61},
		{"hepatitis", 20, 155, 8250},
	}
}

// UCI generates the named UCI-like dataset. Unknown names return an error.
func UCI(name string) (*relation.Relation, error) { return UCISeeded(name, 0) }

// UCISeeded is UCI with a generator-seed override (0 = canonical).
func UCISeeded(name string, seed int64) (*relation.Relation, error) {
	switch name {
	case "iris":
		// 150 rows, 4 quantized measurements + class; very few FDs.
		return Generate(Spec{Name: name, Rows: 150, Seed: seedOr(seed, 101), Columns: []ColumnSpec{
			{Name: "sepal_l", Kind: Random, Card: 35},
			{Name: "sepal_w", Kind: Random, Card: 23},
			{Name: "petal_l", Kind: Random, Card: 43},
			{Name: "petal_w", Kind: Random, Card: 22},
			{Name: "class", Kind: MixedRadix, Card: 3, Stride: 50},
		}}), nil
	case "balance":
		// 625 = 5^4 fully crossed attributes + derived class: exactly one FD.
		return Generate(Spec{Name: name, Rows: 625, Seed: seedOr(seed, 102), Columns: []ColumnSpec{
			{Name: "left_w", Kind: MixedRadix, Card: 5, Stride: 125},
			{Name: "left_d", Kind: MixedRadix, Card: 5, Stride: 25},
			{Name: "right_w", Kind: MixedRadix, Card: 5, Stride: 5},
			{Name: "right_d", Kind: MixedRadix, Card: 5, Stride: 1},
			{Name: "class", Kind: Derived, Parents: []int{0, 1, 2, 3}, Card: 3, Salt: 20},
		}}), nil
	case "chess":
		// 28056 fully crossed end-game positions + derived outcome. The
		// radix product (8·4·8·8·8·4 = 32768) exceeds the row count, so all
		// rows stay distinct.
		return Generate(Spec{Name: name, Rows: 28056, Seed: seedOr(seed, 103), Columns: []ColumnSpec{
			{Name: "wk_file", Kind: MixedRadix, Card: 8, Stride: 4096},
			{Name: "wk_rank", Kind: MixedRadix, Card: 4, Stride: 1024},
			{Name: "wr_file", Kind: MixedRadix, Card: 8, Stride: 128},
			{Name: "wr_rank", Kind: MixedRadix, Card: 8, Stride: 16},
			{Name: "bk_file", Kind: MixedRadix, Card: 8, Stride: 2},
			{Name: "bk_rank", Kind: MixedRadix, Card: 2, Stride: 1},
			{Name: "outcome", Kind: Derived, Parents: []int{0, 1, 2, 3, 4, 5}, Card: 18, Salt: 21},
		}}), nil
	case "abalone":
		// 4177 rows, physical measurements with high cardinality: many FDs
		// between near-unique measurement pairs.
		return Generate(Spec{Name: name, Rows: 4177, Seed: seedOr(seed, 104), Columns: []ColumnSpec{
			{Name: "sex", Kind: Zipf, Card: 3},
			{Name: "length", Kind: Random, Card: 134},
			{Name: "diameter", Kind: Random, Card: 111},
			{Name: "height", Kind: Random, Card: 51},
			{Name: "whole_w", Kind: Random, Card: 2429},
			{Name: "shucked_w", Kind: Random, Card: 1515},
			{Name: "viscera_w", Kind: Random, Card: 880},
			{Name: "shell_w", Kind: Random, Card: 926},
			{Name: "rings", Kind: Random, Card: 28},
		}}), nil
	case "nursery":
		// 12960 = 3*5*4*4*3*2*3*3 fully crossed + derived class.
		return Generate(Spec{Name: name, Rows: 12960, Seed: seedOr(seed, 105), Columns: []ColumnSpec{
			{Name: "parents", Kind: MixedRadix, Card: 3, Stride: 4320},
			{Name: "has_nurs", Kind: MixedRadix, Card: 5, Stride: 864},
			{Name: "form", Kind: MixedRadix, Card: 4, Stride: 216},
			{Name: "children", Kind: MixedRadix, Card: 4, Stride: 54},
			{Name: "housing", Kind: MixedRadix, Card: 3, Stride: 18},
			{Name: "finance", Kind: MixedRadix, Card: 2, Stride: 9},
			{Name: "social", Kind: MixedRadix, Card: 3, Stride: 3},
			{Name: "health", Kind: MixedRadix, Card: 3, Stride: 1},
			{Name: "class", Kind: Derived, Parents: []int{0, 1, 2, 3, 4, 5, 6, 7}, Card: 5, Salt: 22},
		}}), nil
	case "b-cancer":
		// 699 rows, id column + 9 cytology grades (1..10) + class.
		return Generate(Spec{Name: name, Rows: 699, Seed: seedOr(seed, 106), Columns: []ColumnSpec{
			{Name: "id", Kind: Random, Card: 645},
			{Name: "thickness", Kind: Zipf, Card: 10},
			{Name: "size_unif", Kind: Zipf, Card: 10},
			{Name: "shape_unif", Kind: Zipf, Card: 10},
			{Name: "adhesion", Kind: Zipf, Card: 10},
			{Name: "epith_size", Kind: Zipf, Card: 10},
			{Name: "bare_nuclei", Kind: Zipf, Card: 11},
			{Name: "chromatin", Kind: Zipf, Card: 10},
			{Name: "nucleoli", Kind: Zipf, Card: 10},
			{Name: "mitoses", Kind: Zipf, Card: 9},
			{Name: "class", Kind: Derived, Parents: []int{2, 3}, Card: 2, Salt: 23},
		}}), nil
	case "bridges":
		// 108 rows, id + 12 low-cardinality properties: dense FD structure.
		return Generate(Spec{Name: name, Rows: 108, Seed: seedOr(seed, 107), Columns: []ColumnSpec{
			{Name: "id", Kind: ID},
			{Name: "river", Kind: Zipf, Card: 4},
			{Name: "location", Kind: Random, Card: 52},
			{Name: "erected", Kind: Random, Card: 12},
			{Name: "purpose", Kind: Zipf, Card: 4},
			{Name: "length", Kind: Random, Card: 30},
			{Name: "lanes", Kind: Zipf, Card: 4},
			{Name: "clear_g", Kind: Zipf, Card: 2},
			{Name: "t_or_d", Kind: Zipf, Card: 2},
			{Name: "material", Kind: Zipf, Card: 3},
			{Name: "span", Kind: Zipf, Card: 3},
			{Name: "rel_l", Kind: Zipf, Card: 3},
			{Name: "type", Kind: Zipf, Card: 7},
		}}), nil
	case "echocard":
		// 132 rows, numeric clinical measurements with high cardinality on
		// few rows: hundreds of FDs with mid-size left-hand sides.
		return Generate(Spec{Name: name, Rows: 132, Seed: seedOr(seed, 108), Columns: []ColumnSpec{
			{Name: "survival", Kind: Random, Card: 40},
			{Name: "alive", Kind: Zipf, Card: 2},
			{Name: "age", Kind: Random, Card: 40},
			{Name: "pericardial", Kind: Zipf, Card: 2},
			{Name: "fractional", Kind: Random, Card: 70},
			{Name: "epss", Kind: Random, Card: 60},
			{Name: "lvdd", Kind: Random, Card: 55},
			{Name: "wall_score", Kind: Random, Card: 30},
			{Name: "wall_index", Kind: Random, Card: 35},
			{Name: "mult", Kind: Random, Card: 25},
			{Name: "name", Kind: Zipf, Card: 2},
			{Name: "group", Kind: Zipf, Card: 3},
			{Name: "alive_at_1", Kind: Zipf, Card: 3},
		}}), nil
	case "adult":
		// 48842 census rows; the near-unique fnlwgt column gives FDs with
		// larger left-hand sides, the regime where MUDS excels (Table 3).
		return Generate(Spec{Name: name, Rows: 48842, Seed: seedOr(seed, 109), Columns: []ColumnSpec{
			{Name: "age", Kind: Random, Card: 74},
			{Name: "workclass", Kind: Zipf, Card: 9},
			{Name: "fnlwgt", Kind: Random, Card: 28523},
			{Name: "education", Kind: Zipf, Card: 16},
			{Name: "education_num", Kind: Derived, Parents: []int{3}, Card: 16, Salt: 24},
			{Name: "marital", Kind: Zipf, Card: 7},
			{Name: "occupation", Kind: Zipf, Card: 15},
			{Name: "relationship", Kind: Zipf, Card: 6},
			{Name: "race", Kind: Zipf, Card: 5},
			{Name: "sex", Kind: Zipf, Card: 2},
			{Name: "capital_gain", Kind: Zipf, Card: 119},
			{Name: "capital_loss", Kind: Zipf, Card: 92},
			{Name: "hours", Kind: Random, Card: 96},
			{Name: "income", Kind: Derived, Parents: []int{4, 5}, Card: 2, Salt: 25},
		}}), nil
	case "letter":
		// 20000 rows, 16 image features + letter class. Real letter-image
		// features are strongly correlated: its 61 minimal FDs have large
		// left-hand sides and its keys sit deep in the lattice (this is the
		// dataset where the paper reports MUDS' factor-48 win). Modelled as
		// a crossed core of six position/count features — their full
		// combination is the only core key (radix product 50000 ≥ 20000
		// rows; every 5-subset has product ≤ 12500 < rows, so it is
		// non-unique by pigeonhole) — plus derived moment features computed
		// from 4–6 core features each.
		spec := Spec{Name: name, Rows: 20000, Seed: seedOr(seed, 110), Columns: []ColumnSpec{
			{Name: "xbox", Kind: MixedRadix, Card: 5, Stride: 10000},
			{Name: "ybox", Kind: MixedRadix, Card: 5, Stride: 2000},
			{Name: "width", Kind: MixedRadix, Card: 5, Stride: 400},
			{Name: "height", Kind: MixedRadix, Card: 5, Stride: 80},
			{Name: "onpix", Kind: MixedRadix, Card: 4, Stride: 20},
			{Name: "xbar", Kind: MixedRadix, Card: 4, Stride: 5},
			// A 17th of the radix space stays unused (stride 5 leaves the
			// low digit free), so consecutive rows are never duplicates.
			{Name: "pad", Kind: MixedRadix, Card: 5, Stride: 1},
		}}
		for c := 7; c < 16; c++ {
			k := 5 + c%2 // 5..6 parent features
			parents := make([]int, k)
			for i := 0; i < k; i++ {
				parents[i] = (c*3 + i*2) % 7
			}
			spec.Columns = append(spec.Columns, ColumnSpec{
				Name:    fmt.Sprintf("moment%02d", c),
				Kind:    Derived,
				Parents: dedupInts(parents),
				Card:    2, // binary moments: large left-hand sides, few keys
				Salt:    int64(70 + c),
			})
		}
		spec.Columns = append(spec.Columns, ColumnSpec{
			Name: "letter", Kind: Derived,
			Parents: []int{0, 1, 2, 3, 4, 5}, Card: 26, Salt: 69,
		})
		return Generate(spec), nil
	case "hepatitis":
		// 155 rows, 20 mostly binary clinical attributes: the combinatorial
		// FD explosion (thousands of FDs) where shadowing hurts MUDS and
		// TANE wins (Table 3).
		spec := Spec{Name: name, Rows: 155, Seed: seedOr(seed, 111), Columns: []ColumnSpec{
			{Name: "class", Kind: Zipf, Card: 2},
			{Name: "age", Kind: Random, Card: 50},
		}}
		for c := 0; c < 12; c++ {
			spec.Columns = append(spec.Columns, ColumnSpec{
				Name: fmt.Sprintf("sym%02d", c),
				Kind: Zipf,
				Card: 2,
			})
		}
		for _, nc := range []struct {
			name string
			card int
		}{{"bilirubin", 27}, {"alk_phos", 84}, {"sgot", 84}, {"albumin", 30}, {"protime", 45}, {"histology", 2}} {
			spec.Columns = append(spec.Columns, ColumnSpec{Name: nc.name, Kind: Random, Card: nc.card})
		}
		return Generate(spec), nil
	default:
		names := make([]string, 0, len(UCITable()))
		for _, i := range UCITable() {
			names = append(names, i.Name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("dataset: unknown UCI dataset %q (want one of %v)", name, names)
	}
}
