package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"holistic/internal/pli"
	"holistic/internal/relation"
)

// PLIMeasurement is one (operation, rows) data point of the PLI
// intersection micro-benchmark, serialised into BENCH_pli.json. The
// pre-refactor baseline columns hold the numbers of the map-grouping
// [][]int32 implementation measured at the commit that introduced the flat
// layout, so the file documents the before/after of the representation
// change next to the current numbers.
type PLIMeasurement struct {
	Op          string  `json:"op"`
	Rows        int     `json:"rows"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	BaselineNsPerOp     float64 `json:"pre_refactor_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"pre_refactor_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup_vs_pre_refactor,omitempty"`
}

// pliReport is the top-level BENCH_pli.json document.
type pliReport struct {
	Note         string           `json:"note"`
	Measurements []PLIMeasurement `json:"measurements"`
}

// pliBaseline holds the pre-refactor IntersectColumn reference numbers
// (ns/op, allocs/op) per row count, measured with the per-cluster-allocation
// PLI and per-call map grouping on the benchmark machine immediately before
// the flat-layout refactor landed.
var pliBaseline = map[int][2]float64{10000: {1160115, 9759}, 100000: {6098959, 46013}}

// pliBenchRelation mirrors the relation shape of the in-package PLI
// benchmarks: three columns, cardinality 100, fixed seed.
func pliBenchRelation(rows int) *relation.Relation {
	rnd := rand.New(rand.NewSource(1))
	names := []string{"c0", "c1", "c2"}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, len(names))
		for c := range row {
			row[c] = fmt.Sprint(rnd.Intn(100))
		}
		data[i] = row
	}
	return relation.MustNew("plibench", names, data)
}

// PLIBench runs the PLI intersection micro-benchmark (IntersectColumn at
// 10k and 100k rows), prints a table, and writes the measurements to
// jsonPath as machine-readable JSON (empty path = no file).
// It is the `cmd/experiments -pli` entry point that regenerates
// BENCH_pli.json.
func PLIBench(w io.Writer, jsonPath string) ([]PLIMeasurement, error) {
	fmt.Fprintln(w, "PLI micro-benchmarks — flat-layout column intersection (steady state)")
	fmt.Fprintf(w, "%-16s %8s %12s %12s %10s %9s\n", "op", "rows", "ns/op", "B/op", "allocs/op", "speedup")

	var out []PLIMeasurement
	for _, rows := range []int{10000, 100000} {
		rel := pliBenchRelation(rows)
		a := pli.FromColumn(rel.Column(0), rel.Cardinality(0))
		col, card := rel.Column(1), rel.Cardinality(1)

		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a.IntersectColumn(col, card).NumRows() != rel.NumRows() {
					b.Fatal("bad result")
				}
			}
		})
		m := PLIMeasurement{
			Op:          "IntersectColumn",
			Rows:        rows,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if base, ok := pliBaseline[rows]; ok && m.NsPerOp > 0 {
			m.BaselineNsPerOp = base[0]
			m.BaselineAllocsPerOp = int64(base[1])
			m.Speedup = base[0] / m.NsPerOp
		}
		out = append(out, m)
		fmt.Fprintf(w, "%-16s %8d %12.0f %12d %10d %8.1fx\n",
			m.Op, m.Rows, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.Speedup)
	}

	if jsonPath != "" {
		doc := pliReport{
			Note: "flat-layout PLI vs the pre-refactor map-grouping implementation " +
				"(pre_refactor_* measured at the commit replacing it; same machine, same workload)",
			Measurements: out,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return out, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return out, fmt.Errorf("writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return out, nil
}
