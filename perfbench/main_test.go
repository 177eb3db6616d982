package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyConfig is a short run at a small scale: every workload keeps its
// layers and traffic mix, on inputs a few hundred rows long.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		workDir:  t.TempDir(),
		scale:    0.02,
	}
	if trace {
		cfg.traceDir = filepath.Join(t.TempDir(), "trace")
	}
	return cfg
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

// TestTinyRunsPrintEveryMetric runs every workload untraced and traced at
// a tiny scale and checks that each prints exactly the declared metrics,
// with their units, and that every result passed the gate.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := benchmarkSpec(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := runConfig(context.Background(), tinyConfig(t, name, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%t: correct=%t attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				checkMetrics(t, res.Metrics, want)
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			}
		})
	}
}

// TestCorruptedResultsFail tampers with every result before the gate and
// expects every checked operation of every workload to count as failed.
func TestCorruptedResultsFail(t *testing.T) {
	for _, name := range []string{"fd-wide", "service-mixed"} {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, false)
			cfg.corrupt = true
			res, err := runConfig(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted results passed the gate: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if name == "fd-wide" && res.Failed != res.Attempted {
				t.Fatalf("failed=%d of %d profiles, want all", res.Failed, res.Attempted)
			}
		})
	}
}

// TestSeedIsDeterministic checks that a seed fixes the inputs, the
// schedule and the result digests, and that another seed changes them.
func TestSeedIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, seed int64) []byte {
		path := filepath.Join(dir, name)
		if err := writeNCVoter(path, 300, 16, opSeed(seed, 0)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(read("a", 3), read("b", 3)) {
		t.Error("same seed, different batch input")
	}
	if bytes.Equal(read("a", 3), read("c", 4)) {
		t.Error("different seeds, same batch input")
	}

	sched := func(seed int64) []string {
		cfg := tinyConfig(t, "service-mixed", false)
		cfg.seed, cfg.seconds = seed, 3
		s, err := buildSchedule(cfg, defaultServiceShape)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, op := range s.ops {
			out = append(out, op.at.String()+" "+kindClass[op.kind]+" "+digestStrings([]string{string(op.body)}))
		}
		return out
	}
	a, b, c := sched(3), sched(3), sched(4)
	if !equalStrings(a, b) {
		t.Error("same seed, different schedule")
	}
	if equalStrings(a, c) {
		t.Error("different seeds, same schedule")
	}

	// Result digests: two runs of one seed agree on every operation both
	// completed (the window decides how many that is).
	digests := func(workload string) []string {
		cfg := tinyConfig(t, workload, false)
		p, err := workloads[workload](context.Background(), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, o := range p.ops {
			out = append(out, o.class+":"+o.digest)
		}
		return out
	}
	for _, w := range []string{"fd-wide", "service-mixed"} {
		x, y := digests(w), digests(w)
		n := min(len(x), len(y))
		if n == 0 || !equalStrings(x[:n], y[:n]) {
			t.Errorf("%s: digests differ between runs of one seed:\n%v\n%v", w, x, y)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPhaseSpansCoverOperation checks the traced batch run: the engine
// phase spans plus the report spans cover each profile's operation span
// up to a tolerance of 5% of the operation or 2ms, whichever is larger
// (the uncovered rest is the time between the benchmark's calls).
func TestPhaseSpansCoverOperation(t *testing.T) {
	cfg := tinyConfig(t, "fd-wide", true)
	cfg.scale = 0.1
	p, err := workloads["fd-wide"](context.Background(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	roots := 0
	for _, s := range spans {
		if s.Parent != 0 {
			if s.Start < spans[s.Parent-1].Start || s.End > spans[s.Parent-1].End {
				t.Errorf("span %s [%f,%f] outside its parent [%f,%f]", s.Name, s.Start, s.End, spans[s.Parent-1].Start, spans[s.Parent-1].End)
			}
			if s.Op != spans[s.Parent-1].Op {
				t.Errorf("span %s carries op %d, its parent op %d", s.Name, s.Op, spans[s.Parent-1].Op)
			}
			continue
		}
		roots++
		tol := max(0.05*s.dur(), (2 * time.Millisecond).Seconds())
		if self[s.ID] > tol {
			t.Errorf("op %d: %.4fs of %.4fs not covered by phase spans (tolerance %.4fs)", s.Op, self[s.ID], s.dur(), tol)
		}
	}
	if roots == 0 {
		t.Fatal("no operation spans")
	}
}

// TestSelfTimes checks the self-time arithmetic on overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "c", Start: 9, End: 12},
		{ID: 5, Parent: 2, Name: "d", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 6, 2: 2, 3: 3, 4: 3, 5: 1}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}
