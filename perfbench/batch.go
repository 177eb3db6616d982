package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// batchShape is a batch workload: a sequence of MUDS profiles of
// ncvoter-shaped relations drawn, in turn, from a pool of inputs with one
// seed each.
type batchShape struct {
	rows, cols int
	// pool is how many inputs a run generates; profiles cycle through them.
	pool int
	// limit is the latency, in seconds, a failed profile is counted with.
	limit float64
}

// batchRunner generates the input pool (each input is one set-up: generate
// and write its CSV), then runs profiles until the window has passed. A
// profile makes exactly the calls cmd/profile -format json makes:
// core.CSVSource, core.RunContext with strategy muds and default options
// (workers = all CPUs), core.NewReport and JSON encoding. The correctness
// gate runs after each profile, outside its timing.
func batchRunner(shape batchShape) func(context.Context, config, bool) (*pass, error) {
	return func(ctx context.Context, cfg config, traced bool) (*pass, error) {
		rows := scaled(shape.rows, cfg.scale, 20)
		p := &pass{latencyLimit: shape.limit}
		inputs := make([]string, shape.pool)
		for i := range inputs {
			t := time.Now()
			inputs[i] = filepath.Join(cfg.workDir, fmt.Sprintf("input-%d.csv", i))
			if err := writeNCVoter(inputs[i], rows, shape.cols, opSeed(cfg.seed, i)); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			p.setup = append(p.setup, time.Since(t).Seconds())
		}
		refs := make([]*core.Report, len(inputs))

		epoch := time.Now()
		if traced {
			p.tr = newTracer(epoch)
		}
		heap := startHeapSampler(time.Millisecond)
		defer heap.close()
		var peaks []float64
		for i := 0; i == 0 || time.Since(epoch).Seconds() < cfg.seconds; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			in := i % len(inputs)
			runtime.GC() // start every profile from the same heap state
			alloc0, gc0 := runtimeCounters()
			heap.active.Store(true)
			out, err := profileFile(ctx, inputs[in], p.tr, i+1)
			heap.active.Store(false)
			peaks = append(peaks, float64(heap.take()))
			alloc1, gc1 := runtimeCounters()
			p.allocBytes += alloc1 - alloc0
			p.gcCycles += gc1 - gc0
			p.window += out.seconds

			op := opSample{class: "profile", latency: out.seconds}
			if err != nil {
				p.fail("profile %d: %v", i, err)
				p.ops = append(p.ops, op)
				continue
			}
			if cfg.corrupt {
				corruptReport(out.report)
			}
			op.digest = digest(out.report)
			if refs[in] == nil {
				t := time.Now()
				if refs[in], err = reference(ctx, out.rel); err != nil {
					return nil, err
				}
				p.gateSeconds += time.Since(t).Seconds()
			}
			if diff := compare(out.report, refs[in]); diff != "" {
				p.fail("profile %d: result differs from HFUN: %s", i, diff)
			} else {
				op.ok = true
				op.cells = int64(out.rel.NumRows()) * int64(out.rel.NumColumns())
			}
			p.ops = append(p.ops, op)
		}
		p.peakHeap = uint64(quantile(peaks, 0.5))
		return p, nil
	}
}

// writeNCVoter generates an ncvoter-shaped relation and writes it as CSV.
func writeNCVoter(path string, rows, cols int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.NCVoterSeeded(rows, cols, seed).WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileOutcome is one timed profile.
type profileOutcome struct {
	seconds float64
	rel     *relation.Relation
	report  *core.Report
}

// profileFile profiles the CSV at path as cmd/profile -format json does,
// timing it from the CSV file to the encoded report. With a tracer it
// passes the benchmark's span observer and records operation op's spans.
func profileFile(ctx context.Context, path string, tr *tracer, op int) (profileOutcome, error) {
	var (
		obs  core.Observer
		root int
	)
	start := time.Now()
	if tr != nil {
		root = tr.open(op, 0, "op.profile", start)
		obs = newSpanObserver(tr, op, root)
	}
	src := &core.MemoSource{Src: core.CSVSource{
		Path:    path,
		Options: relation.CSVOptions{Comma: ',', HasHeader: true},
	}}
	res, err := core.RunContext(ctx, core.StrategyMuds, src, core.Options{}, obs)
	if err != nil {
		return profileOutcome{seconds: time.Since(start).Seconds()}, err
	}
	rel := src.Relation()
	t := time.Now()
	report := core.NewReport(rel, res, false)
	t2 := time.Now()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(report)
	end := time.Now()
	if tr != nil {
		tr.add(op, root, "report.build", t, t2)
		tr.add(op, root, "report.encode", t2, end)
		tr.close(root, end)
		tr.describe(root, rel.NumRows(), len(res.FDs))
	}
	return profileOutcome{seconds: end.Sub(start).Seconds(), rel: rel, report: report}, err
}
