// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload against the public entry points of the
// profiler's layers, checks every result against an independent strategy,
// and prints one JSON line with the workload's metrics:
//
//	perfbench --workload fd-wide --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// observer attached. With --trace 1 the workload runs twice from the same
// seed, untraced and then traced, and the metrics are the per-layer ones
// (from core.Observer spans and client-side spans around the HTTP calls),
// plus the tracing overhead on every end-to-end metric. The spans of the
// traced pass are written to .bench_build/trace/ when the run ends.
//
// Workloads (see workloads.go): fd-wide, load-tall, service-mixed.
//
// Exit status: 0 with a result line, 1 on an error, 2 on a usage error,
// 3 when an open-loop run's generator fell behind its schedule by more than
// the benchmark's bound (the run is invalid and prints no numbers).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir receives the generated inputs and the server's state dir;
	// it is removed when the run ends.
	workDir string
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
	// scale shrinks every input shape and rate (1 for real runs; the
	// self-tests use a tiny scale).
	scale float64
	// corrupt makes the run tamper with every profiling result before the
	// correctness gate sees it. Only the self-tests set it, to prove that
	// the gate counts wrong results as failed.
	corrupt bool
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalidRun marks an open-loop run whose generator lagged beyond its
// bound: its latencies do not describe the offered load.
var errInvalidRun = errors.New("invalid run")

func main() {
	res, err := run(context.Background(), os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(2)
		case errors.As(err, new(usageError)):
			os.Exit(2)
		case errors.Is(err, errInvalidRun):
			os.Exit(3)
		}
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run parses args, runs the workload and returns the result line; log
// receives a human-readable summary.
func run(ctx context.Context, args []string, log io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(log)
	var (
		workload = fs.String("workload", "", "workload name: "+workloadNames())
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs and schedule")
		seconds  = fs.Float64("seconds", 20, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, usageError{fmt.Sprintf("unexpected arguments %q", fs.Args())}
	}
	if _, ok := workloads[*workload]; !ok {
		return nil, usageError{fmt.Sprintf("unknown --workload %q (want one of %s)", *workload, workloadNames())}
	}
	if *seconds <= 0 {
		return nil, usageError{"--seconds must be positive"}
	}
	if *trace != 0 && *trace != 1 {
		return nil, usageError{"--trace must be 0 or 1"}
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		scale:    1,
	}
	if cfg.trace {
		cfg.traceDir = filepath.Join(".bench_build", "trace")
	}
	return runConfig(ctx, cfg, log)
}

// runConfig runs one configured invocation.
func runConfig(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	run := workloads[cfg.workload]
	plain, err := run(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	e2e := plain.endToEnd()
	attempted, failed := plain.counts()
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   e2e,
	}
	plain.summarize(log, cfg, "untraced")
	if !cfg.trace {
		return res, nil
	}

	traced, err := run(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	traced.summarize(log, cfg, "traced")
	attempted, failed = traced.counts()
	res.Correct = res.Correct && failed == 0
	res.Attempted += attempted
	res.Failed += failed
	res.Metrics = traced.perLayer()
	tracedE2E := traced.endToEnd()
	for _, name := range sortedKeys(e2e) {
		res.Metrics["trace.overhead."+name] = metric{tracedE2E[name].Value - e2e[name].Value, e2e[name].Unit}
	}
	if cfg.traceDir != "" {
		path, err := traced.writeTrace(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
