package main

import (
	"context"
	"sort"
	"strings"
	"time"
)

// The three workloads load different layers (shares measured with the
// traced run on a 2-CPU machine):
//
//   - fd-wide: MUDS profiles of ncvoter-shaped 2000×16 relations, a fresh
//     seed for each profile of a run (16 inputs, about 10 profiles). About
//     94% of a profile is in the core FD phases and the pli check kernels
//     under them; relation load and SPIDER take under 1%.
//   - load-tall: MUDS profiles of ncvoter-shaped 300000×6 relations, cycling
//     through 4 inputs (each takes about as long to generate as to profile).
//     Relation load takes about 77% and SPIDER about 13%; the FD phases
//     take about 1.5%, so an FD-phase change must read "no change" here.
//   - service-mixed: an open loop against an in-process profiled server
//     with a fresh state dir: plain jobs on 20000-row relations (a share of
//     them byte-identical repeats served by the result cache) and dataset
//     sessions appending small batches. It is the only workload through
//     admission, queueing, the WAL, checkpoints and incremental repair.
//
// Each workload's shape is also recorded, in one line, in BENCHMARK.json.
var workloads = map[string]func(ctx context.Context, cfg config, traced bool) (*pass, error){
	"fd-wide":       batchRunner(batchShape{rows: 2000, cols: 16, pool: 16, limit: 60}),
	"load-tall":     batchRunner(batchShape{rows: 300000, cols: 6, pool: 4, limit: 60}),
	"service-mixed": serviceRunner(defaultServiceShape),
}

// defaultServiceShape is the service-mixed traffic.
var defaultServiceShape = serviceShape{
	readRows:     20000,
	readCols:     10,
	readEvery:    400 * time.Millisecond,
	repeatShare:  0.25,
	repeatMinAge: 2 * time.Second,
	sessions:     4,
	baseRows:     20000,
	baseCols:     10,
	batchRows:    100,
	appendEvery:  800 * time.Millisecond,
	pollEvery:    2 * time.Millisecond,
	connections:  2,
	sendLagBound: 0.5,
	limit:        10,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// opSeed derives the generator seed of operation i from the workload seed
// (SplitMix64), never 0: the generators read 0 as "canonical seed".
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// scaled applies the run's scale to a size, keeping it at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(int(float64(n)*scale), lo)
}
