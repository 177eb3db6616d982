package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one measured operation of a pass.
type opSample struct {
	class string // "profile" (batch), "read", "create" or "append" (service)
	// latency runs from the operation's start (batch) or scheduled send
	// time (service) until the client holds the encoded result.
	latency float64
	ok      bool
	// cells is rows × columns the operation profiled (0 for a result-cache
	// hit, which profiles nothing).
	cells int64
	// digest identifies the operation's result (INDs, UCCs, FDs); the same
	// seed gives the same digests in every run.
	digest string
}

// pass is one measured run of a workload: untraced for the end-to-end
// metrics, traced for the per-layer ones.
type pass struct {
	setup []float64 // seconds per set-up
	ops   []opSample
	// window is the seconds the cells_per_s rate is taken over: the summed
	// profile times of a batch pass, first scheduled send to last result of
	// a service pass.
	window float64
	// latencyLimit is the latency a failed or refused operation is counted
	// with: it misses any limit at or below this one.
	latencyLimit float64
	// peakHeap is the peak live heap in bytes: over the window of a
	// service pass, and the median of the per-profile peaks of a batch pass
	// (its profiles are independent, so the largest input alone would set
	// a window-wide peak).
	peakHeap    uint64
	allocBytes  uint64 // heap bytes allocated over the measured window
	gcCycles    uint64
	failures    []string
	gateSeconds float64 // time spent in the correctness gate
	tr          *tracer // nil when untraced
	svc         *serviceCounters
}

// serviceCounters are the service pass's server-side and client-side
// tallies.
type serviceCounters struct {
	rejections     int
	metricsDelta   map[string]float64 // /metrics counters, end minus start
	sendLags       []float64
	sendLagBound   float64
	appends        int
	scheduledOps   int
	offeredPerSec  float64
	connectionsMax int
}

func (p *pass) fail(format string, args ...any) {
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *pass) counts() (attempted, failed int) {
	for _, o := range p.ops {
		if !o.ok {
			failed++
		}
	}
	return len(p.ops), failed
}

// latencyGroup is the class an operation's latency is ranked in: batch
// appends apart from the full profiles (batch profiles, plain jobs and
// session creates), whose latencies are an order of magnitude longer.
func latencyGroup(class string) string {
	if class == "append" {
		return "append"
	}
	return "profile"
}

// endToEnd returns the end-to-end metrics of the pass. The latency
// percentiles are taken per latency group and combined by their geometric
// mean, so that each group moves them by the same share whatever the mix:
// a median over a two-class mixture would sit at the class boundary.
func (p *pass) endToEnd() map[string]metric {
	groups := map[string][]float64{}
	var cells int64
	for _, o := range p.ops {
		g := latencyGroup(o.class)
		if !o.ok {
			groups[g] = append(groups[g], math.Max(o.latency, p.latencyLimit))
			continue
		}
		groups[g] = append(groups[g], o.latency)
		cells += o.cells
	}
	p50, p90 := 1.0, 1.0
	for _, lat := range groups {
		p50 *= math.Pow(quantile(lat, 0.5), 1/float64(len(groups)))
		p90 *= math.Pow(quantile(lat, 0.9), 1/float64(len(groups)))
	}
	return map[string]metric{
		"setup_s":      {quantile(p.setup, 0.5), "s"},
		"op_p50_s":     {p50, "s"},
		"op_p90_s":     {p90, "s"},
		"cells_per_s":  {float64(cells) / p.window, "cells/s"},
		"peak_heap_mb": {float64(p.peakHeap) / (1 << 20), "MiB"},
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the q-quantile of xs, interpolating linearly between the
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// perLayer returns the per-layer metrics of a traced pass. Engine layers
// are averaged over the operations that ran them; the server, durable,
// incremental and client metrics exist only on the service workload and
// read 0 elsewhere, so they are stated as shares and counts.
func (p *pass) perLayer() map[string]metric {
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(s *span) *span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}

	// Per layer: summed self time, and the operations that ran it.
	layerSelf := map[string]float64{}
	layerOps := map[string]map[int]bool{}
	layerDur := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		layerSelf[s.Name] += self[s.ID]
		layerDur[s.Name] += s.dur()
		if layerOps[s.Name] == nil {
			layerOps[s.Name] = map[int]bool{}
		}
		layerOps[s.Name][s.Op] = true
	}
	perOp := func(name string) float64 {
		if n := len(layerOps[name]); n > 0 {
			return layerSelf[name] / float64(n)
		}
		return 0
	}

	// Profile operations are those that ran the UCC phase: every MUDS
	// profile does, an incremental append does not.
	profiles := layerOps["ucc.ducc"]
	var (
		uccChecks, fdChecks, fds, loadRows int64
		opTime, fdSelf, appendTime         float64
		appendChecks                       int64
		cache                              = map[string]float64{}
		rootsSelf                          float64
		roots                              int
	)
	for i := range spans {
		s := &spans[i]
		root := rootOf(s)
		if s.Parent == 0 {
			roots++
			rootsSelf += self[s.ID]
			if profiles[s.Op] {
				opTime += s.dur()
				fds += int64(s.FDs)
			}
			if s.Name == "op.append" {
				appendTime += s.dur()
			}
		}
		if s.Name == "relation.load" {
			loadRows += int64(root.Rows)
		}
		if root.Name == "op.append" {
			appendChecks += s.Checks
		}
		if !profiles[s.Op] {
			continue
		}
		if s.Name == "ucc.ducc" {
			uccChecks += s.Checks
		} else {
			fdChecks += s.Checks
		}
		if strings.HasPrefix(s.Name, "core.") {
			fdSelf += self[s.ID]
		}
		if c := s.Cache; c != nil {
			cache["hits"] += float64(c.Hits)
			cache["misses"] += float64(c.Misses)
			cache["evictions"] += float64(c.Evictions)
			cache["bytes"] += float64(c.Bytes)
			cache["intersections"] += float64(c.Intersections)
			cache["fast_checks"] += float64(c.FastChecks)
			cache["materializations"] += float64(c.Materializations)
			cache["sampled_refutations"] += float64(c.SampledRefutations)
		}
	}
	np := float64(max(len(profiles), 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	opsN := float64(max(len(p.ops), 1))
	m := map[string]metric{
		"relation.load_s":                {perOp("relation.load"), "s"},
		"relation.rows_per_s":            {ratio(float64(loadRows), layerSelf["relation.load"]), "rows/s"},
		"ind.spider_s":                   {perOp("ind.spider"), "s"},
		"ucc.ducc_s":                     {perOp("ucc.ducc"), "s"},
		"ucc.checks":                     {float64(uccChecks) / np, "count"},
		"core.minimize_fds_s":            {perOp("core.minimize_fds"), "s"},
		"core.calculate_rz_s":            {perOp("core.calculate_rz"), "s"},
		"core.shadowed_s":                {perOp("core.shadowed"), "s"},
		"core.completion_sweep_s":        {perOp("core.completion_sweep"), "s"},
		"core.fd_checks":                 {float64(fdChecks) / np, "count"},
		"core.fds_per_check":             {ratio(float64(fds), float64(fdChecks)), "ratio"},
		"core.fd_share":                  {ratio(fdSelf, opTime), "ratio"},
		"relation.load_spider_share":     {ratio(layerSelf["relation.load"]+layerSelf["ind.spider"], opTime), "ratio"},
		"pli.intersections":              {cache["intersections"] / np, "count"},
		"pli.fast_checks":                {cache["fast_checks"] / np, "count"},
		"pli.materializations":           {cache["materializations"] / np, "count"},
		"pli.sampled_refutations":        {cache["sampled_refutations"] / np, "count"},
		"pli.cache_hits":                 {cache["hits"] / np, "count"},
		"pli.cache_misses":               {cache["misses"] / np, "count"},
		"pli.cache_hit_ratio":            {ratio(cache["hits"], cache["hits"]+cache["misses"]), "ratio"},
		"pli.evictions":                  {cache["evictions"] / np, "count"},
		"pli.cache_mb":                   {cache["bytes"] / np / (1 << 20), "MiB"},
		"go.alloc_mb_per_op":             {float64(p.allocBytes) / opsN / (1 << 20), "MiB"},
		"go.gc_cycles_per_op":            {float64(p.gcCycles) / opsN, "count"},
		"op.self_s":                      {ratio(rootsSelf, float64(roots)), "s"},
		"server.admit_share":             {ratio(layerDur["server.admit"], layerDur["op.read"]+layerDur["op.create"]+layerDur["op.append"]), "ratio"},
		"server.queue_wait_share":        {ratio(layerDur["server.queue"], layerDur["op.read"]+layerDur["op.create"]+layerDur["op.append"]), "ratio"},
		"server.run_share":               {ratio(layerDur["server.run"], layerDur["op.read"]+layerDur["op.create"]+layerDur["op.append"]), "ratio"},
		"server.fetch_share":             {ratio(layerDur["server.fetch"], layerDur["op.read"]+layerDur["op.create"]+layerDur["op.append"]), "ratio"},
		"incremental.append_share":       {ratio(appendRunTime(spans, byID), appendTime), "ratio"},
		"incremental.append_checks":      {0, "count"},
		"server.rejections":              {0, "count"},
		"server.result_cache_hit_ratio":  {0, "ratio"},
		"durable.wal_records_per_op":     {0, "count"},
		"durable.checkpoints_per_append": {0, "count"},
		"client.send_lag_bound_share":    {0, "ratio"},
	}
	if c := p.svc; c != nil {
		d := c.metricsDelta
		m["incremental.append_checks"] = metric{ratio(float64(appendChecks), float64(c.appends)), "count"}
		m["server.rejections"] = metric{float64(c.rejections), "count"}
		m["server.result_cache_hit_ratio"] = metric{ratio(d["profiled_result_cache_hits_total"],
			d["profiled_result_cache_hits_total"]+d["profiled_result_cache_misses_total"]), "ratio"}
		m["durable.wal_records_per_op"] = metric{ratio(d["profiled_wal_records_total"], float64(len(p.ops))), "count"}
		m["durable.checkpoints_per_append"] = metric{ratio(d["profiled_checkpoints_written_total"], float64(c.appends)), "count"}
		m["client.send_lag_bound_share"] = metric{quantile(c.sendLags, 0.9) / c.sendLagBound, "ratio"}
	}
	return m
}

// appendRunTime sums the server-side run time of append operations.
func appendRunTime(spans []span, byID map[int]*span) float64 {
	var t float64
	for i := range spans {
		s := &spans[i]
		if s.Name == "server.run" && s.Parent != 0 && byID[s.Parent].Name == "op.append" {
			t += s.dur()
		}
	}
	return t
}

// summarize writes a human-readable account of the pass to log.
func (p *pass) summarize(log io.Writer, cfg config, label string) {
	attempted, failed := p.counts()
	fmt.Fprintf(log, "%s %s seed=%d: %d operations, %d failed, %d set-ups; %.1fs in set-up, %.1fs measured, %.1fs in the gate\n",
		cfg.workload, label, cfg.seed, attempted, failed, len(p.setup), sum(p.setup), p.window, p.gateSeconds)
	byClass := map[string][]float64{}
	for _, o := range p.ops {
		if o.ok {
			byClass[o.class] = append(byClass[o.class], o.latency)
		}
	}
	for _, c := range sortedKeys(byClass) {
		l := byClass[c]
		fmt.Fprintf(log, "  %-8s n=%-4d p50=%.4fs p90=%.4fs max=%.4fs\n", c, len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 1))
	}
	if c := p.svc; c != nil {
		fmt.Fprintf(log, "  offered %.2f ops/s over %d scheduled operations, %d connections; send lag p90=%.4fs (bound %.2fs); rejections=%d\n",
			c.offeredPerSec, c.scheduledOps, c.connectionsMax, quantile(c.sendLags, 0.9), c.sendLagBound, c.rejections)
	}
	for _, f := range p.failures {
		fmt.Fprintf(log, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(log, "  run digest %s\n", p.runDigest())
}

// runDigest folds the per-operation result digests, in operation order.
func (p *pass) runDigest() string {
	ds := make([]string, len(p.ops))
	for i, o := range p.ops {
		ds[i] = o.digest
	}
	return digestStrings(ds)
}

// writeTrace writes the traced pass's spans and the run's digests.
func (p *pass) writeTrace(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	digests := make([]string, len(p.ops))
	for i, o := range p.ops {
		digests[i] = o.class + ":" + o.digest
	}
	body, err := json.MarshalIndent(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Digests  []string `json:"digests"`
		Spans    []span   `json:"spans"`
	}{cfg.workload, cfg.seed, digests, p.tr.snapshot()}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}

// heapSampler tracks the peak live heap (runtime/metrics
// /gc/heap/live:bytes) while it is active.
type heapSampler struct {
	active atomic.Bool
	peak   atomic.Uint64
	stop   chan struct{}
	wg     sync.WaitGroup
}

const metricLiveHeap = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			if !h.active.Load() {
				continue
			}
			v := liveHeap()
			for {
				cur := h.peak.Load()
				if v <= cur || h.peak.CompareAndSwap(cur, v) {
					break
				}
			}
		}
	}()
	return h
}

// take returns the peak seen so far and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// liveHeap reads the live heap bytes as of the last collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: metricLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counters.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
