package main

import (
	"sort"
	"sync"
	"time"

	"holistic/internal/core"
	"holistic/internal/pli"
)

// span is one timed interval of a traced pass. Every span of one operation
// carries the operation's ID; Parent links a phase span to the span that
// was open around it (0 for an operation's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the pass began
	End    float64 `json:"end_s"`
	// Checks and Cache are the counts the engine reported while this span
	// was the innermost open one.
	Checks int64           `json:"checks,omitempty"`
	Cache  *pli.CacheStats `json:"cache,omitempty"`
	// Rows and FDs describe an operation's input and result (root spans).
	Rows int `json:"rows,omitempty"`
	FDs  int `json:"fds,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps a pass's spans in memory; they are written out when the run
// ends. It is safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.epoch).Seconds() }

// open starts a span and returns its ID.
func (t *tracer) open(op, parent int, name string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(start)})
	return id
}

// close ends span id at end.
func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = t.at(end)
	t.mu.Unlock()
}

// add records a finished span and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	id := t.open(op, parent, name, start)
	t.close(id, end)
	return id
}

// count attributes engine counts to span id.
func (t *tracer) count(id int, checks int64, cache *pli.CacheStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Checks += checks
	if cache != nil {
		if s.Cache == nil {
			s.Cache = &pli.CacheStats{}
		}
		addCache(s.Cache, *cache)
	}
}

// describe sets the input rows and result FD count of root span id.
func (t *tracer) describe(id, rows, fds int) {
	t.mu.Lock()
	t.spans[id-1].Rows = rows
	t.spans[id-1].FDs = fds
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func addCache(dst *pli.CacheStats, s pli.CacheStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Entries += s.Entries
	dst.Bytes += s.Bytes
	dst.Intersections += s.Intersections
	dst.FastChecks += s.FastChecks
	dst.Materializations += s.Materializations
	dst.SampledRefutations += s.SampledRefutations
}

// phaseLayer names the span of an engine phase after the layer that does
// its work; the per-layer metrics aggregate spans by these names.
func phaseLayer(phase string) string {
	switch phase {
	case core.PhaseLoad:
		return "relation.load"
	case core.PhaseSpider:
		return "ind.spider"
	case core.PhaseDucc:
		return "ucc.ducc"
	case core.PhaseMinimizeFDs:
		return "core.minimize_fds"
	case core.PhaseCalculateRZ:
		return "core.calculate_rz"
	case core.PhaseGenerateShadowed, core.PhaseMinimizeShadowed:
		return "core.shadowed"
	case core.PhaseCompletionSweep:
		return "core.completion_sweep"
	case core.PhaseAppend:
		return "incremental.append"
	case core.PhaseRevalidate:
		return "incremental.revalidate"
	case core.PhaseUCCRepair:
		return "incremental.ucc_repair"
	case core.PhaseFDRepair:
		return "incremental.fd_repair"
	case core.PhaseINDDelta:
		return "incremental.ind_delta"
	}
	return "phase." + phase
}

// spanObserver is the benchmark's core.Observer: it turns the engine's
// phase events into child spans of one operation span and attributes
// check and cache counts to the innermost open span.
type spanObserver struct {
	core.NopObserver
	tr   *tracer
	op   int
	root int

	mu  sync.Mutex
	cur int
}

func newSpanObserver(tr *tracer, op, root int) *spanObserver {
	return &spanObserver{tr: tr, op: op, root: root, cur: root}
}

// PhaseStart implements core.Observer.
func (o *spanObserver) PhaseStart(name string) {
	now := time.Now()
	o.mu.Lock()
	o.cur = o.tr.open(o.op, o.root, phaseLayer(name), now)
	o.mu.Unlock()
}

// PhaseEnd implements core.Observer.
func (o *spanObserver) PhaseEnd(string, time.Duration) {
	now := time.Now()
	o.mu.Lock()
	if o.cur != o.root {
		o.tr.close(o.cur, now)
	}
	o.cur = o.root
	o.mu.Unlock()
}

// Checks implements core.Observer.
func (o *spanObserver) Checks(delta int) {
	o.mu.Lock()
	o.tr.count(o.cur, int64(delta), nil)
	o.mu.Unlock()
}

// CacheStats implements core.Observer.
func (o *spanObserver) CacheStats(stats pli.CacheStats) {
	o.mu.Lock()
	o.tr.count(o.cur, 0, &stats)
	o.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
