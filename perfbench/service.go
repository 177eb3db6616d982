package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/relation"
	"holistic/internal/server"
)

// serviceShape is the service-mixed traffic: an open loop on a fixed,
// seeded schedule, sent from this process over at most `connections`
// concurrent connections to a server with default settings.
type serviceShape struct {
	// Reads: plain POST /v1/jobs with inline CSV, one every readEvery, each
	// on a seeded choice of uniprot-shaped readRows×10 or ncvoter-shaped
	// readRows×readCols relation. repeatShare of them resubmit, byte for
	// byte, a dataset first sent at least repeatMinAge earlier, so the
	// result cache answers them.
	readRows, readCols int
	readEvery          time.Duration
	repeatShare        float64
	repeatMinAge       time.Duration
	// Writes: `sessions` dataset sessions on ncvoter-shaped
	// baseRows×baseCols relations, each appending a batch of batchRows
	// new rows every appendEvery, and reading its profile at the end.
	sessions           int
	baseRows, baseCols int
	batchRows          int
	appendEvery        time.Duration
	// pollEvery is how often the client asks for a job's state.
	pollEvery   time.Duration
	connections int
	// sendLagBound is the largest p90 generator lag, in seconds, of a
	// valid run.
	sendLagBound float64
	// limit is the latency, in seconds, a failed or refused operation is
	// counted with.
	limit float64
}

type opKind int

const (
	kindRead opKind = iota
	kindCreate
	kindAppend
	kindProfile
)

var kindClass = [...]string{"read", "create", "append", "profile"}

// schedOp is one scheduled request of the open loop.
type schedOp struct {
	at     time.Duration // send time, from the start of the schedule
	kind   opKind
	body   []byte
	input  int  // read: index of its dataset in schedule.inputs
	repeat bool // read: resubmits an earlier dataset
	sess   *session
	cells  int64
	// Operations of one session run in order: each waits for its
	// predecessor (after) and signals its successor (done).
	after, done chan struct{}
}

// session is one dataset session of the schedule.
type session struct {
	name    string
	header  string
	base    []string // CSV lines of the initial rows
	batches [][]string
	last    *schedOp

	mu      sync.Mutex
	id      string // dataset ID, known once the create op succeeded
	applied int    // batches appended successfully, in order
}

// schedule is the generated traffic of one pass.
type schedule struct {
	ops    []*schedOp
	inputs []string // CSV of each distinct read dataset
}

// buildSchedule generates every request body of the pass from the seed:
// the same seed gives byte-identical CSVs and the same schedule.
func buildSchedule(cfg config, sh serviceShape) (*schedule, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	window := time.Duration(cfg.seconds * float64(time.Second))
	readRows := scaled(sh.readRows, cfg.scale, 20)
	s := &schedule{}
	// Decide the reads first: every repeatEvery-th read (once an old enough
	// dataset exists) resubmits a seeded choice among the earlier ones, so
	// the repeat share is exact; the others get a fresh dataset of a seeded
	// shape.
	repeatEvery := int(math.Round(1 / sh.repeatShare))
	var (
		reads     []*schedOp
		uniprot   []bool // shape of each distinct dataset
		firstSent []time.Duration
	)
	for k := 0; ; k++ {
		at := time.Duration(k)*sh.readEvery + jitter(rng, sh.readEvery)
		if at >= window {
			break
		}
		op := &schedOp{at: at, kind: kindRead}
		eligible := 0
		for eligible < len(firstSent) && firstSent[eligible] <= at-sh.repeatMinAge {
			eligible++
		}
		if k%repeatEvery == repeatEvery-1 && eligible > 0 {
			op.input, op.repeat = rng.Intn(eligible), true
		} else {
			op.input = len(uniprot)
			uniprot = append(uniprot, rng.Intn(2) == 0)
			firstSent = append(firstSent, at)
		}
		reads = append(reads, op)
	}
	// Then generate the distinct datasets, in parallel: each has its own
	// seed, so the bytes do not depend on the order.
	s.inputs = make([]string, len(uniprot))
	bodies := make([][]byte, len(uniprot))
	cells := make([]int64, len(uniprot))
	errs := make([]error, len(uniprot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(uniprot); j = int(next.Add(1) - 1) {
				var rel *relation.Relation
				if uniprot[j] {
					rel = dataset.UniprotSeeded(readRows, opSeed(cfg.seed, j))
				} else {
					rel = dataset.NCVoterSeeded(readRows, sh.readCols, opSeed(cfg.seed, j))
				}
				s.inputs[j], errs[j] = csvText(rel)
				if errs[j] == nil {
					bodies[j], errs[j] = json.Marshal(map[string]string{"csv": s.inputs[j]})
				}
				cells[j] = int64(rel.NumRows()) * int64(rel.NumColumns())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, op := range reads {
		op.body = bodies[op.input]
		if !op.repeat {
			op.cells = cells[op.input]
		}
		s.ops = append(s.ops, op)
	}

	baseRows := scaled(sh.baseRows, cfg.scale, 20)
	batchRows := scaled(sh.batchRows, cfg.scale, 2)
	// Session i sends in the i-th of `sessions` equal slots of every
	// appendEvery period, at a seeded point of the slot: arrivals are
	// spread at random relative to the reads, and one session's requests
	// stay at least three slots apart.
	slot := sh.appendEvery / time.Duration(sh.sessions)
	for i := 0; i < sh.sessions; i++ {
		create := slot*time.Duration(i) + jitter(rng, slot)
		var appendsAt []time.Duration
		for j := 1; ; j++ {
			at := slot*time.Duration(i) + sh.appendEvery*time.Duration(j) + jitter(rng, slot)
			if at >= window {
				break
			}
			appendsAt = append(appendsAt, at)
		}
		rel := dataset.NCVoterSeeded(baseRows+batchRows*len(appendsAt), sh.baseCols, opSeed(cfg.seed, 1_000_000+i))
		csv, err := csvText(rel)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
		sess := &session{name: fmt.Sprintf("session-%d", i), header: lines[0]}
		rows := lines[1:]
		sess.base = rows[:min(baseRows, len(rows))]
		rows = rows[len(sess.base):]
		body, err := json.Marshal(map[string]string{"csv": joinLines(sess.header, sess.base), "dataset": sess.name})
		if err != nil {
			return nil, err
		}
		prev := &schedOp{at: create, kind: kindCreate, body: body, sess: sess,
			cells: int64(len(sess.base)) * int64(rel.NumColumns()), done: make(chan struct{})}
		s.ops = append(s.ops, prev)
		for _, at := range appendsAt {
			batch := rows[:min(batchRows, len(rows))]
			rows = rows[len(batch):]
			if len(batch) == 0 {
				break // the generator removed duplicate rows; nothing left to append
			}
			sess.batches = append(sess.batches, batch)
			body, err := json.Marshal(map[string]string{"csv": joinLines("", batch)})
			if err != nil {
				return nil, err
			}
			op := &schedOp{at: at, kind: kindAppend, body: body, sess: sess,
				cells: int64(len(batch)) * int64(rel.NumColumns()), after: prev.done, done: make(chan struct{})}
			s.ops = append(s.ops, op)
			prev = op
		}
		sess.last = prev
		s.ops = append(s.ops, &schedOp{at: window + sh.readEvery/4, kind: kindProfile, sess: sess, after: prev.done})
	}
	sort.SliceStable(s.ops, func(i, j int) bool { return s.ops[i].at < s.ops[j].at })
	return s, nil
}

// jitter is a seeded offset in [0, d).
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return time.Duration(rng.Int63n(int64(d)))
}

func csvText(rel *relation.Relation) (string, error) {
	var b strings.Builder
	if err := rel.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// joinLines joins CSV lines, after an optional header, into one CSV text.
func joinLines(header string, lines []string) string {
	var b strings.Builder
	if header != "" {
		b.WriteString(header)
		b.WriteByte('\n')
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// liveServer is a server.Server behind a loopback listener.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func openServer(stateDir string) (*liveServer, error) {
	srv, _, err := server.Open(server.Config{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	return ls, nil
}

// close stops the listener and the server, waiting for both.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	<-ls.done
	return errors.Join(err, ls.srv.Shutdown(ctx))
}

// serviceSetups is how often a service pass sets up; setup_s is the median.
const serviceSetups = 3

// serviceRunner drives the open loop against a fresh server, then checks
// every result against HFUN outside the timed window.
func serviceRunner(sh serviceShape) func(context.Context, config, bool) (*pass, error) {
	return func(ctx context.Context, cfg config, traced bool) (*pass, error) {
		p := &pass{latencyLimit: sh.limit}
		var (
			sched *schedule
			ls    *liveServer
		)
		for k := 0; k < serviceSetups; k++ {
			if ls != nil {
				if err := ls.close(); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			t := time.Now()
			var err error
			if sched, err = buildSchedule(cfg, sh); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			stateDir := filepath.Join(cfg.workDir, fmt.Sprintf("state-%t-%d", traced, k))
			if ls, err = openServer(stateDir); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			p.setup = append(p.setup, time.Since(t).Seconds())
		}
		defer ls.close()

		c := newClient(ls.url, sh)
		defer c.http.CloseIdleConnections()
		before, err := c.metrics(ctx)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		heap := startHeapSampler(time.Millisecond)
		defer heap.close()
		heap.active.Store(true)
		alloc0, gc0 := runtimeCounters()

		runCtx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds*float64(time.Second))+120*time.Second)
		defer cancel()
		epoch := time.Now()
		outs := make([]*opResult, len(sched.ops))
		var wg sync.WaitGroup
		for i, op := range sched.ops {
			time.Sleep(time.Until(epoch.Add(op.at)))
			wg.Add(1)
			go func(i int, op *schedOp) {
				defer wg.Done()
				outs[i] = c.do(runCtx, op, epoch.Add(op.at))
			}(i, op)
		}
		wg.Wait()
		end := time.Now()
		alloc1, gc1 := runtimeCounters()
		// The retained state grows over the window, so its last sample is
		// taken exactly, by a collection at the window's end, rather than
		// left to where the last collection happened to fall.
		runtime.GC()
		heap.active.Store(false)
		p.peakHeap = max(heap.take(), liveHeap())
		p.allocBytes, p.gcCycles = alloc1-alloc0, gc1-gc0
		p.window = end.Sub(epoch).Seconds()

		after, err := c.metrics(ctx)
		if err != nil {
			return nil, err
		}
		p.svc = &serviceCounters{
			metricsDelta:   map[string]float64{},
			sendLagBound:   sh.sendLagBound,
			scheduledOps:   len(sched.ops),
			offeredPerSec:  float64(len(sched.ops)) / cfg.seconds,
			connectionsMax: sh.connections,
		}
		for k, v := range after {
			p.svc.metricsDelta[k] = v - before[k]
		}
		if traced {
			p.tr = newTracer(epoch)
		}
		t := time.Now()
		if err := p.collect(ctx, cfg, c, sched, outs); err != nil {
			return nil, err
		}
		p.gateSeconds = time.Since(t).Seconds()
		if lag := quantile(p.svc.sendLags, 0.9); lag > sh.sendLagBound {
			return nil, fmt.Errorf("%w: generator p90 send lag %.3fs is beyond the %.2fs bound", errInvalidRun, lag, sh.sendLagBound)
		}
		return p, nil
	}
}

// collect turns the operation outcomes into samples, spans (traced
// passes) and gate verdicts. It runs after the timed window.
func (p *pass) collect(ctx context.Context, cfg config, c *client, sched *schedule, outs []*opResult) error {
	refs := map[int]*core.Report{}
	index := map[*schedOp]int{} // sample index of each operation
	refOf := func(csv string) (*core.Report, error) {
		rel, err := relation.ReadCSV("reference", strings.NewReader(csv), relation.CSVOptions{Comma: ',', HasHeader: true})
		if err != nil {
			return nil, err
		}
		return reference(ctx, rel)
	}
	for i, op := range sched.ops {
		out := outs[i]
		if out.rejected {
			p.svc.rejections++
		}
		if !out.sent.IsZero() {
			p.svc.sendLags = append(p.svc.sendLags, out.sent.Sub(out.ready).Seconds())
		}
		if op.kind == kindProfile {
			if err := p.checkSession(ctx, cfg, op.sess, out, refOf, index[op.sess.last]); err != nil {
				return err
			}
			continue
		}
		if op.kind == kindAppend {
			p.svc.appends++
		}
		s := opSample{class: kindClass[op.kind], latency: out.end.Sub(out.due).Seconds(), ok: out.err == ""}
		if out.report != nil && cfg.corrupt {
			corruptReport(out.report)
		}
		if s.ok {
			s.digest = digest(out.report)
			if !out.cacheHit {
				s.cells = op.cells
			}
			var want *core.Report
			switch op.kind {
			case kindRead:
				if want = refs[op.input]; want == nil {
					r, err := refOf(sched.inputs[op.input])
					if err != nil {
						return err
					}
					refs[op.input], want = r, r
				}
			case kindCreate:
				r, err := refOf(joinLines(op.sess.header, op.sess.base))
				if err != nil {
					return err
				}
				want = r
			}
			if want != nil {
				if diff := compare(out.report, want); diff != "" {
					out.err = "result differs from HFUN: " + diff
					s.ok = false
				}
			}
		}
		if out.err != "" {
			p.fail("%s at %.2fs: %s", s.class, op.at.Seconds(), out.err)
			s.ok = false
		}
		p.ops = append(p.ops, s)
		index[op] = len(p.ops) - 1
		if p.tr != nil {
			if err := p.traceOp(ctx, c, len(p.ops), op, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSession compares a session's final profile with a from-scratch HFUN
// profile of its base rows plus the batches it applied. A mismatch fails
// the session's last operation.
func (p *pass) checkSession(ctx context.Context, cfg config, sess *session, out *opResult, refOf func(string) (*core.Report, error), last int) error {
	sess.mu.Lock()
	applied := sess.applied
	sess.mu.Unlock()
	verdict := out.err
	if verdict == "" {
		rows := append([]string(nil), sess.base...)
		for _, b := range sess.batches[:applied] {
			rows = append(rows, b...)
		}
		want, err := refOf(joinLines(sess.header, rows))
		if err != nil {
			return err
		}
		if cfg.corrupt {
			corruptReport(out.report)
		}
		if diff := compare(out.report, want); diff != "" {
			verdict = "final profile differs from HFUN from scratch: " + diff
		}
	}
	if verdict == "" {
		return nil
	}
	p.fail("%s: %s", sess.name, verdict)
	p.ops[last].ok = false // the verdict lands on the session's last operation
	return nil
}

// traceOp records operation op's spans: the client-side wait, admission,
// queue wait and run (with the engine phase spans from the job's event
// stream, which carries the server's core.Observer events) and the fetch.
func (p *pass) traceOp(ctx context.Context, c *client, id int, op *schedOp, out *opResult) error {
	tr := p.tr
	root := tr.open(id, 0, "op."+kindClass[op.kind], out.due)
	tr.close(root, out.end)
	if !out.sent.IsZero() {
		tr.add(id, root, "client.send_wait", out.due, out.sent)
		if !out.accepted.IsZero() {
			tr.add(id, root, "server.admit", out.sent, out.accepted)
		}
	}
	if !out.fetchStart.IsZero() {
		tr.add(id, root, "server.fetch", out.fetchStart, out.end)
	}
	if out.report != nil {
		tr.describe(root, out.report.Rows, len(out.report.FDs))
	}
	v := out.view
	if v == nil || out.cacheHit || v.StartedAt == nil || v.FinishedAt == nil {
		return nil
	}
	tr.add(id, root, "server.queue", v.SubmittedAt, *v.StartedAt)
	run := tr.add(id, root, "server.run", *v.StartedAt, *v.FinishedAt)
	events, err := c.events(ctx, v.ID)
	if err != nil {
		return err
	}
	cur := run
	for _, e := range events {
		switch e.Type {
		case core.EventPhaseStart:
			cur = tr.open(id, run, phaseLayer(e.Phase), e.Time)
		case core.EventPhaseEnd:
			if cur != run {
				tr.close(cur, e.Time)
			}
			cur = run
		case core.EventChecks:
			tr.count(cur, int64(e.Checks), nil)
		case core.EventCacheStats:
			tr.count(cur, 0, e.Cache)
		}
	}
	return nil
}

// client is the open-loop load generator's HTTP side.
type client struct {
	base string
	http *http.Client
	sh   serviceShape
}

func newClient(base string, sh serviceShape) *client {
	return &client{base: base, sh: sh, http: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     sh.connections,
		MaxIdleConnsPerHost: sh.connections,
		DisableCompression:  true,
	}}}
}

// opResult is what the client saw of one operation.
type opResult struct {
	due, ready time.Time // scheduled send; predecessor done (>= due)
	sent       time.Time // connection obtained for the first request
	accepted   time.Time // first response received
	fetchStart time.Time // start of the request that returned the result
	end        time.Time // result in hand (or failure seen)
	view       *server.JobView
	report     *core.Report
	cacheHit   bool
	rejected   bool
	err        string
}

// do runs one scheduled operation. Its latency counts from due, so a stall
// anywhere also delays the operations scheduled behind it.
func (c *client) do(ctx context.Context, op *schedOp, due time.Time) *opResult {
	out := &opResult{due: due}
	if op.done != nil {
		defer close(op.done)
	}
	// ready is when the operation could be sent: its due time, or when its
	// session predecessor finished if that was later. Sending later than
	// ready is generator lag.
	out.ready = due
	if op.after != nil {
		select {
		case <-op.after:
		default:
			select {
			case <-op.after:
			case <-ctx.Done():
			}
			out.ready = time.Now()
		}
	}
	defer func() { out.end = time.Now() }()
	if err := c.start(ctx, op, out); err != nil {
		out.err = err.Error()
		return out
	}
	if out.view == nil || out.report != nil {
		return out
	}
	for !terminalState(out.view.State) {
		select {
		case <-time.After(c.sh.pollEvery):
		case <-ctx.Done():
			out.err = ctx.Err().Error()
			return out
		}
		out.fetchStart = time.Now()
		var v server.JobView
		if _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+out.view.ID, nil, &v, nil); err != nil {
			out.err = err.Error()
			return out
		}
		out.view = &v
	}
	switch {
	case out.view.State != server.StateDone:
		out.err = fmt.Sprintf("job %s ended %s: %s", out.view.ID, out.view.State, out.view.Error)
	case out.view.Result == nil:
		out.err = fmt.Sprintf("job %s has no result", out.view.ID)
	default:
		out.report = out.view.Result
		if op.sess == nil {
			break
		}
		// A session job is finished for its client once the session
		// accepts the next write: the server publishes the job's terminal
		// state before it journals that state and releases the dataset,
		// and a batch sent in between is refused with 409.
		if err := c.awaitReady(ctx, op.sess); err != nil {
			out.err = err.Error()
			break
		}
		if op.kind == kindAppend {
			op.sess.mu.Lock()
			op.sess.applied++
			op.sess.mu.Unlock()
		}
	}
	return out
}

// awaitReady polls a session until it is ready for the next write.
func (c *client) awaitReady(ctx context.Context, sess *session) error {
	sess.mu.Lock()
	id := sess.id
	sess.mu.Unlock()
	for {
		var d server.DatasetView
		if _, err := c.call(ctx, http.MethodGet, "/v1/datasets/"+id, nil, &d, nil); err != nil {
			return err
		}
		switch d.State {
		case server.DatasetReady:
			return nil
		case server.DatasetFailed:
			return fmt.Errorf("%s (%s) failed: %s", sess.name, id, d.Error)
		}
		select {
		case <-time.After(c.sh.pollEvery):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// start sends the operation's first request and records the job it
// created (or, for a profile read, the report).
func (c *client) start(ctx context.Context, op *schedOp, out *opResult) error {
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) {
		if out.sent.IsZero() {
			out.sent = time.Now()
		}
	}}
	ctx = httptrace.WithClientTrace(ctx, trace)
	sessionID := func() (string, error) {
		op.sess.mu.Lock()
		defer op.sess.mu.Unlock()
		if op.sess.id == "" {
			return "", fmt.Errorf("%s was not created", op.sess.name)
		}
		return op.sess.id, nil
	}
	var header http.Header
	switch op.kind {
	case kindRead:
		var v server.JobView
		code, err := c.call(ctx, http.MethodPost, "/v1/jobs", op.body, &v, nil)
		out.accepted = time.Now()
		if err != nil {
			out.rejected = rejectedStatus(code)
			return err
		}
		out.view = &v
		if code == http.StatusOK {
			out.cacheHit = v.CacheHit
			out.fetchStart = out.sent
			if v.State == server.StateDone && v.Result != nil {
				out.report = v.Result
			}
		}
	case kindCreate:
		var d server.DatasetView
		code, err := c.call(ctx, http.MethodPost, "/v1/datasets", op.body, &d, nil)
		out.accepted = time.Now()
		if err != nil {
			out.rejected = rejectedStatus(code)
			return err
		}
		if len(d.JobIDs) == 0 {
			return fmt.Errorf("dataset %s: no job", d.ID)
		}
		op.sess.mu.Lock()
		op.sess.id = d.ID
		op.sess.mu.Unlock()
		out.view = &server.JobView{ID: d.JobIDs[len(d.JobIDs)-1], State: server.StateQueued}
	case kindAppend:
		id, err := sessionID()
		if err != nil {
			return err
		}
		header = http.Header{}
		code, err := c.call(ctx, http.MethodPost, "/v1/datasets/"+id+"/batches", op.body, nil, header)
		out.accepted = time.Now()
		if err != nil {
			out.rejected = rejectedStatus(code)
			return err
		}
		out.view = &server.JobView{ID: path.Base(header.Get("Location")), State: server.StateQueued}
	case kindProfile:
		id, err := sessionID()
		if err != nil {
			return err
		}
		var v server.DatasetProfileView
		if _, err := c.call(ctx, http.MethodGet, "/v1/datasets/"+id+"/profile", nil, &v, nil); err != nil {
			return err
		}
		out.accepted = time.Now()
		out.report = v.Report
	}
	return nil
}

func rejectedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable || code == http.StatusUnprocessableEntity
}

func terminalState(s string) bool {
	switch s {
	case server.StateDone, server.StatePartial, server.StateFailed, server.StateCanceled, server.StateLost:
		return true
	}
	return false
}

// call sends one request and decodes a 2xx JSON response into into. It
// returns the status code; any other status is an error. When header is
// non-nil the response headers are copied into it.
func (c *client) call(ctx context.Context, method, path string, body []byte, into any, header http.Header) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	for k, v := range resp.Header {
		if header != nil {
			header[k] = v
		}
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// events reads a finished job's full event stream.
func (c *client) events(ctx context.Context, id string) ([]server.JobEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of job %s: %s", id, resp.Status)
	}
	var out []server.JobEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var e server.JobEvent
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("events of job %s: %w", id, err)
		}
		out = append(out, e)
	}
}

// metrics reads the server's /metrics exposition, summing each metric's
// samples over their labels.
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
