// Package server turns the holistic profiling library into a long-running
// service: an HTTP/JSON job API layered over a bounded admission queue, a
// worker pool that drives the engine's strategy registry, a
// content-addressed result cache keyed by dataset bytes, and per-job
// progress streams adapted from the engine's Observer events.
//
// The layering (queue → workers → registry → PLI cache → result cache)
// exists because dependency discovery is exponential in the worst case:
// admission control and per-job deadlines bound the damage of a hostile
// dataset, while the result cache extends the paper's share-everything idea
// across requests — byte-identical submissions never touch the lattice
// twice.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/core"
	"holistic/internal/faults"
)

// Config tunes a Server. The zero value selects sensible defaults
// everywhere: 2 workers, a queue of 16, a 5-minute job deadline, inline-only
// submissions, 256 cached reports, 32 MiB request bodies.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0 selects 2).
	// Each job may additionally fan out internally via its workers option.
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with 429 (<= 0 selects 16).
	QueueDepth int
	// DefaultTimeout is the per-job deadline applied when a request does not
	// ask for one (0 selects 5 minutes; negative disables the default).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested deadlines (0 = no cap).
	MaxTimeout time.Duration
	// DataDir enables path-based submissions, resolved inside this
	// directory. Empty disables them: only inline CSV is accepted.
	DataDir string
	// CacheEntries bounds the content-addressed result cache (<= 0 selects
	// 256 reports).
	CacheEntries int
	// MaxBodyBytes bounds request bodies (<= 0 selects 32 MiB).
	MaxBodyBytes int64
	// MaxRetainedJobs bounds the terminal job records kept for status
	// queries; the oldest finished jobs are dropped first (<= 0 selects
	// 1024).
	MaxRetainedJobs int
	// MaxCacheBytes is the default PLI-cache byte budget applied to jobs
	// that do not set max_cache_bytes themselves (0 = engine default,
	// < 0 = unbudgeted).
	MaxCacheBytes int64
	// RetryAttempts bounds how often a job failing on a transient error is
	// re-run on its worker slot before it is finished as failed (0 selects
	// 2; negative disables retries).
	RetryAttempts int
	// RetryBackoff is the sleep before the first retry, doubled per attempt
	// (<= 0 selects 50ms).
	RetryBackoff time.Duration
	// DegradedAfter is the watchdog threshold: after this many consecutive
	// jobs failing on recovered panics, /healthz reports degraded until a
	// job completes cleanly again (<= 0 selects 3).
	DegradedAfter int
	// QueueTarget is the CoDel sojourn target of the adaptive admission
	// controller: when dequeue-time queue wait stays above it for a full
	// target-length interval, the oldest queued job is shed (<= 0 selects
	// 2s; set very large to effectively disable shedding).
	QueueTarget time.Duration
	// BreakerThreshold is the consecutive-failure count at which the
	// per-(dataset, algorithm) circuit breaker opens (<= 0 selects 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fast-fails with 422
	// before half-opening for a single trial probe (<= 0 selects 30s).
	BreakerCooldown time.Duration
	// MemSoftBytes is the soft heap watermark: above it, newly admitted
	// jobs run degraded — PLI cache budget clamped to DegradedCacheBytes,
	// sampled-check prefilter forced on (0 disables).
	MemSoftBytes int64
	// MemHardBytes is the hard heap watermark: above it, submissions of
	// LargeJobBytes or more are refused with 503 until pressure recedes
	// (0 disables).
	MemHardBytes int64
	// DegradedCacheBytes is the PLI cache budget forced onto jobs admitted
	// above the soft watermark (<= 0 selects 16 MiB). A job's own tighter
	// budget wins.
	DegradedCacheBytes int64
	// LargeJobBytes is the dataset size at which a submission counts as
	// large for the hard-watermark gate (<= 0 selects 256 KiB).
	LargeJobBytes int64
	// StateDir enables crash-safe state: every admitted job and dataset
	// session is journaled to a WAL in this directory, dataset profiler
	// state is checkpointed after every completed job, and Open replays the
	// directory on startup so sessions and job outcomes survive a kill -9.
	// Empty keeps the server fully in-memory.
	StateDir string
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 2
	}
	if c.RetryAttempts < 0 {
		c.RetryAttempts = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 3
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.DegradedCacheBytes <= 0 {
		c.DegradedCacheBytes = 16 << 20
	}
	if c.LargeJobBytes <= 0 {
		c.LargeJobBytes = 256 << 10
	}
}

// Server is the profiling service. Create one with New, expose Handler on an
// http.Server, and stop it with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *resultCache
	metrics metrics

	// baseCtx parents every job context; cancelRuns aborts all in-flight
	// jobs (the forced half of shutdown).
	baseCtx    context.Context
	cancelRuns context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	// Overload-resilience subsystems: the adaptive admission controller
	// (service-time EWMAs + CoDel shedding), the per-key circuit breakers,
	// and the memory-watermark governor.
	admission *admission
	breakers  *breakerSet
	governor  *memGovernor

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // submission order, for retention eviction
	nextID   int64
	// idem maps idempotency keys onto their jobs for the retained lifetime
	// of the job: a retried submission with a known key replays the
	// existing job instead of enqueueing a duplicate. Rebuilt from the
	// journal on recovery.
	idem map[string]*job

	// datasets are the server's incremental profiling sessions (see
	// dataset.go). They are keyed by id and live for the server's lifetime:
	// unlike finished jobs, a dataset holds warm state that future batch
	// appends extend, so there is no retention eviction.
	datasets map[string]*dataset
	dsOrder  []string // creation order, for listing
	nextDSID int64

	// consecutivePanics drives the health watchdog: incremented when a job
	// fails on a recovered panic, reset when one completes cleanly. At
	// cfg.DegradedAfter, /healthz flips to degraded.
	consecutivePanics atomic.Int64

	// store is the durability layer behind Config.StateDir (nil without it).
	// crashed is the kill -9 test hook: set, it suppresses the drain-time
	// finalization so on-disk state looks exactly like a crash.
	store   *store
	crashed atomic.Bool

	shutdownOnce sync.Once
	finalizeOnce sync.Once
}

// New builds a Server with cfg and starts its worker pool. With
// Config.StateDir set, use Open instead: New panics on a recovery error
// (only reachable with a state directory) and discards the recovery stats.
func New(cfg Config) *Server {
	s, _, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds a Server with cfg, replays Config.StateDir (when set) to
// restore dataset sessions and journaled jobs from before the last stop, and
// starts the worker pool. Jobs that were queued or running at the crash are
// re-enqueued (plain jobs) or finished as lost (dataset jobs) before any new
// submission is admitted.
func Open(cfg Config) (*Server, RecoveryStats, error) {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		cache:      newResultCache(cfg.CacheEntries),
		baseCtx:    ctx,
		cancelRuns: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
		idem:       make(map[string]*job),
		datasets:   make(map[string]*dataset),
		admission:  newAdmission(cfg.Workers, cfg.QueueTarget),
		breakers:   newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		governor:   newMemGovernor(cfg.MemSoftBytes, cfg.MemHardBytes),
	}
	s.routes()

	var stats RecoveryStats
	if cfg.StateDir != "" {
		st, replay, err := openStore(cfg.StateDir)
		if err != nil {
			cancel()
			return nil, stats, fmt.Errorf("open state dir %s: %w", cfg.StateDir, err)
		}
		s.store = st
		var requeue []*job
		stats, requeue = s.recoverState(replay)
		// Replayed jobs enter the queue before the workers start, so they run
		// ahead of anything admitted over HTTP. More in-flight jobs than the
		// (possibly reconfigured) queue holds cannot be re-admitted — those
		// are finished as lost rather than silently dropped.
		for _, j := range requeue {
			select {
			case s.queue <- j:
			default:
				s.finish(j, StateLost, "replay: admission queue full", nil)
			}
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, stats, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.handleGetDataset)
	s.mux.HandleFunc("POST /v1/datasets/{id}/batches", s.handleAppendBatch)
	s.mux.HandleFunc("GET /v1/datasets/{id}/profile", s.handleGetProfile)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler returns the HTTP handler serving the job API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Shutdown drains the server: admission switches to 503, still-queued jobs
// are canceled immediately, and in-flight jobs run on. When ctx expires
// before they finish, their contexts are canceled and Shutdown returns
// ctx.Err() after they unwind; a clean drain returns nil. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		var queued []*job
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == StateQueued {
				queued = append(queued, j)
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		for _, j := range queued {
			s.cancelIfQueued(j, "server shutting down")
		}
		// No submission can be mid-send once draining is visible (the
		// non-blocking send happens under s.mu), so closing is safe.
		close(s.queue)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRuns()
		<-done
		err = ctx.Err()
	}
	// Every worker has unwound: no job can journal or checkpoint behind our
	// back anymore, so the durable state can be finalized (final checkpoints,
	// clean-shutdown marker, WAL close). Exactly once across repeated calls.
	s.finalizeOnce.Do(s.finalizeStore)
	return err
}

// --- job lifecycle ---

// runJob executes one queued job on a worker goroutine. Failure containment
// happens here: strategy panics come back from the engine as *core.PanicError
// (the worker pool and the daemon survive), transient errors are retried with
// backoff on the same worker slot, and a run stopped by its deadline finishes
// as partial with the anytime result it accumulated instead of discarding it.
func (s *Server) runJob(j *job) {
	// Defense in depth: the engine already converts profiling panics into
	// errors, but a panic in the server's own post-processing (report
	// building, cache insertion) must not kill the worker goroutine either.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			s.consecutivePanics.Add(1)
			s.finish(j, StateFailed, fmt.Sprintf("internal panic: %v", r), nil)
		}
	}()

	// Dequeue-time overload accounting: the sojourn this job spent queued
	// feeds the queue-wait histogram and the CoDel state. When sojourn has
	// stayed above target for a full interval, the oldest still-queued job
	// is shed — the queue sheds from the head under sustained overload
	// instead of serving every job late.
	sojourn := time.Since(j.submitted)
	s.metrics.queueWait.observe(sojourn.Seconds())
	if s.admission.onDequeue(sojourn) {
		if shed := s.shedOldestQueued(); shed != "" {
			s.logf("overload: shed queued job %s (queue sojourn %v above target %v)",
				shed, sojourn.Round(time.Millisecond), s.cfg.QueueTarget)
		}
	}

	j.mu.Lock()
	if !j.claimLocked() { // canceled or shed while waiting
		j.mu.Unlock()
		return
	}
	// A job whose whole deadline elapsed in the queue is doomed: fail it
	// here with an honest message instead of starting a run that the
	// already-expired context would cut on its first cancellation check.
	if j.timeout > 0 && sojourn >= j.timeout {
		j.mu.Unlock()
		s.metrics.jobsDoomedInQueue.Add(1)
		s.finish(j, StateFailed, fmt.Sprintf("deadline (%v) elapsed after %v in queue; run never started — resubmit with a longer timeout or retry off-peak",
			j.timeout, sojourn.Round(time.Millisecond)), nil)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.timeout)
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()
	defer cancel()

	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateRunning})
	s.logf("job %s running: algorithm=%s dataset=%s", j.id, j.req.Algorithm, j.req.Dataset)

	obs := core.EventObserver{Sink: func(e core.Event) {
		j.events.append(JobEvent{Event: e})
	}}
	opts := j.req.options()
	if opts.MaxCacheBytes == 0 {
		opts.MaxCacheBytes = s.cfg.MaxCacheBytes
	}
	if j.degraded {
		// Admitted above the soft memory watermark: clamp the PLI cache
		// budget and force the sampled-check prefilter. Both trade wall time
		// for footprint without changing results (sampling only refutes, the
		// budget only evicts), so degraded-run reports are still cacheable.
		opts.SampleCheck = true
		if opts.MaxCacheBytes <= 0 || opts.MaxCacheBytes > s.cfg.DegradedCacheBytes {
			opts.MaxCacheBytes = s.cfg.DegradedCacheBytes
		}
	}

	var res *core.Result
	var report *core.Report
	var err error
	for attempt := 0; ; attempt++ {
		res, report, err = j.exec(ctx, j, opts, obs)
		// Batch jobs never retry: a transient failure mid-append may already
		// have mutated the relation, and re-running would fold rows in twice.
		if err == nil || j.kind == dsJobBatch || attempt >= s.cfg.RetryAttempts || !isTransient(err) || ctx.Err() != nil {
			break
		}
		s.metrics.jobRetries.Add(1)
		j.events.append(JobEvent{Event: core.Event{Type: EventRetry}, Attempt: attempt + 1, Error: err.Error()})
		s.logf("job %s transient failure (attempt %d/%d): %v", j.id, attempt+1, s.cfg.RetryAttempts, err)
		select {
		case <-time.After(s.cfg.RetryBackoff << attempt):
		case <-ctx.Done():
		}
	}

	// A recovered panic is surfaced in the event log with its stack and
	// feeds the health watchdog; clean completion resets the watchdog.
	var pe *core.PanicError
	if errors.As(err, &pe) {
		s.metrics.panics.Add(1)
		s.consecutivePanics.Add(1)
		j.events.append(JobEvent{Event: core.Event{Type: EventPanic}, Error: pe.Error(), Stack: pe.Stack})
	}

	switch {
	case err == nil:
		s.consecutivePanics.Store(0)
		s.finish(j, StateDone, "", report)
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, "canceled", nil)
	case errors.Is(err, context.DeadlineExceeded):
		msg := fmt.Sprintf("job deadline (%v) exceeded", j.timeout)
		if report, ok := partialReport(j, res); ok {
			s.finish(j, StatePartial, msg, report)
			return
		}
		s.finish(j, StateFailed, msg, nil)
	default:
		s.finish(j, StateFailed, err.Error(), nil)
	}
}

// runPlain is a plain job's exec: a from-scratch run whose report enters
// the content-addressed result cache.
func (s *Server) runPlain(ctx context.Context, j *job, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error) {
	res, err := core.RunContext(ctx, j.req.Algorithm, j.src, opts, obs)
	if err != nil {
		return res, nil, err
	}
	report := core.NewReport(j.src.Relation(), res, j.req.WithStats)
	s.cache.put(j.key, report)
	return res, report, nil
}

// partialReport renders the anytime result of an interrupted run, provided it
// actually contains findings — every dependency confirmed before the stop is
// valid (minimality is only guaranteed per confirmed dependency). A run that
// was cut before producing anything stays a plain failure. Partial reports
// never enter the content-addressed result cache: the same submission must
// re-profile, not replay an incomplete answer.
func partialReport(j *job, res *core.Result) (*core.Report, bool) {
	if res == nil || !res.Partial || j.src == nil {
		return nil, false
	}
	if len(res.INDs)+len(res.UCCs)+len(res.FDs) == 0 {
		return nil, false
	}
	return core.NewReport(j.src.Relation(), res, j.req.WithStats), true
}

// isTransient reports whether err is marked retryable anywhere in its chain
// (e.g. an injected transient fault, or an I/O layer flagging a temporary
// condition).
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// finish is the only terminal transition of an admitted job: a worker's
// verdict, a cancellation, shedding or a deadline spent in the queue, a
// result-cache hit, a replayed job that no longer fits the queue. Every job
// takes the same order: the end record is journaled, a dataset job's session
// is settled, and only then is the state published. A client that reads a
// terminal state therefore finds it durable, and one that reads "done" and at
// once posts the next batch finds the session free.
//
// The outcome feeds the overload controllers. Real service time trains the
// admission estimate of the job's service class, and the run's verdict
// settles its circuit breaker: success closes it, failure or a deadline
// blowout counts toward its threshold. A job that never ran, a canceled run
// and a lost one say nothing about the dataset and leave the breaker
// neutral, which also releases a half-open trial slot the job may hold.
func (s *Server) finish(j *job, state, errMsg string, report *core.Report) {
	end := walRecord{Type: recEnd, Job: j.id, State: state, Error: errMsg}
	if j.ds != nil {
		end.Dataset = j.ds.id
	}
	// Best-effort: the in-memory transition happens regardless, and recovery
	// degrades safely (a missing end record reads as a job in flight, never
	// as a wrong result).
	if err := s.journal(end); err != nil {
		s.logf("journal: end record for job %s: %v", j.id, err)
	}
	if j.ds != nil {
		j.ds.settle(state, errMsg)
	}
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.result = report
	j.finished = time.Now().UTC()
	started, finished := j.started, j.finished
	j.mu.Unlock()

	verdict := !started.IsZero() && (state == StateDone || state == StatePartial || state == StateFailed)
	if verdict {
		s.admission.observeService(j.serviceClass(), finished.Sub(started))
	}
	if j.breakerKey != (breakerKey{}) {
		switch {
		case !verdict:
			s.breakers.recordNeutral(j.breakerKey)
		case state == StateDone:
			s.breakers.recordSuccess(j.breakerKey)
		case s.breakers.recordFailure(j.breakerKey, errMsg, finished):
			s.logf("circuit breaker opened: sha=%s algorithm=%s after %q", j.breakerKey.sha[:12], j.breakerKey.alg, errMsg)
		}
	}

	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: state, Error: errMsg})
	j.events.close()
	switch state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StatePartial:
		s.metrics.jobsPartial.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	}
	s.logf("job %s %s%s", j.id, state, suffixIf(errMsg))
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// cancelIfQueued finishes a still-queued job as canceled; the worker that
// later pulls it off the queue finds it claimed and skips it. It is a no-op
// for running, terminal or already claimed jobs. The claim happens under the
// job lock, so it cannot interleave with a worker claiming the job.
func (s *Server) cancelIfQueued(j *job, reason string) bool {
	j.mu.Lock()
	claimed := j.claimLocked()
	j.mu.Unlock()
	if !claimed {
		return false
	}
	s.finish(j, StateCanceled, reason, nil)
	return true
}

// registerLocked adds j to the job table (s.mu held), evicting the oldest
// terminal records beyond the retention bound. It also maintains the
// idempotency-key table: the key maps onto the job for exactly the job's
// retained lifetime, so dedup and retention expire together (a replayed key
// whose job was evicted is simply a fresh submission again).
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.idem[j.idemKey] = j
	}
	s.order = append(s.order, j.id)
	for len(s.order) > s.cfg.MaxRetainedJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			old.mu.Lock()
			dead := terminal(old.state)
			old.mu.Unlock()
			if dead {
				delete(s.jobs, id)
				if old.idemKey != "" && s.idem[old.idemKey] == old {
					delete(s.idem, old.idemKey)
				}
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every retained job is still live; keep them all
		}
	}
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) jobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// shedOldestQueued cancels the oldest still-queued job — CoDel's head drop.
// Under sustained overload the stalest queued work has already burned most
// of its deadline and the freshest has the best chance of meeting its own,
// so the queue sheds from the head instead of serving everything late.
func (s *Server) shedOldestQueued() string {
	s.mu.Lock()
	var victim *job
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		queued := j.state == StateQueued && !j.claimed
		j.mu.Unlock()
		if queued {
			victim = j
			break
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return ""
	}
	if !s.cancelIfQueued(victim, "shed: queue wait stayed above target (server overloaded); retry later") {
		return ""
	}
	s.metrics.jobsShed.Add(1)
	return victim.id
}

// --- admission ---

// refusal is an admission rejection: decided under s.mu, written after it.
type refusal struct {
	status  int
	counter *atomic.Int64 // the per-reason rejection counter, if any
	retryIn float64       // seconds; the basis of the Retry-After header
	msg     string
}

// admit is the one admission path of POST /v1/jobs, POST /v1/datasets and
// POST /v1/datasets/{id}/batches. It writes every rejection itself — each
// with a Retry-After computed from the controller's wait estimate, or the
// breaker's cooldown — and an idempotent replay; on success the caller
// writes the 200 or 202. A cache-served job is finished before admit
// returns (j.cacheHit tells the caller).
func (s *Server) admit(w http.ResponseWriter, j *job, size int64) bool {
	s.mu.Lock()
	prev, cached, ref := s.admitLocked(j, size)
	s.mu.Unlock()
	switch {
	case prev != nil:
		s.replayIdem(w, prev)
		return false
	case ref != nil:
		if j.breakerKey != (breakerKey{}) {
			// The breaker may have admitted this request as its half-open
			// trial probe; a later refusal is no verdict on the key, so the
			// trial slot goes to the next request.
			s.breakers.recordNeutral(j.breakerKey)
		}
		if ref.counter != nil {
			ref.counter.Add(1)
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(ref.retryIn)))
		s.logf("admission rejected (%d): %s", ref.status, ref.msg)
		writeJSON(w, ref.status, apiError{Error: ref.msg})
		return false
	}
	s.metrics.jobsSubmitted.Add(1)
	if j.cacheHit {
		s.finish(j, StateDone, "", cached)
	} else {
		s.logf("job %s queued: algorithm=%s dataset=%s sha256=%.12s", j.id, j.req.Algorithm, j.req.Dataset, j.key.DatasetSHA256)
	}
	return true
}

// admitLocked is admit's decision, taken under s.mu. It applies, in order:
//
//  1. the draining check and the server.enqueue fault point;
//  2. idempotency replay (only plain jobs carry a key);
//  3. the result cache (plain jobs only): a hit skips to step 7;
//  4. the circuit breaker of the dataset bytes and algorithm (plain jobs and
//     dataset creations);
//  5. the memory watermark: above the hard one, requests of LargeJobBytes
//     or more (dataset bytes, or a batch's CSV bytes) are refused; any
//     pressure makes an admitted profile run degraded;
//  6. the predicted deadline, then the queue capacity;
//  7. IDs, the WAL admit record(s), publication and the send.
//
// Nothing is published or journaled before every check has passed, so a
// refused request leaves no job, dataset or WAL record behind. Holding s.mu
// from the draining check to the send means Shutdown's queued-job sweep
// (same lock) sees every queued job, no send is mid-flight when Shutdown
// closes the queue, and exactly one of any set of concurrent same-key
// submissions wins the key. The admit record is fsync'd before the job is
// runnable: a crash after the client's 202 can never forget the job.
func (s *Server) admitLocked(j *job, size int64) (prev *job, cached *core.Report, ref *refusal) {
	wait := s.admission.predictWait(len(s.queue))
	if s.draining {
		return nil, nil, &refusal{http.StatusServiceUnavailable, &s.metrics.rejectedDraining, wait, "server is shutting down"}
	}
	if err := faults.Inject(faults.ServerEnqueue); err != nil {
		return nil, nil, &refusal{http.StatusServiceUnavailable, nil, wait, "admission unavailable: " + err.Error()}
	}
	if prev, hit := s.idem[j.idemKey]; hit { // only plain jobs carry a key
		return prev, nil, nil
	}
	if j.kind == "" {
		cached, j.cacheHit = s.cache.get(j.key)
	}
	if !j.cacheHit {
		// A (dataset, algorithm) pair that keeps failing — panics, deadline
		// blowouts, hard errors — fast-fails with the error that tripped its
		// breaker instead of burning another worker slot. 422: the request is
		// well-formed, the payload is the problem.
		if j.kind != dsJobBatch {
			bk := breakerKey{sha: j.key.DatasetSHA256, alg: j.key.Algorithm}
			if allowed, lastErr, retryIn := s.breakers.allow(bk, time.Now()); !allowed {
				s.metrics.breakerFastFails.Add(1)
				return nil, nil, &refusal{http.StatusUnprocessableEntity, &s.metrics.rejectedBreaker, retryIn.Seconds(),
					fmt.Sprintf("circuit breaker open for this dataset and algorithm after repeated failures (last error: %s); retry after the cooldown", lastErr)}
			}
			j.breakerKey = bk
		}
		// Results stay exact under pressure either way. A batch is never
		// degraded: AppendBatch runs with its session's options.
		if level, heap := s.governor.state(); level != memHealthy {
			if level >= memHard && size >= s.cfg.LargeJobBytes {
				return nil, nil, &refusal{http.StatusServiceUnavailable, &s.metrics.rejectedMemPressure, wait,
					fmt.Sprintf("memory pressure: heap (%d bytes) is above the hard watermark; submissions of %d+ bytes are refused until it recedes", heap, s.cfg.LargeJobBytes)}
			}
			j.degraded = j.kind != dsJobBatch
		}
		// With service-time history for this class in hand, a job predicted
		// to exhaust its entire deadline queueing plus running is refused now
		// instead of accepted, parked, and failed minutes later. The slack
		// margin absorbs estimate noise; a cold controller always admits and
		// learns.
		if est, known := s.admission.estimateService(j.serviceClass()); known && j.timeout > 0 &&
			wait+est > j.timeout.Seconds()+admissionSlack(j.timeout).Seconds() {
			return nil, nil, &refusal{http.StatusTooManyRequests, &s.metrics.rejectedPredicted, wait,
				fmt.Sprintf("predicted completion (%.1fs queue wait + %.1fs service) exceeds the %v deadline; retry in %ds or raise timeout_seconds",
					wait, est, j.timeout, retryAfterSecs(wait))}
		}
		// Every send happens under s.mu and workers only drain, so a free
		// slot observed here cannot vanish before the send below.
		if len(s.queue) == cap(s.queue) {
			return nil, nil, &refusal{http.StatusTooManyRequests, &s.metrics.rejectedQueueFull, wait,
				fmt.Sprintf("job queue is full (%d waiting); retry in %ds", s.cfg.QueueDepth, retryAfterSecs(wait))}
		}
	}

	s.nextID++
	j.id = fmt.Sprintf("j-%d", s.nextID)
	if j.kind == dsJobProfile {
		s.nextDSID++
		j.ds.id = fmt.Sprintf("d-%d", s.nextDSID)
	}
	for _, rec := range j.admitRecords() {
		if err := s.journal(rec); err != nil {
			return nil, nil, &refusal{http.StatusServiceUnavailable, nil, wait, "state journal unavailable: " + err.Error()}
		}
	}
	s.registerLocked(j)
	if d := j.ds; d != nil {
		if j.kind == dsJobProfile {
			s.datasets[d.id] = d
			s.dsOrder = append(s.dsOrder, d.id)
		}
		d.mu.Lock()
		d.jobIDs = append(d.jobIDs, j.id)
		d.mu.Unlock()
	}
	if j.cacheHit {
		j.claimed = true // admit finishes it; no worker or sweep may
		return nil, cached, nil
	}
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateQueued})
	s.queue <- j
	return nil, nil, nil
}

// admitRecords are the WAL records that make j's admission durable: a plain
// job's request; a dataset's creation request plus its initial-profile job;
// a batch job with its rows, which recovery replays into the reloaded
// relation before resuming the checkpoint on top.
func (j *job) admitRecords() []walRecord {
	switch j.kind {
	case dsJobProfile:
		return []walRecord{
			{Type: recDataset, Dataset: j.ds.id, Req: &j.req},
			{Type: recDSJob, Job: j.id, Dataset: j.ds.id, Kind: dsJobProfile},
		}
	case dsJobBatch:
		return []walRecord{{Type: recDSJob, Job: j.id, Dataset: j.ds.id, Kind: dsJobBatch, Rows: j.rows}}
	}
	return []walRecord{{Type: recJob, Job: j.id, Req: &j.req}}
}

// replayIdem answers a submission whose idempotency key already maps onto a
// job: the existing record — same ID, same event stream — is the response,
// 200 once it settled, 202 while it is still queued or running. The retry
// that raced a slow original gets the original's handle, never a duplicate
// execution.
func (s *Server) replayIdem(w http.ResponseWriter, prev *job) {
	s.metrics.idemReplays.Add(1)
	v := prev.view()
	code := http.StatusAccepted
	if terminal(v.State) {
		code = http.StatusOK
	}
	w.Header().Set("Idempotent-Replay", "true")
	w.Header().Set("Location", "/v1/jobs/"+prev.id)
	s.logf("job %s replayed (idempotency key dedup)", prev.id)
	writeJSON(w, code, v)
}

// --- HTTP handlers ---

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeBody decodes a bounded JSON request body into v with unknown fields
// rejected, writing the structured 400/413 response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.logf("request rejected (413): %v", err)
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error()})
			return false
		}
		// Unknown fields land here too (DisallowUnknownFields); logging the
		// reason makes a typoed option debuggable server-side.
		s.logf("request rejected (400): invalid request body: %v", err)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid request body: " + err.Error()})
		return false
	}
	return true
}

// jobTimeout turns a request's timeout_seconds into the effective job
// deadline: the server default when unset, clamped to MaxTimeout. ok is
// false when an explicitly requested deadline exceeds MaxTimeout; the
// clamped deadline is still returned, which is what replay runs with.
func (c *Config) jobTimeout(requested float64) (time.Duration, bool) {
	timeout := c.DefaultTimeout
	if requested > 0 {
		timeout = time.Duration(requested * float64(time.Second))
	}
	tooLong := c.MaxTimeout > 0 && timeout > c.MaxTimeout
	if tooLong || (c.MaxTimeout > 0 && timeout <= 0) {
		timeout = c.MaxTimeout
	}
	return timeout, !(tooLong && requested > 0)
}

// resolveTimeout is jobTimeout for an HTTP request: an explicitly requested
// out-of-range deadline is a client error — the 400 is written here — not
// something to silently clamp.
func (s *Server) resolveTimeout(w http.ResponseWriter, requested float64) (time.Duration, bool) {
	timeout, ok := s.cfg.jobTimeout(requested)
	if !ok {
		s.logf("request rejected (400): timeout_seconds %g exceeds maximum %v", requested, s.cfg.MaxTimeout)
		writeJSON(w, http.StatusBadRequest, apiError{
			Error: fmt.Sprintf("timeout_seconds must be <= %g", s.cfg.MaxTimeout.Seconds()),
		})
	}
	return timeout, ok
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The Idempotency-Key header wins over the body field: the header is the
	// standard surface retry middlewares and proxies set without touching the
	// payload.
	if hk := r.Header.Get("Idempotency-Key"); hk != "" {
		req.IdempotencyKey = hk
	}
	key, src, size, err := req.normalize(s.cfg.DataDir)
	if err != nil {
		s.logf("submit rejected (400): %v", err)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	timeout, ok := s.resolveTimeout(w, req.TimeoutSeconds)
	if !ok {
		return
	}
	j := newJob(req, timeout)
	j.key, j.src, j.idemKey, j.exec = key, src, req.IdempotencyKey, s.runPlain
	if !s.admit(w, j, size) {
		return
	}
	// A byte-identical dataset profiled with the same result-affecting
	// options was served from the result cache without queueing.
	code := http.StatusAccepted
	if j.cacheHit {
		code = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, code, j.view())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := j.view()
		v.Result = nil // summaries stay light; fetch the job for the report
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	if s.cancelIfQueued(j, "canceled") {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	j.mu.Lock()
	running := j.state == StateRunning
	cancel := j.cancel
	j.mu.Unlock()
	if !running {
		// Terminal (an idempotent no-op), or already being finished unrun.
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	// Running: cut the job's context; the worker observes context.Canceled
	// and finishes the job as canceled.
	cancel()
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		batch, done := j.events.next(r.Context(), from)
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		from += len(batch)
		if done {
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	// Watchdog: repeated consecutive panic-failures mark the process
	// degraded (it keeps serving — panics are isolated per job — but an
	// operator should look). One clean job completion clears it.
	if n := s.consecutivePanics.Load(); n >= int64(s.cfg.DegradedAfter) {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": fmt.Sprintf("%d consecutive jobs failed on recovered panics", n),
		})
		return
	}
	// Open breakers and hard memory pressure are degraded too: the server is
	// up, but some class of work is being refused. Both clear on their own —
	// breakers half-open after cooldown, the governor re-samples the heap.
	if open, _ := s.breakers.counts(time.Now()); open > 0 {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": fmt.Sprintf("%d circuit breaker(s) open", open),
		})
		return
	}
	if level, _ := s.governor.last(); level >= memHard {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": "heap above the hard memory watermark",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
