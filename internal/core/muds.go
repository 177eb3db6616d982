package core

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
)

// Options configures a MUDS run (and the other strategies where relevant).
type Options struct {
	// Seed fixes the randomized traversal orders of DUCC and the R\Z walk.
	// Results are independent of the seed.
	Seed int64
	// IND configures the SPIDER sub-algorithm.
	IND ind.Options
	// CacheEntries bounds the shared PLI cache (0 = default).
	CacheEntries int
	// MaxCacheBytes budgets the approximate heap held by the shared PLI
	// cache (0 = default of pli.DefaultCacheBytes; < 0 disables the byte
	// budget). When the budget is hit the cache sheds intersections and the
	// strategies recompute them on demand — the memory governor trades time
	// for bounded memory, and the discovered IND/UCC/FD sets are identical
	// for every budget.
	MaxCacheBytes int64
	// Workers bounds the worker pool of the parallel phases: FUN/TANE
	// per-level candidate validation and the per-right-hand-side R\Z and
	// completion-sweep walks of MUDS. <= 0 selects runtime.GOMAXPROCS(0).
	// The discovered IND/UCC/FD sets are identical for every value; only
	// wall time (and cache statistics) varies. It also sizes the shared PLI
	// provider's cache: Workers > 1 gives it one locked shard per worker
	// (rounded up to a power of two) so it is safe to share across the pool,
	// Workers = 1 a single unlocked shard. Single-column PLIs are always
	// built across GOMAXPROCS workers.
	Workers int
	// SampleCheck arms the sampled refutation prefilter of the PLI
	// provider's validation fast path: boolean questions (uniqueness, FD
	// refinement) first run against a deterministic stride sample of the
	// rows and fall through to the exact check only when the sample finds no
	// counterexample. A sampled counterexample is exact evidence, so the
	// discovered IND/UCC/FD sets are identical with and without sampling;
	// only the work per check changes. Relations below the effective sample
	// threshold (see pli.Provider.WithSampleCheck) run unsampled regardless.
	SampleCheck bool
}

// workerCount resolves Workers to an effective pool width.
func (o Options) workerCount() int { return parallel.Workers(o.Workers) }

// NewProvider builds the PLI provider for one strategy run: its cache is
// sharded and locked when the run fans out, a single unlocked shard when it
// stays sequential, and bounded by CacheEntries and MaxCacheBytes (the
// memory governor). It is exported for the incremental layer, which must
// construct providers with exactly the engine's cache and sampling
// configuration so that patched and from-scratch runs are comparable.
func (o Options) NewProvider(rel *relation.Relation) *pli.Provider {
	return pli.NewProvider(rel, o.Workers, o.CacheEntries, o.MaxCacheBytes).WithSampleCheck(o.SampleCheck)
}

// Muds runs the full holistic MUDS algorithm (paper Sec. 5) on a loaded
// relation: SPIDER while reading (shared I/O), DUCC on the shared PLIs, and
// UCC-first FD discovery with the inter-task pruning rules of Sec. 4.
func Muds(rel *relation.Relation, opts Options) *Result {
	res, _ := MudsContext(context.Background(), rel, opts, nil)
	return res
}

// MudsContext runs MUDS under a context with an optional observer (nil for
// none). The lattice traversals poll ctx and stop promptly when it is
// cancelled or its deadline passes, returning the partial result — the
// dependencies and phase timings accumulated so far — together with
// ctx.Err(). It runs through the engine's protected path, so panics are
// isolated exactly as in RunContext.
func MudsContext(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, _ := Lookup(StrategyMuds)
	return profileWith(ctx, s, rel, opts, newRecorder(obs))
}

// mudsProfile is the registered MUDS strategy implementation. Phase timings
// and check totals flow through the observer (the engine's recorder
// assembles them into the Result).
func mudsProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()

	var p *pli.Provider
	err := timePhase(ctx, obs, PhaseSpider, func() error {
		// SPIDER consumes the sorted duplicate-free value lists; the PLIs
		// are built in the same pass over the input (paper Sec. 5: "Since
		// this algorithm already requires to read and sort all records,
		// Muds also builds the PLIs in this step"). The sort and the
		// single-column PLI construction fan out per column; the merge
		// itself is sequential.
		obs.Parallelism(PhaseSpider, workers)
		inds, err := ind.SpiderContext(ctx, rel, opts.IND)
		if err != nil {
			return err
		}
		res.INDs = inds
		p = opts.NewProvider(rel)
		return nil
	})
	if err != nil {
		return res, err
	}
	defer func() { obs.CacheStats(p.CacheStats()) }()

	var uccRes ucc.Result
	err = timePhase(ctx, obs, PhaseDucc, func() error {
		// The DUCC random walk is sequential by construction: every step
		// extends the certificate tries the next step prunes with.
		obs.Parallelism(PhaseDucc, 1)
		var err error
		uccRes, err = ucc.DuccContext(ctx, p, opts.Seed)
		obs.Checks(uccRes.Checks)
		return err
	})
	res.UCCs = uccRes.Minimal
	if err != nil {
		return res, err
	}

	store := fd.NewStore()
	constants := fd.ConstantColumns(p)
	constants.ForEach(func(a int) { store.Add(bitset.Set{}, a) })

	if rel.NumRows() > 1 {
		working := rel.AllColumns().Diff(constants)
		m := newMudsFD(p, working, res.UCCs, store, opts.Seed)
		m.ctx = ctx
		m.workers = workers
		err = mudsFDPhases(ctx, m, obs)
		obs.Checks(m.checks)
	}

	res.FDs = store.All()
	return res, err
}

// mudsFDPhases runs the FD part of MUDS: the R\Z walks, then the
// certificate-seeded walks over Z (completion sweep), stopping at the first
// phase that reports cancellation. Both phases fan their independent per-RHS
// walks out across the worker pool. The paper's minimizeFDs and shadowed-FD
// phases are not run: the two walk phases alone return the complete minimal
// cover (DESIGN.md, deviation 2).
func mudsFDPhases(ctx context.Context, m *mudsFD, obs Observer) error {
	err := timePhase(ctx, obs, PhaseCalculateRZ, m.run(func() {
		obs.Parallelism(PhaseCalculateRZ, m.workerCount())
		m.calculateRZ()
	}))
	if err != nil {
		return err
	}
	return timePhase(ctx, obs, PhaseCompletionSweep, m.run(func() {
		obs.Parallelism(PhaseCompletionSweep, m.workerCount())
		m.completionSweep()
	}))
}
