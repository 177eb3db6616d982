package pli

import (
	"context"
	"sync/atomic"

	"holistic/internal/bitset"
	"holistic/internal/faults"
	"holistic/internal/parallel"
	"holistic/internal/relation"
)

// Provider computes and caches PLIs for arbitrary column combinations of one
// relation. It is the "shared data structure" of the holistic algorithms
// (paper Sec. 3): a single Provider is handed from the UCC phase to the FD
// phases so that intersections computed once are reused.
//
// # Validation fast path
//
// The Provider answers the boolean/cardinality questions of the walks —
// IsUnique, CheckFD, CheckFDs, Cardinality, ForEachCluster — through the
// non-materializing check kernels of check.go: they pick the cheapest cached
// ancestor of the probed set (fewest stored rows wins — direct subsets,
// distance-2 subsets, ascending prefixes and singles are all candidates) and
// fold the missing columns over its clusters with early exit, building no
// PLI at all. Admission control keeps validate-only probes from flooding the
// byte-budgeted cache. The FD checks admit nothing: a refuted or confirmed
// FD verdict is pure scanning. IsUnique is verdict-aware: a refuted probe is
// the walk's reuse path (DUCC ascends from it), so its survivors — already
// in hand from the fused fold that derived the verdict — are admitted as a
// stepping stone, while confirmed-unique probes, whose supersets DUCC
// prunes, are never materialised. A plan stuck at fold distance >= 2 may
// additionally promote ONE intermediate (the ancestor extended by one
// column), gated by a doorkeeper that admits on the second request, so
// one-shot probe sweeps cost zero promotions. The FastChecks /
// Materializations / SampledRefutations counters in CacheStats expose the
// split.
//
// WithSampleCheck additionally arms a deterministic stride-sample refutation
// prefilter for the boolean questions; see its doc comment for the
// soundness argument.
//
// Concurrency contract: after construction (including WithSampleCheck, which
// must be called before the Provider is shared) the Provider itself is
// immutable except for the atomic counters and the cache. A Provider built
// for more than one worker shards its cache and locks the probed shard, so
// its checks are safe to call from multiple goroutines; a one-worker
// Provider takes no locks and is single-goroutine only. Concurrent checks
// may both admit the same set — both compute and store the same PLI — which
// wastes a little work but never produces a wrong result, because PLIs are
// immutable once built. The checks borrow pooled Scratch arenas per call
// (see scratch.go), so they hold no shared mutable state across goroutines.
type Provider struct {
	rel    *relation.Relation
	single []*PLI
	empty  *PLI
	cache  *cache

	// sampleMask != 0 arms the stride-sample refutation prefilter: row r is
	// sampled iff r&sampleMask == 0 (the stride is sampleMask+1, a power of
	// two). sampledSingle holds per-column PLIs over the sampled rows only,
	// keeping original row ids so full column arrays index correctly during
	// sampled folds. Both are written only by WithSampleCheck, before the
	// Provider is shared.
	sampleMask    int32
	sampledSingle []*PLI
	sampleWanted  bool // remembers WithSampleCheck(true) so Refresh re-arms

	// admit is the promotion doorkeeper: hash-indexed reference counters over
	// candidate promotion sets. A fold-distance >= 2 plan materialises its one
	// promotion only when the candidate has been wanted before, so a one-shot
	// probe sweep (DUCC walking a lattice region it never returns to) admits
	// nothing at all, while genuinely hot ancestors are admitted on their
	// second request. Hash collisions only make admission slightly more eager,
	// never wrong.
	admit [admitSlots]atomic.Uint32

	// intersections counts column intersections performed; the other three
	// are the fast-path counters. All four surface through CacheStats and
	// are updated with sync/atomic so a Provider shared across workers stays
	// race-free.
	intersections      atomic.Int64
	fastChecks         atomic.Int64
	materializations   atomic.Int64
	sampledRefutations atomic.Int64
}

// DefaultCacheEntries bounds the number of cached multi-column PLIs. The
// single-column PLIs are always retained.
const DefaultCacheEntries = 4096

// admitSlots sizes the promotion doorkeeper (16 KiB of counters per
// Provider). Must be a power of two.
const admitSlots = 1 << 12

// NewProvider builds a Provider for rel whose checks are safe to call from
// up to parallel.Workers(workers) goroutines (workers <= 0 selects
// GOMAXPROCS); when that is one, the Provider takes no locks and is
// single-goroutine only. maxEntries bounds the cached
// multi-column PLIs (<= 0 selects DefaultCacheEntries) and maxBytes their
// approximate heap (0 selects DefaultCacheBytes, < 0 disables the byte
// budget).
func NewProvider(rel *relation.Relation, workers, maxEntries int, maxBytes int64) *Provider {
	p := &Provider{
		rel:    rel,
		single: make([]*PLI, rel.NumColumns()),
		empty:  FromAllRows(rel.NumRows()),
		cache:  newCache(workers, maxEntries, maxBytes),
	}
	p.buildSingles()
	return p
}

// buildSingles (re)builds the single-column PLIs from the relation's current
// columns, concurrently, one indexed slot per column across GOMAXPROCS
// workers; the result is identical to the sequential build because each
// column's PLI depends only on that column's data. Each worker slot owns one
// Scratch arena sized to the relation's maximum cardinality (the worker-slot
// ownership contract of scratch.go), so the whole build performs one
// grouping-arena allocation per worker, not one per column.
func (p *Provider) buildSingles() {
	rel := p.rel
	maxCard := rel.MaxCardinality()
	scratches := make([]*Scratch, parallel.Workers(0))
	parallel.ForWorker(context.Background(), parallel.Workers(0), rel.NumColumns(), func(w, c int) {
		s := scratches[w]
		if s == nil {
			s = NewScratch()
			s.Ensure(maxCard)
			scratches[w] = s
		}
		p.single[c] = FromColumnScratch(rel.Column(c), rel.Cardinality(c), s)
	})
}

// Relation returns the underlying relation.
func (p *Provider) Relation() *relation.Relation { return p.rel }

// SingleColumn returns the cached PLI of one column.
func (p *Provider) SingleColumn(c int) *PLI { return p.single[c] }

// intersectColumn performs one counted column intersection. The armed
// faults.PLIIntersect point panics here (the checks have no error channel);
// the engine's panic isolation converts it into a failed job. The grouping
// scratch comes from the package pool (checks are called from arbitrary
// goroutines, so no worker slot is available here; see scratch.go).
func (p *Provider) intersectColumn(base *PLI, c int) *PLI {
	faults.Check(faults.PLIIntersect)
	out := base.IntersectColumn(p.rel.Column(c), p.rel.Cardinality(c))
	p.intersections.Add(1)
	return out
}

// cacheGet probes the multi-column cache. Under an armed faults.CacheGet
// point the cache degrades to "always miss": the Provider recomputes the
// PLI, slower but correct.
func (p *Provider) cacheGet(s bitset.Set) (*PLI, bool) {
	if faults.Degraded(faults.CacheGet) {
		return nil, false
	}
	return p.cache.get(s)
}

// cachePut stores into the multi-column cache. Under an armed
// faults.CachePut point the store is dropped: later probes recompute.
func (p *Provider) cachePut(s bitset.Set, pli *PLI) {
	if faults.Degraded(faults.CachePut) {
		return
	}
	p.cache.put(s, pli)
}

func (p *Provider) lookup(s bitset.Set) (*PLI, bool) {
	switch s.Len() {
	case 0:
		return p.empty, true
	case 1:
		return p.single[s.First()], true
	}
	return p.cacheGet(s)
}

// CacheStats snapshots the cache behaviour of this Provider: probe hits and
// misses, evictions, the current entry count, the intersections performed,
// and the fast-path counters (FastChecks, Materializations,
// SampledRefutations). The snapshot is what the engine reports to its
// Observer.
func (p *Provider) CacheStats() CacheStats {
	st := CacheStats{
		Intersections:      p.intersections.Load(),
		FastChecks:         p.fastChecks.Load(),
		Materializations:   p.materializations.Load(),
		SampledRefutations: p.sampledRefutations.Load(),
	}
	p.cache.stats(&st)
	return st
}

// sampleTargetRows is the sample size the stride selection aims for, and
// sampleMinStride the smallest stride worth prefiltering with: below it the
// sample approaches the full relation and the prefilter would roughly double
// the cost of every check it fails to refute.
const (
	sampleTargetRows = 1024
	sampleMinStride  = 8
)

// WithSampleCheck arms (or disarms) the sampled refutation prefilter and
// returns the Provider for chaining. It must be called before the Provider
// is shared across goroutines.
//
// The prefilter runs the boolean questions (IsUnique, CheckFD, CheckFDs)
// against a deterministic stride sample first — every stride-th row, stride
// a power of two chosen so the sample holds roughly sampleTargetRows rows —
// and falls through to the exact check only when the sample finds no
// counterexample. Soundness: a sampled answer is only ever trusted when it
// is NEGATIVE. Two sampled rows agreeing on every column of X are two real
// rows of the relation agreeing on X, so X is certainly not unique; two
// sampled rows agreeing on X but differing in A certainly violate X → A. A
// positive sample answer proves nothing (the counterexample may be
// unsampled) and always triggers the exact check, so discovered metadata is
// identical with and without sampling. Relations whose row count would force
// a stride below sampleMinStride leave the prefilter disarmed.
func (p *Provider) WithSampleCheck(on bool) *Provider {
	p.sampleWanted = on
	if !on {
		p.sampleMask = 0
		p.sampledSingle = nil
		return p
	}
	stride := 1
	for p.rel.NumRows()/(stride*2) >= sampleTargetRows {
		stride *= 2
	}
	if stride < sampleMinStride {
		return p
	}
	p.enableSampling(stride)
	return p
}

// enableSampling builds the per-column sampled PLIs for the given power-of-
// two stride. Split out of WithSampleCheck so tests can force sampling on
// relations too small for the production stride selection.
func (p *Provider) enableSampling(stride int) {
	p.sampleMask = int32(stride - 1)
	p.sampledSingle = make([]*PLI, p.rel.NumColumns())
	s := NewScratch()
	s.Ensure(p.rel.MaxCardinality())
	for c := range p.sampledSingle {
		p.sampledSingle[c] = fromColumnSampled(p.rel.Column(c), p.rel.Cardinality(c), stride, s)
	}
}

// fromColumnSampled builds the PLI of every stride-th row of a column,
// keeping original row ids (so full column arrays index correctly when the
// sampled PLI serves as a fold base). Singleton clusters are stripped as
// usual.
func fromColumnSampled(col []int32, cardinality, stride int, s *Scratch) *PLI {
	s.ensure(cardinality)
	counts := s.counts[:cardinality]
	for r := 0; r < len(col); r += stride {
		counts[col[r]]++
	}
	nClusters, nStored := 0, 0
	for _, c := range counts {
		if c >= 2 {
			nClusters++
			nStored += int(c)
		}
	}
	p := &PLI{nRows: len(col)}
	if nClusters > 0 {
		p.rows = make([]int32, nStored)
		p.offsets = make([]int32, nClusters+1)
		starts := s.starts[:cardinality]
		cursor := int32(0)
		ci := 1
		for code, c := range counts {
			if c >= 2 {
				starts[code] = cursor
				cursor += c
				p.offsets[ci] = cursor
				ci++
			} else {
				starts[code] = -1
			}
		}
		for r := 0; r < len(col); r += stride {
			if st := starts[col[r]]; st >= 0 {
				p.rows[st] = int32(r)
				starts[col[r]]++
			}
		}
	}
	clear(counts) // restore the all-zero Scratch invariant
	return p
}

// samplePlan picks the cheapest sampled single-column PLI of set as the
// prefilter fold base (fewest stored rows wins) and fills the scratch key
// slots with the remaining columns. A nil base means sampling is disarmed
// or set is empty.
func (p *Provider) samplePlan(set bitset.Set, sc *Scratch) (*PLI, [][]int32, []int) {
	if p.sampleMask == 0 {
		return nil, nil, nil
	}
	best := -1
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		if best < 0 || len(p.sampledSingle[c].rows) < len(p.sampledSingle[best].rows) {
			best = c
		}
	}
	if best < 0 {
		return nil, nil, nil
	}
	keys, cards := sc.keySlots(set.Len() - 1)
	i := 0
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		if c == best {
			continue
		}
		keys[i] = p.rel.Column(c)
		cards[i] = p.rel.Cardinality(c)
		i++
	}
	return p.sampledSingle[best], keys, cards
}

// plan resolves the cheapest way to answer a question about set: the cached
// PLI itself (fold empty), or the best cached ancestor plus the columns to
// fold over its clusters. Candidates are the cached direct subsets (fold
// distance 1), every cached ascending prefix, and the cheapest single
// column; among them the lowest (stored rows + 1) * fold-distance score
// wins — fewest non-singleton rows to scan, fewest fold steps.
//
// Admission control: when the winner sits at fold distance >= 2, plan
// considers exactly ONE promotion — the winner extended by its first fold
// column — and materialises it only when the doorkeeper has already seen a
// request for that candidate (admit-on-second-request, TinyLFU style). A
// validate-only probe therefore admits at most one intermediate PLI per
// check and usually none, so DUCC's random probes cannot flood the
// byte-budgeted cache with slow-path prefixes the way a cache-every-prefix
// policy would, and a one-shot sweep of a lattice region
// materialises nothing at all; sustained probing of a region still promotes
// its ancestor frontier until checks there are distance-1 folds.
func (p *Provider) plan(set bitset.Set, sc *Scratch) (*PLI, []int) {
	if pli, ok := p.lookup(set); ok {
		return pli, nil
	}
	// Cached direct subsets: fold distance 1, no admission needed.
	var base *PLI
	var baseSet bitset.Set
	bestCol := -1
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		sub := set.Without(c)
		if q, ok := p.lookup(sub); ok && (base == nil || len(q.rows) < len(base.rows)) {
			base, baseSet, bestCol = q, sub, c
		}
	}
	if base != nil {
		return base, append(sc.foldColSlots(1), bestCol)
	}
	// Cached distance-2 subsets (including the single columns when the set
	// has exactly three): a two-column fold is still cheap enough that no
	// admission is worth it. This scan is what makes the stepping stones of
	// the verdict-aware admission (see IsUnique) reachable — they sit at
	// arbitrary subsets, not on the ascending-prefix chains the fallback
	// below probes.
	var bestCol2 int
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		for c2 := set.NextAfter(c); c2 >= 0; c2 = set.NextAfter(c2) {
			sub := set.Without(c).Without(c2)
			if q, ok := p.lookup(sub); ok && (base == nil || len(q.rows) < len(base.rows)) {
				base, baseSet = q, sub
				bestCol, bestCol2 = c, c2
			}
		}
	}
	if base != nil {
		return base, append(sc.foldColSlots(2), bestCol, bestCol2)
	}
	// No subset within distance 2 cached (set has >= 4 columns): best
	// ascending cached prefix vs cheapest single column, scored by
	// rows-to-scan x fold-steps.
	first := set.First()
	prefix := bitset.Single(first)
	prefixPLI := p.single[first]
	prefixSet := prefix
	covered, idx := 1, 1
	for c := set.NextAfter(first); c >= 0; c = set.NextAfter(c) {
		idx++
		if idx == set.Len() {
			break // the full set itself — known uncached
		}
		prefix = prefix.With(c)
		if q, ok := p.cacheGet(prefix); ok {
			prefixPLI, prefixSet, covered = q, prefix, idx
		}
	}
	single := first
	for c := set.NextAfter(first); c >= 0; c = set.NextAfter(c) {
		if len(p.single[c].rows) < len(p.single[single].rows) {
			single = c
		}
	}
	base, baseSet = prefixPLI, prefixSet
	score := (int64(len(prefixPLI.rows)) + 1) * int64(set.Len()-covered)
	if s := (int64(len(p.single[single].rows)) + 1) * int64(set.Len()-1); s < score {
		base, baseSet = p.single[single], bitset.Single(single)
	}
	fold := sc.foldColSlots(set.Len())
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		if !baseSet.Has(c) {
			fold = append(fold, c)
		}
	}
	if len(fold) >= 2 {
		cand := baseSet.With(fold[0])
		if p.admit[cand.Hash()&(admitSlots-1)].Add(1) >= 2 {
			promoted := p.intersectColumn(base, fold[0])
			p.cachePut(cand, promoted)
			p.materializations.Add(1)
			base = promoted
			fold = fold[1:]
		}
	}
	return base, fold
}

// foldKeys fills the scratch key slots with the column data and
// cardinalities of a fold plan. It is called exactly once per executed fold
// kernel, so the armed faults.PLIIntersect point fires here too: a fold is
// the fast path's intersection traversal, and injected PLI failures must
// surface on it just as they do on materializing intersections.
func (p *Provider) foldKeys(fold []int, sc *Scratch) ([][]int32, []int) {
	faults.Check(faults.PLIIntersect)
	keys, cards := sc.keySlots(len(fold))
	for i, c := range fold {
		keys[i] = p.rel.Column(c)
		cards[i] = p.rel.Cardinality(c)
	}
	return keys, cards
}

// IsUnique reports whether s is a unique column combination, answered on
// the validation fast path: cached verdict if s itself is cached, sampled
// refutation when the plan is long (if armed), otherwise one combined
// foldPLI pass over the cheapest cached ancestor.
//
// Unlike the boolean FD checks, a uniqueness verdict cannot early-exit on
// confirmation — proving "no duplicate survives" needs the whole base — so
// the fused fold derives the verdict and the materialisation from the same
// pass: for a unique verdict nothing survives, no placement work happens
// and the result is discarded (a unique s is a dead end — DUCC prunes every
// superset, so its empty PLI would never be consulted again); for a refuted
// verdict the survivors ARE the stepping stone the walk ascends from next,
// admitted at zero extra scan cost. Verdict-aware admission is what keeps
// DUCC probes from flooding the byte-budgeted cache: only refuted probes —
// the reuse path — are admitted, roughly a third of the entries the
// materializing path would insert, while confirmations cost no admission at
// all.
func (p *Provider) IsUnique(s bitset.Set) bool {
	if s.IsEmpty() {
		return p.rel.NumRows() <= 1
	}
	p.fastChecks.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	base, fold := p.plan(s, sc)
	if len(fold) == 0 {
		return base.IsUnique()
	}
	// The sampled prefilter earns its scan only when the alternative is an
	// expensive multi-column fold over a far base; at fold distance one the
	// exact fold over the (usually small) cached ancestor is already about
	// as cheap as the sample itself.
	if len(fold) >= 2 && s.Len() >= 2 {
		if sb, skeys, scards := p.samplePlan(s, sc); sb != nil && !sb.CheckUnique(skeys, scards, sc) {
			p.sampledRefutations.Add(1)
			return false
		}
	}
	keys, cards := p.foldKeys(fold, sc)
	out := base.foldPLI(keys, cards, sc)
	if out.IsUnique() {
		return true
	}
	p.cachePut(s, out)
	p.materializations.Add(1)
	return false
}

// Cardinality returns the distinct count |s|_r, computed with the
// non-materializing CheckErrorSum fold when s is uncached. Sampling is never
// consulted here: a count, unlike a refutation, cannot be extrapolated from
// a sample.
func (p *Provider) Cardinality(s bitset.Set) int {
	p.fastChecks.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	base, fold := p.plan(s, sc)
	if len(fold) == 0 {
		return base.DistinctCount()
	}
	keys, cards := p.foldKeys(fold, sc)
	return base.NumRows() - base.CheckErrorSum(keys, cards, sc)
}

// CheckFD reports whether the FD lhs → rhs holds on the relation, on the
// validation fast path (sampled refutation, then an early-exit CheckRefines
// fold; lhs's PLI is never materialised).
func (p *Provider) CheckFD(lhs bitset.Set, rhs int) bool {
	if lhs.Has(rhs) {
		return true // trivial FD
	}
	p.fastChecks.Add(1)
	col := p.rel.Column(rhs)
	sc := getScratch()
	defer putScratch(sc)
	if !lhs.IsEmpty() {
		if sb, keys, cards := p.samplePlan(lhs, sc); sb != nil && !sb.CheckRefines(col, keys, cards, sc) {
			p.sampledRefutations.Add(1)
			return false
		}
	}
	base, fold := p.plan(lhs, sc)
	if len(fold) == 0 {
		return base.Refines(col)
	}
	keys, cards := p.foldKeys(fold, sc)
	return base.CheckRefines(col, keys, cards, sc)
}

// CheckFDs validates lhs → A for every A ∈ rhs in one batched fold
// (CheckRefinesMany) and returns the set of right-hand sides that hold.
// Columns of lhs itself are trivially determined and echoed back. The
// candidate column slots and verdict buffer come from the pooled Scratch,
// so TANE's per-level sweep allocates nothing per call; if sampling is
// armed, candidates refuted on the sample are excluded from the exact fold.
func (p *Provider) CheckFDs(lhs bitset.Set, rhs bitset.Set) bitset.Set {
	valid := rhs.Intersect(lhs) // trivial FDs
	todo := rhs.Diff(lhs)
	if todo.IsEmpty() {
		return valid
	}
	sc := getScratch()
	defer putScratch(sc)
	n := todo.Len()
	p.fastChecks.Add(int64(n))
	data, ok := sc.rhsSlots(n)
	i := 0
	for c := todo.First(); c >= 0; c = todo.NextAfter(c) {
		data[i] = p.rel.Column(c)
		i++
	}
	remaining := n
	if !lhs.IsEmpty() {
		if sb, keys, cards := p.samplePlan(lhs, sc); sb != nil {
			sb.CheckRefinesMany(data, keys, cards, ok, sc)
			for i := range data {
				if data[i] != nil && !ok[i] {
					data[i] = nil // sampled counterexample: certainly invalid
					p.sampledRefutations.Add(1)
					remaining--
				}
			}
		}
	}
	if remaining > 0 {
		base, fold := p.plan(lhs, sc)
		keys, cards := p.foldKeys(fold, sc)
		base.CheckRefinesMany(data, keys, cards, ok, sc)
	} else {
		for i := range ok {
			ok[i] = false
		}
	}
	i = 0
	for c := todo.First(); c >= 0; c = todo.NextAfter(c) {
		if ok[i] {
			valid = valid.With(c)
		}
		i++
	}
	return valid
}

// ForEachCluster streams the stripped clusters of s's PLI to fn without
// materialising or caching the PLI when it is uncached: the groups are
// folded from the cheapest cached ancestor in the same order as the
// materialised PLI's clusters. fn returning false stops the enumeration;
// the cluster slice is only valid during the callback. It backs
// order-insensitive aggregations such as the g3 approximate-FD error.
func (p *Provider) ForEachCluster(s bitset.Set, fn func(cluster []int32) bool) {
	p.fastChecks.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	base, fold := p.plan(s, sc)
	if len(fold) == 0 {
		for i, n := 0, base.NumClusters(); i < n; i++ {
			if !fn(base.Cluster(i)) {
				return
			}
		}
		return
	}
	keys, cards := p.foldKeys(fold, sc)
	base.ForEachFoldedGroup(keys, cards, sc, fn)
}
