package core

import (
	"time"

	"holistic/internal/pli"
)

// Observer receives progress events from a profiling run: phase boundaries,
// validity-check counts, and PLI cache statistics. It replaces the engine's
// former internal phase timer as the single instrumentation surface — the
// per-phase durations in Result.Phases are assembled from the same events.
//
// Implementations must be cheap: PhaseStart/PhaseEnd fire once per phase (a
// handful of times per run), Checks fires once per sub-algorithm with the
// accumulated delta, and CacheStats fires once per PLI provider a strategy
// retires, with that provider's cumulative counters. Observers are invoked
// from the profiling goroutine; they need not be safe for concurrent use.
//
// Embed NopObserver to implement only the events of interest.
type Observer interface {
	// PhaseStart fires when the named phase begins.
	PhaseStart(name string)
	// PhaseEnd fires when the named phase ends, with its wall time.
	PhaseEnd(name string, d time.Duration)
	// Checks reports delta data-touching validity checks (uniqueness tests,
	// partition refinements). The deltas sum to Result.Checks.
	Checks(delta int)
	// CacheStats reports the final cache counters of one PLI provider used
	// by the run. Strategies that build several providers (the sequential
	// baseline) report one snapshot per provider.
	CacheStats(stats pli.CacheStats)
	// Parallelism reports the worker count a phase runs with, once per
	// phase, right after the phase starts. Inherently sequential phases
	// (the DUCC random walk) report 1, so the event stream documents
	// exactly which parts of a run fan out.
	Parallelism(phase string, workers int)
}

// NopObserver is an Observer that ignores every event. Embed it to implement
// only a subset of the interface.
type NopObserver struct{}

// PhaseStart implements Observer.
func (NopObserver) PhaseStart(string) {}

// PhaseEnd implements Observer.
func (NopObserver) PhaseEnd(string, time.Duration) {}

// Checks implements Observer.
func (NopObserver) Checks(int) {}

// CacheStats implements Observer.
func (NopObserver) CacheStats(pli.CacheStats) {}

// Parallelism implements Observer.
func (NopObserver) Parallelism(string, int) {}
