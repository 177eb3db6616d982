package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"holistic/internal/dataset"
	"holistic/internal/pli"
)

// eventObserver records every engine event for cross-checking against the
// Result the recorder assembles from the same stream.
type eventObserver struct {
	NopObserver
	started []string
	ended   []string
	checks  int
	stats   []pli.CacheStats
}

func (o *eventObserver) PhaseStart(name string)                { o.started = append(o.started, name) }
func (o *eventObserver) PhaseEnd(name string, _ time.Duration) { o.ended = append(o.ended, name) }
func (o *eventObserver) Checks(delta int)                      { o.checks += delta }
func (o *eventObserver) CacheStats(s pli.CacheStats)           { o.stats = append(o.stats, s) }

func TestRegistryListsAllStrategies(t *testing.T) {
	want := []string{StrategyMuds, StrategyHolisticFun, StrategyBaseline, StrategyTane, StrategyFDFirst}
	if got := Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestUnknownStrategyErrorNamesChoices(t *testing.T) {
	_, err := Run("typo", RelationSource{Rel: mustRel(t, []string{"A"}, [][]string{{"1"}})}, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, name := range Strategies() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention strategy %q", err, name)
		}
	}
}

// TestObserverCountersAgree runs every strategy with an observer and checks
// that the event stream is consistent with the Result built from it: starts
// and ends pair up, the check deltas sum to Result.Checks, and each strategy
// that touches PLIs reports at least one cache snapshot with real traffic.
func TestObserverCountersAgree(t *testing.T) {
	rel := dataset.NCVoter(300, 8)
	src := RelationSource{Rel: rel}
	for _, strategy := range Strategies() {
		obs := &eventObserver{}
		res, err := RunContext(context.Background(), strategy, src, Options{Seed: 7}, obs)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if !reflect.DeepEqual(obs.started, obs.ended) {
			t.Errorf("%s: phase starts %v != ends %v", strategy, obs.started, obs.ended)
		}
		if obs.checks != res.Checks {
			t.Errorf("%s: observer checks %d != Result.Checks %d", strategy, obs.checks, res.Checks)
		}
		if len(obs.stats) == 0 {
			t.Errorf("%s: no cache snapshot reported", strategy)
		}
		for _, s := range obs.stats {
			// PLI traffic is either chained intersections (materializing
			// path) or fast checks (validation fast path) — a snapshot with
			// neither means the plumbing lost the counters.
			if s.Hits+s.Misses == 0 || s.Intersections+s.FastChecks == 0 {
				t.Errorf("%s: implausible cache snapshot %+v", strategy, s)
			}
		}
		// The recorder merges repeated phases; every merged entry must have
		// appeared in the event stream, starting with the load phase.
		seen := map[string]bool{}
		for _, name := range obs.ended {
			seen[name] = true
		}
		for _, p := range res.Phases {
			if !seen[p.Name] {
				t.Errorf("%s: result phase %q missing from event stream", strategy, p.Name)
			}
		}
		if len(res.Phases) == 0 || res.Phases[0].Name != PhaseLoad {
			t.Errorf("%s: first phase = %v, want %q", strategy, res.Phases, PhaseLoad)
		}
	}
}

// TestBackgroundContextMatchesPlainRun verifies that the context plumbing is
// free when unused: a background-context engine run returns exactly the
// results of the plain wrappers.
func TestBackgroundContextMatchesPlainRun(t *testing.T) {
	rel := dataset.NCVoter(300, 8)
	src := RelationSource{Rel: rel}
	for _, strategy := range Strategies() {
		plain, err := Run(strategy, src, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := RunContext(context.Background(), strategy, src, Options{Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.FDs, ctxed.FDs) || !reflect.DeepEqual(plain.UCCs, ctxed.UCCs) ||
			!reflect.DeepEqual(plain.INDs, ctxed.INDs) || plain.Checks != ctxed.Checks {
			t.Errorf("%s: background-context run differs from plain run", strategy)
		}
	}
	plain := Muds(rel, Options{Seed: 3})
	ctxed, err := MudsContext(context.Background(), rel, Options{Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.FDs, ctxed.FDs) || !reflect.DeepEqual(plain.UCCs, ctxed.UCCs) {
		t.Error("MudsContext(background) differs from Muds")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rel := mustRel(t, []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}})
	for _, strategy := range Strategies() {
		_, err := RunContext(ctx, strategy, RelationSource{Rel: rel}, Options{}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", strategy, err)
		}
	}
}

// TestRunContextDeadline cancels MUDS mid-run on a relation that takes seconds
// uncancelled and requires the partial result within well under 2s of the
// deadline, carrying whatever phase timings had accumulated.
func TestRunContextDeadline(t *testing.T) {
	rel := dataset.NCVoter(2000, 18)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunRelationContext(ctx, StrategyMuds, rel, Options{Seed: 1}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
	if res == nil || len(res.Phases) == 0 {
		t.Fatal("cancelled run must return partial phase timings")
	}
}

// cancelAtPhase cancels the run's context from the observer the moment the
// named phase starts.
type cancelAtPhase struct {
	NopObserver
	phase  string
	cancel context.CancelFunc
}

func (o cancelAtPhase) PhaseStart(name string) {
	if name == o.phase {
		o.cancel()
	}
}

// TestMudsContextDeadlineInFDPhases stops MUDS inside its FD part: the
// observer cancels the context as the completion sweep starts, so the stop
// lands in that phase on every machine, however fast it runs. The run must
// return the partial result, marked as interrupted in the sweep.
func TestMudsContextDeadlineInFDPhases(t *testing.T) {
	rel := dataset.NCVoter(2000, 18)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := cancelAtPhase{phase: PhaseCompletionSweep, cancel: cancel}
	res, err := MudsContext(ctx, rel, Options{Seed: 1}, obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("cancelled run must return the partial result")
	}
	if res.Completeness == nil || res.Completeness.InterruptedPhase != PhaseCompletionSweep {
		t.Fatalf("completeness = %+v, want interrupted phase %q", res.Completeness, PhaseCompletionSweep)
	}
}
