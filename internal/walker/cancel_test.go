package walker

import (
	"context"
	"errors"
	"testing"
	"time"

	"holistic/internal/bitset"
)

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	pred := func(s bitset.Set) bool { calls++; return s.Len() >= 2 }
	_, err := RunContext(ctx, bitset.Full(8), pred, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 8 {
		t.Fatalf("pre-cancelled walk evaluated the predicate %d times", calls)
	}
}

// TestRunContextDeadline aborts a combinatorially hopeless walk (every
// 15-subset of 30 columns is a minimal true set) and requires a prompt
// return with the error.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	pred := func(s bitset.Set) bool { return s.Len() >= 15 }
	start := time.Now()
	res, err := RunContext(ctx, bitset.Full(30), pred, Options{Seed: 5})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled walk took %v, want prompt return", elapsed)
	}
	// The partial result is progress information, not an answer: it must not
	// claim completeness, but whatever it reports must still satisfy the
	// predicate contract.
	for _, s := range res.MinimalTrue {
		if !pred(s) {
			t.Fatalf("reported minimal true set %v fails the predicate", s)
		}
	}
}

func TestRunEqualsRunContextBackground(t *testing.T) {
	pred := func(s bitset.Set) bool { return bitset.New(0, 1).IsSubsetOf(s) || s.Has(2) }
	plain := Run(bitset.Full(6), pred, Options{Seed: 9})
	ctxed, err := RunContext(context.Background(), bitset.Full(6), pred, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.MinimalTrue) != len(ctxed.MinimalTrue) || plain.Checks != ctxed.Checks {
		t.Fatal("background-context walk differs from plain walk")
	}
}

// TestMinimalHittingSetsStop abandons an enumeration with 2^15 results
// at the first poll of its stop function, and through the exported entry
// under a cancelled context.
func TestMinimalHittingSetsStop(t *testing.T) {
	var fams []bitset.Set
	for i := 0; i < 30; i += 2 {
		fams = append(fams, bitset.New(i, i+1))
	}
	polls := 0
	got := hittingSets(fams, bitset.Full(30), func() bool { polls++; return true })
	if got != nil || polls != 1 {
		t.Fatalf("stopped enumeration returned %d sets after %d polls, want nil after 1", len(got), polls)
	}
	if n := len(hittingSets(fams, bitset.Full(30), func() bool { return false })); n != 1<<15 {
		t.Fatalf("unstopped enumeration found %d sets, want %d", n, 1<<15)
	}

	// A context that turns cancelled between two polls: the exported entry
	// must stop mid-search, not finish the enumeration and report ctx.Err()
	// after it.
	ctx := &cancelAfterCtx{Context: context.Background(), quiet: 1}
	got, err := MinimalHittingSets(ctx, fams, bitset.Full(30))
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled MinimalHittingSets = %d sets, %v; want none, context.Canceled", len(got), err)
	}
	if ctx.polls > 3 {
		t.Fatalf("cancelled MinimalHittingSets polled ctx %d times, want it to stop at the first cancelled poll", ctx.polls)
	}
}

// cancelAfterCtx reports no error for its first quiet polls of Err and
// context.Canceled after.
type cancelAfterCtx struct {
	context.Context
	quiet, polls int
}

func (c *cancelAfterCtx) Err() error {
	c.polls++
	if c.polls > c.quiet {
		return context.Canceled
	}
	return nil
}
