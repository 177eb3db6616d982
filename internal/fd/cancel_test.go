package fd

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// TestTaneContextDeadline cancels TANE mid-levelwise-traversal on a wide
// synthetic relation and requires a prompt return with the context error.
func TestTaneContextDeadline(t *testing.T) {
	rel := dataset.NCVoter(1000, 18)
	p := pli.NewProvider(rel, 1, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := TaneContext(ctx, p, false, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled TANE took %v, want prompt return", elapsed)
	}
}

// TestFunContextDeadline is the same promptness check for FUN's levelwise
// traversal.
func TestFunContextDeadline(t *testing.T) {
	rel := dataset.NCVoter(1000, 18)
	p := pli.NewProvider(rel, 1, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := FunContext(ctx, p, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled FUN took %v, want prompt return", elapsed)
	}
}

func TestTaneContextBackgroundMatchesPlain(t *testing.T) {
	rel := dataset.NCVoter(200, 8)
	plain := Tane(pli.NewProvider(rel, 1, 0, 0), true)
	ctxed, err := TaneContext(context.Background(), pli.NewProvider(rel, 1, 0, 0), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.FDs) != len(ctxed.FDs) || len(plain.MinimalUCCs) != len(ctxed.MinimalUCCs) {
		t.Fatal("background-context TANE differs from plain TANE")
	}
}

// TestRepairRHSPreCancelled repairs under a cancelled context a right-hand
// side whose prior LHS family (18 disjoint column pairs) has 2^18 minimal
// hitting sets. The duality step must poll the context: the repair returns
// ctx.Err() without a predicate evaluation, long before that enumeration
// could finish (about 170 ms uncancelled on a 2-vCPU host).
func TestRepairRHSPreCancelled(t *testing.T) {
	const width = 37
	names := make([]string, width)
	row := make([]string, width)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
		row[c] = "v"
	}
	rel, err := relation.New("wide", names, [][]string{row})
	if err != nil {
		t.Fatal(err)
	}
	p := pli.NewProvider(rel, 1, 0, 0)
	base := bitset.Full(width - 1)
	var oldLHSs []bitset.Set
	for c := 0; c < width-1; c += 2 {
		oldLHSs = append(oldLHSs, bitset.New(c, c+1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	lhss, checks, err := RepairRHS(ctx, p, base, width-1, nil, oldLHSs[:1], oldLHSs, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lhss != nil || checks != 0 {
		t.Fatalf("cancelled repair returned %d LHSs after %d checks, want none", len(lhss), checks)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled repair took %v, want prompt return", elapsed)
	}
}
