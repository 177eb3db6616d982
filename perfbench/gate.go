package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"holistic/internal/core"
	"holistic/internal/relation"
)

// canonical renders a report's INDs, UCCs and FDs as one sorted string
// list, so two reports compare by content whatever their order.
func canonical(r *core.Report) []string {
	var out []string
	for _, d := range r.INDs {
		out = append(out, "ind "+d.Dependent+" <= "+d.Referenced)
	}
	for _, u := range r.UCCs {
		out = append(out, "ucc "+strings.Join(sortedCopy(u), ","))
	}
	for _, f := range r.FDs {
		out = append(out, "fd "+strings.Join(sortedCopy(f.LHS), ",")+" -> "+f.RHS)
	}
	sort.Strings(out)
	return out
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func digestStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest identifies a report's dependency sets.
func digest(r *core.Report) string { return digestStrings(canonical(r)) }

// reference profiles rel with HFUN, a strategy that shares no discovery
// code path with MUDS's UCC-first FD phases, and returns its report.
func reference(ctx context.Context, rel *relation.Relation) (*core.Report, error) {
	res, err := core.RunRelationContext(ctx, core.StrategyHolisticFun, rel, core.Options{}, nil)
	if err != nil {
		return nil, fmt.Errorf("reference profile: %w", err)
	}
	return core.NewReport(rel, res, false), nil
}

// compare returns "" when got holds exactly want's dependency sets, and a
// short description of the first difference otherwise.
func compare(got, want *core.Report) string {
	if got == nil {
		return "no result"
	}
	if got.Partial {
		return "partial result"
	}
	g, w := canonical(got), canonical(want)
	gs := make(map[string]bool, len(g))
	for _, s := range g {
		gs[s] = true
	}
	ws := make(map[string]bool, len(w))
	for _, s := range w {
		ws[s] = true
		if !gs[s] {
			return fmt.Sprintf("missing %q (%d vs %d dependencies)", s, len(g), len(w))
		}
	}
	for _, s := range g {
		if !ws[s] {
			return fmt.Sprintf("unexpected %q (%d vs %d dependencies)", s, len(g), len(w))
		}
	}
	return ""
}

// corruptReport makes r wrong: it drops its last FD, or invents one when
// it has none.
func corruptReport(r *core.Report) {
	if n := len(r.FDs); n > 0 {
		r.FDs = r.FDs[:n-1]
		return
	}
	r.FDs = append(r.FDs, core.FDReport{LHS: []string{}, RHS: r.Columns[0]})
}
