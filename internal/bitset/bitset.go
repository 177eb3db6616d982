// Package bitset implements fixed-width column sets and the attribute-lattice
// helpers shared by all profiling algorithms.
//
// A Set is a value type (plain comparable struct) so it can be used directly
// as a map key, which the PLI caches, set-tries, and candidate queues of the
// discovery algorithms rely on. The width is fixed at 256 columns; all
// datasets of the reproduced evaluation fit well below that bound.
package bitset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxColumns is the largest column index (exclusive) a Set can hold.
const MaxColumns = 256

const words = MaxColumns / 64

// Set is a set of column indexes in [0, MaxColumns). The zero value is the
// empty set. Sets are immutable values: all operations return new sets.
type Set struct {
	w [words]uint64
}

// New returns the set containing the given columns. It panics if a column is
// out of range, because a column index beyond MaxColumns is a programming
// error, not an input error (inputs are validated at relation-load time).
func New(cols ...int) Set {
	var s Set
	for _, c := range cols {
		s = s.With(c)
	}
	return s
}

// Single returns the singleton set {col}.
func Single(col int) Set {
	return New(col)
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	var s Set
	if n < 0 || n > MaxColumns {
		panic(fmt.Sprintf("bitset: column count %d out of range", n))
	}
	for i := 0; i < n/64; i++ {
		s.w[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s.w[n/64] = (uint64(1) << r) - 1
	}
	return s
}

func check(col int) {
	if col < 0 || col >= MaxColumns {
		panic(fmt.Sprintf("bitset: column %d out of range [0,%d)", col, MaxColumns))
	}
}

// With returns s ∪ {col}.
func (s Set) With(col int) Set {
	check(col)
	s.w[col/64] |= uint64(1) << (col % 64)
	return s
}

// Without returns s \ {col}.
func (s Set) Without(col int) Set {
	check(col)
	s.w[col/64] &^= uint64(1) << (col % 64)
	return s
}

// Has reports whether col ∈ s.
func (s Set) Has(col int) bool {
	check(col)
	return s.w[col/64]&(uint64(1)<<(col%64)) != 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	for i := range s.w {
		s.w[i] |= t.w[i]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	for i := range s.w {
		s.w[i] &= t.w[i]
	}
	return s
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	for i := range s.w {
		s.w[i] &^= t.w[i]
	}
	return s
}

// IsEmpty reports whether s has no columns.
func (s Set) IsEmpty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit hash of s (FNV-1a over the words). The sharded PLI
// cache uses it to pick a shard; it is not a cryptographic hash.
func (s Set) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range s.w {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (w >> shift) & 0xff
			h *= prime64
		}
	}
	return h
}

// Len returns |s|.
func (s Set) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsSubsetOf reports whether s ⊆ t.
func (s Set) IsSubsetOf(t Set) bool {
	for i := range s.w {
		if s.w[i]&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubsetOf reports whether s ⊂ t.
func (s Set) IsProperSubsetOf(t Set) bool {
	return s != t && s.IsSubsetOf(t)
}

// IsSupersetOf reports whether s ⊇ t.
func (s Set) IsSupersetOf(t Set) bool {
	return t.IsSubsetOf(s)
}

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool {
	for i := range s.w {
		if s.w[i]&t.w[i] != 0 {
			return true
		}
	}
	return false
}

// First returns the smallest column in s, or -1 if s is empty.
func (s Set) First() int {
	for i, w := range s.w {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest column in s greater than col, or -1.
func (s Set) NextAfter(col int) int {
	if col < -1 {
		col = -1
	}
	start := col + 1
	if start >= MaxColumns {
		return -1
	}
	wi := start / 64
	w := s.w[wi] >> (start % 64)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < words; i++ {
		if s.w[i] != 0 {
			return i*64 + bits.TrailingZeros64(s.w[i])
		}
	}
	return -1
}

// Columns returns the columns of s in ascending order.
func (s Set) Columns() []int {
	cols := make([]int, 0, s.Len())
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		cols = append(cols, c)
	}
	return cols
}

// ForEach calls fn for every column of s in ascending order.
func (s Set) ForEach(fn func(col int)) {
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		fn(c)
	}
}

// DirectSubsets returns all sets s \ {c} for c ∈ s, i.e. the direct
// (one-smaller) subsets in the attribute lattice, in ascending column order.
func (s Set) DirectSubsets() []Set {
	subs := make([]Set, 0, s.Len())
	s.ForEach(func(c int) {
		subs = append(subs, s.Without(c))
	})
	return subs
}

// DirectSupersets returns all sets s ∪ {c} for columns c < n with c ∉ s,
// i.e. the direct (one-larger) supersets in the lattice over n columns.
func (s Set) DirectSupersets(n int) []Set {
	sups := make([]Set, 0, n-s.Len())
	for c := 0; c < n; c++ {
		if !s.Has(c) {
			sups = append(sups, s.With(c))
		}
	}
	return sups
}

// Complement returns {0..n-1} \ s.
func (s Set) Complement(n int) Set {
	return Full(n).Diff(s)
}

// SubsetsOfSize enumerates all subsets of s with exactly k columns.
func (s Set) SubsetsOfSize(k int, fn func(sub Set) bool) {
	cols := s.Columns()
	n := len(cols)
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var sub Set
		for _, i := range idx {
			sub = sub.With(cols[i])
		}
		if !fn(sub) {
			return
		}
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// String formats the set as column letters for up to 26 columns (matching the
// paper's examples, e.g. "AFG") and as {i,j,...} otherwise. The empty set is
// "∅".
func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	cols := s.Columns()
	if cols[len(cols)-1] < 26 {
		var b strings.Builder
		for _, c := range cols {
			b.WriteByte(byte('A' + c))
		}
		return b.String()
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// FromLetters parses a paper-style letter combination such as "AFG" into a
// set (A=0, B=1, ...). It is the inverse of String for small sets and exists
// for tests and examples that mirror the paper's notation.
func FromLetters(letters string) Set {
	var s Set
	for _, r := range letters {
		switch {
		case r >= 'A' && r <= 'Z':
			s = s.With(int(r - 'A'))
		case r >= 'a' && r <= 'z':
			s = s.With(int(r - 'a'))
		default:
			panic(fmt.Sprintf("bitset: invalid column letter %q", r))
		}
	}
	return s
}

// Sort orders a slice of sets by cardinality first and lexicographic column
// order second. It gives deterministic output ordering across algorithms,
// which the result comparisons and golden tests rely on.
func Sort(sets []Set) {
	sort.Slice(sets, func(i, j int) bool {
		return Less(sets[i], sets[j])
	})
}

// Less is the ordering used by Sort: by cardinality, then lexicographically
// by the ascending column lists. Two sets of equal size share every column
// below the lowest column in which they differ, so the set holding that
// column has the smaller list.
func Less(a, b Set) bool {
	la, lb := a.Len(), b.Len()
	if la != lb {
		return la < lb
	}
	d := a.Diff(b).Union(b.Diff(a)).First()
	return d >= 0 && a.Has(d)
}
