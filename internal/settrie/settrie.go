// Package settrie implements a prefix tree over column combinations (paper
// Sec. 5.4, Fig. 5). Column sets are stored as their sorted column sequences;
// the trie answers subset and superset queries without scanning all stored
// sets, which MUDS needs for its pruning rules (the minimal UCCs containing
// a column) and connector look-ups (supersets of a connector).
//
// On top of the plain trie, MinimalFamily and MaximalFamily maintain
// antichains of minimal respectively maximal sets, the stores used for
// minimal UCCs / FD left-hand sides and for maximal non-UCCs / non-FDs.
package settrie

import (
	"sort"

	"holistic/internal/bitset"
)

// node keeps its children as parallel slices sorted by column, so traversals
// iterate in deterministic order without per-visit sorting and lookups are a
// binary search. The discovery algorithms hammer these operations (every
// pruning decision is a trie query), which is why no map is used here.
type node struct {
	cols     []int
	children []*node
	terminal bool
}

func (n *node) childIndex(col int) int {
	// Nodes are narrow in practice; a linear scan beats binary search until
	// the fan-out gets large.
	if len(n.cols) <= 16 {
		for i, c := range n.cols {
			if c >= col {
				return i
			}
		}
		return len(n.cols)
	}
	return sort.SearchInts(n.cols, col)
}

func (n *node) child(col int) *node {
	i := n.childIndex(col)
	if i < len(n.cols) && n.cols[i] == col {
		return n.children[i]
	}
	return nil
}

func (n *node) ensureChild(col int) *node {
	i := n.childIndex(col)
	if i < len(n.cols) && n.cols[i] == col {
		return n.children[i]
	}
	c := &node{}
	n.cols = append(n.cols, 0)
	copy(n.cols[i+1:], n.cols[i:])
	n.cols[i] = col
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

func (n *node) removeChild(col int) {
	i := n.childIndex(col)
	if i >= len(n.cols) || n.cols[i] != col {
		return
	}
	n.cols = append(n.cols[:i], n.cols[i+1:]...)
	n.children = append(n.children[:i], n.children[i+1:]...)
}

func (n *node) empty() bool {
	return !n.terminal && len(n.cols) == 0
}

// Trie is a set of column combinations supporting subset/superset queries.
// The zero value is an empty trie ready for use.
type Trie struct {
	root node
	size int
}

// Len returns the number of stored sets.
func (t *Trie) Len() int { return t.size }

// Add inserts s and reports whether it was not already present. The empty
// set is a valid element (stored at the root).
func (t *Trie) Add(s bitset.Set) bool {
	n := &t.root
	s.ForEach(func(c int) {
		n = n.ensureChild(c)
	})
	if n.terminal {
		return false
	}
	n.terminal = true
	t.size++
	return true
}

// Contains reports whether exactly s is stored.
func (t *Trie) Contains(s bitset.Set) bool {
	n := &t.root
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		if n = n.child(c); n == nil {
			return false
		}
	}
	return n.terminal
}

// Remove deletes s and reports whether it was present.
func (t *Trie) Remove(s bitset.Set) bool {
	if !t.remove(&t.root, s.Columns()) {
		return false
	}
	t.size--
	return true
}

func (t *Trie) remove(n *node, cols []int) bool {
	if len(cols) == 0 {
		if !n.terminal {
			return false
		}
		n.terminal = false
		return true
	}
	child := n.child(cols[0])
	if child == nil || !t.remove(child, cols[1:]) {
		return false
	}
	if child.empty() {
		n.removeChild(cols[0])
	}
	return true
}

// ContainsSubsetOf reports whether some stored set is a subset of x
// (including x itself and the empty set).
func (t *Trie) ContainsSubsetOf(x bitset.Set) bool {
	return containsSubsetOf(&t.root, x.Columns())
}

func containsSubsetOf(n *node, cols []int) bool {
	if n.terminal {
		return true
	}
	if len(n.cols) == 0 {
		return false
	}
	for i, c := range cols {
		if child := n.child(c); child != nil {
			if containsSubsetOf(child, cols[i+1:]) {
				return true
			}
		}
	}
	return false
}

// SubsetsOf returns all stored sets that are subsets of x, in deterministic
// (sorted-path) order.
func (t *Trie) SubsetsOf(x bitset.Set) []bitset.Set {
	var out []bitset.Set
	subsetsOf(&t.root, x.Columns(), bitset.Set{}, &out)
	return out
}

func subsetsOf(n *node, cols []int, path bitset.Set, out *[]bitset.Set) {
	if n.terminal {
		*out = append(*out, path)
	}
	if len(n.cols) == 0 {
		return
	}
	// Walk the query columns and the child columns in tandem; both are
	// sorted, so each child is visited at most once.
	ci := 0
	for i, c := range cols {
		for ci < len(n.cols) && n.cols[ci] < c {
			ci++
		}
		if ci == len(n.cols) {
			return
		}
		if n.cols[ci] == c {
			subsetsOf(n.children[ci], cols[i+1:], path.With(c), out)
		}
	}
}

// ContainsSupersetOf reports whether some stored set is a superset of x
// (including x itself).
func (t *Trie) ContainsSupersetOf(x bitset.Set) bool {
	return containsSupersetOf(&t.root, x.Columns())
}

func containsSupersetOf(n *node, cols []int) bool {
	if len(cols) == 0 {
		return hasAnyTerminal(n)
	}
	next := cols[0]
	for i, c := range n.cols {
		switch {
		case c < next:
			if containsSupersetOf(n.children[i], cols) {
				return true
			}
		case c == next:
			return containsSupersetOf(n.children[i], cols[1:])
		default:
			return false // children are sorted; none can reach next
		}
	}
	return false
}

func hasAnyTerminal(n *node) bool {
	if n.terminal {
		return true
	}
	for _, child := range n.children {
		if hasAnyTerminal(child) {
			return true
		}
	}
	return false
}

// SupersetsOf returns all stored sets that are supersets of x, in
// deterministic order. This is the connector look-up primitive of MUDS
// (paper Sec. 5.1, Table 2).
func (t *Trie) SupersetsOf(x bitset.Set) []bitset.Set {
	var out []bitset.Set
	supersetsOf(&t.root, x.Columns(), bitset.Set{}, &out)
	return out
}

func supersetsOf(n *node, cols []int, path bitset.Set, out *[]bitset.Set) {
	if len(cols) == 0 {
		collect(n, path, out)
		return
	}
	next := cols[0]
	for i, c := range n.cols {
		switch {
		case c < next:
			supersetsOf(n.children[i], cols, path.With(c), out)
		case c == next:
			supersetsOf(n.children[i], cols[1:], path.With(c), out)
			return // sorted children: later ones skip next entirely
		default:
			return
		}
	}
}

func collect(n *node, path bitset.Set, out *[]bitset.Set) {
	if n.terminal {
		*out = append(*out, path)
	}
	for i, c := range n.cols {
		collect(n.children[i], path.With(c), out)
	}
}

// All returns every stored set in deterministic order.
func (t *Trie) All() []bitset.Set {
	var out []bitset.Set
	collect(&t.root, bitset.Set{}, &out)
	return out
}

// ForEach visits every stored set in deterministic order; fn returning false
// stops the traversal.
func (t *Trie) ForEach(fn func(s bitset.Set) bool) {
	forEach(&t.root, bitset.Set{}, fn)
}

func forEach(n *node, path bitset.Set, fn func(bitset.Set) bool) bool {
	if n.terminal && !fn(path) {
		return false
	}
	for i, c := range n.cols {
		if !forEach(n.children[i], path.With(c), fn) {
			return false
		}
	}
	return true
}
