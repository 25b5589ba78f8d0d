package prune

import (
	"math"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// TailBound is the in-search form of the §5.5 tail analysis. Where
// tails() extracts precedence *rules* that hold in every champion (a
// preprocessing pass), TailBound keeps the underlying enumeration
// itself: for every feasible tail set of up to maxLen indexes it stores
// the exact minimal area those final steps can contribute. Because the
// evaluation core is set-pure, that minimum depends only on the
// remaining *set* — never on the order the prefix was deployed in — so a
// branch-and-bound search sitting maxLen steps above the leaves can
// look up the exact cost of its best possible completion in O(1) and
// prune the node when even that cannot beat the incumbent.
//
// The bound is exact up to a 1e-9 relative safety deflation on lookup
// hits (see NewTailBound), far tighter than the generic completion
// bound: on tight-cost instances, where that bound degenerates (every
// remaining step costs almost the same), this is what shrinks the
// bottom of the tree. Lookup misses — a set skipped by the pattern
// budget or filtered by position windows — simply decline to prune,
// so soundness never depends on coverage.
type TailBound struct {
	n      int
	maxLen int
	// tables[m-1] maps the packed key of a size-m remaining set to the
	// minimal area of any constraint-feasible permutation of it. A nil
	// table means length m was skipped (over budget or over-constrained).
	tables []map[uint64]float64
}

// maxTailBoundLen caps the tail length: a key packs up to four 16-bit
// index ids into one uint64, giving exact (collision-free) lookups.
const maxTailBoundLen = 4

// NewTailBound enumerates the tail tables for lengths 1..TailLength
// (default 3, capped at 4). cs may be nil (no constraints). Instances
// with 2^16 or more indexes (far beyond any proof search) return nil,
// which every method treats as "bound disabled".
//
// It shares the tail enumerator with tails() and TailPatterns: the same
// candidate window and pattern budget, the same lex order of sets. Only
// the minimum of each set is stored, so its orders are scored by a
// depth-first walk that pushes a shared prefix once and reads each
// order's last step with Walker.ObjectiveIfPushed.
func NewTailBound(c *model.Compiled, cs *constraint.Set, opt Options) *TailBound {
	n := c.N
	if n >= 1<<16 {
		return nil
	}
	if cs == nil {
		cs = constraint.NewSet(n)
	}
	length := opt.TailLength
	if length == 0 {
		length = 3
	}
	if length > maxTailBoundLen {
		length = maxTailBoundLen
	}
	if length > n {
		length = n
	}
	maxPatterns := opt.MaxTailPatterns
	if maxPatterns == 0 {
		maxPatterns = 50000
	}

	tb := &TailBound{n: n, maxLen: length, tables: make([]map[uint64]float64, length)}
	w := model.NewWalker(c)
	for m := 1; m <= length; m++ {
		e := newTailEnum(cs, w, m, maxPatterns)
		if e == nil {
			continue // over-constrained or over budget; search nodes at this depth get no bound
		}
		table := make(map[uint64]float64)
		for e.next() {
			best := e.minTail(e.base())
			if !math.IsInf(best, 1) {
				// Deflate by a relative safety margin before storing: the
				// delta was computed against this enumeration's objective
				// base, but the search subtracts it from a different
				// prefix's base, and the ulp-level rounding difference
				// between the two (~1e-16 relative) could otherwise
				// outweigh the engine's 1e-12 improvement epsilon. A 1e-9
				// relative deflation guarantees the prune is conservative
				// against rounding — pruned subtrees provably contain no
				// improving solution — at no practical cost in power.
				table[tailKey(e.set)] = best - 1e-9*(math.Abs(best)+1)
			}
		}
		tb.tables[m-1] = table
	}
	return tb
}

// MaxLen reports the longest remaining-set size the bound covers
// (0 when the bound is disabled).
func (t *TailBound) MaxLen() int {
	if t == nil {
		return 0
	}
	return t.maxLen
}

// Lookup returns the minimal completion area for the given remaining
// set (indexes in ascending order; exact up to the storage-time safety
// deflation) and whether the set was enumerated. A false return means
// "no information" — callers must not prune on it.
func (t *TailBound) Lookup(remaining []int) (float64, bool) {
	m := len(remaining)
	if t == nil || m == 0 || m > t.maxLen || t.tables[m-1] == nil {
		return 0, false
	}
	v, ok := t.tables[m-1][tailKey(remaining)]
	return v, ok
}

// Sets reports how many tail sets were enumerated per length
// (diagnostics for tests and tooling).
func (t *TailBound) Sets() []int {
	if t == nil {
		return nil
	}
	out := make([]int, len(t.tables))
	for i, tab := range t.tables {
		out[i] = len(tab)
	}
	return out
}

// tailKey packs an ascending index set (size <= maxTailBoundLen, ids
// < 2^16) into one uint64. The packing is injective, so table hits are
// exact set matches — a collision could make the bound unsound, which
// is why the key is a packing and not a hash.
func tailKey(set []int) uint64 {
	var k uint64
	for j, i := range set {
		k |= uint64(i) << (16 * j)
	}
	return k
}
