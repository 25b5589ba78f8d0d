// Package constraint maintains the precedence relation over index
// positions that the pruning analysis of §5 accumulates (edges like
// T_i < T_j) and that the exact solvers consume. It offers cycle-safe
// edge insertion, transitive closure via bitsets, position bounds, an
// order check (CheckOrder) and a stable topological repair (Set.Repair).
package constraint

import (
	"errors"
	"fmt"

	"github.com/evolving-olap/idd/internal/bitset"
)

// ErrCycle is returned when an edge insertion would create a cycle,
// i.e. the accumulated constraints became contradictory.
var ErrCycle = errors.New("constraint: precedence cycle")

// Set is a growable precedence relation over n items. It keeps the
// transitive closure incrementally, so Before(i,j) is O(1).
type Set struct {
	n int
	// after[i] = set of items that must come after i (closure).
	after []bitset.Set
	// before[i] = set of items that must come before i (closure).
	before []bitset.Set
	edges  [][2]int // explicitly added edges (not closed)
}

// NewSet returns an empty relation over n items.
func NewSet(n int) *Set {
	s := &Set{n: n, after: make([]bitset.Set, n), before: make([]bitset.Set, n)}
	for i := 0; i < n; i++ {
		s.after[i] = bitset.New(n)
		s.before[i] = bitset.New(n)
	}
	return s
}

// N returns the number of items.
func (s *Set) N() int { return s.n }

// Len returns the number of explicitly added (non-implied) edges.
func (s *Set) Len() int { return len(s.edges) }

// Edges returns the explicitly added edges.
func (s *Set) Edges() [][2]int { return s.edges }

// Before reports whether i is constrained to precede j (directly or
// transitively).
func (s *Set) Before(i, j int) bool { return s.after[i].Has(j) }

// Add inserts the constraint "i before j". Adding an already-implied edge
// is a no-op. Returns ErrCycle if j already (transitively) precedes i.
func (s *Set) Add(i, j int) error {
	if i == j {
		return fmt.Errorf("%w: self edge %d", ErrCycle, i)
	}
	if s.after[j].Has(i) {
		return fmt.Errorf("%w: %d..%d", ErrCycle, i, j)
	}
	if s.after[i].Has(j) {
		return nil // already implied
	}
	s.edges = append(s.edges, [2]int{i, j})
	// New pairs: (x, y) for every x in {i} ∪ before(i), y in {j} ∪ after(j).
	xs := s.before[i].Clone()
	xs.Add(i)
	ys := s.after[j].Clone()
	ys.Add(j)
	xs.ForEach(func(x int) bool {
		s.after[x].UnionWith(ys)
		return true
	})
	ys.ForEach(func(y int) bool {
		s.before[y].UnionWith(xs)
		return true
	})
	return nil
}

// MustAdd is Add that panics on cycle; for analysis code whose inputs are
// proven consistent.
func (s *Set) MustAdd(i, j int) {
	if err := s.Add(i, j); err != nil {
		panic(err)
	}
}

// Predecessors returns the closed set of items before i.
func (s *Set) Predecessors(i int) bitset.Set { return s.before[i] }

// Successors returns the closed set of items after i.
func (s *Set) Successors(i int) bitset.Set { return s.after[i] }

// MinPos returns the earliest 0-based position item i can take: the number
// of items that must precede it.
func (s *Set) MinPos(i int) int { return s.before[i].Count() }

// MaxPos returns the latest 0-based position item i can take.
func (s *Set) MaxPos(i int) int { return s.n - 1 - s.after[i].Count() }

// Repair returns order, a permutation of 0..N-1, reordered to respect
// the relation by a stable topological pass: at every step the ready
// item (all predecessors emitted) that comes earliest in order is
// emitted, so items move later only when a precedence makes them wait.
// A compatible order comes back unchanged, and Repair of the identity
// order is the topological order that breaks ties by item number.
func (s *Set) Repair(order []int) []int {
	rank := make([]int, s.n)
	for k, it := range order {
		rank[it] = k
	}
	remainingPred := make([]int, s.n)
	succ := make([][]int, s.n)
	for _, e := range s.edges {
		remainingPred[e[1]]++
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	ready := make([]int, 0, s.n)
	for i := 0; i < s.n; i++ {
		if remainingPred[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]int, 0, s.n)
	for len(ready) > 0 {
		mi := 0
		for k := 1; k < len(ready); k++ {
			if rank[ready[k]] < rank[ready[mi]] {
				mi = k
			}
		}
		it := ready[mi]
		ready = append(ready[:mi], ready[mi+1:]...)
		out = append(out, it)
		for _, v := range succ[it] {
			remainingPred[v]--
			if remainingPred[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(out) != s.n {
		// Cannot happen: Add maintains acyclicity.
		panic("constraint: relation has a cycle")
	}
	return out
}

// Clone returns an independent copy of the relation.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n, after: make([]bitset.Set, s.n), before: make([]bitset.Set, s.n)}
	for i := 0; i < s.n; i++ {
		out.after[i] = s.after[i].Clone()
		out.before[i] = s.before[i].Clone()
	}
	out.edges = append([][2]int(nil), s.edges...)
	return out
}

// Compatible reports whether the given order (order[k] = item at position
// k) satisfies every constraint.
func (s *Set) Compatible(order []int) bool {
	pos := make([]int, s.n)
	for k, it := range order {
		pos[it] = k
	}
	for _, e := range s.edges {
		if pos[e[0]] > pos[e[1]] {
			return false
		}
	}
	return true
}

// CheckOrder reports why order is not a feasible schedule of n items:
// wrong length, not a permutation of 0..n-1, or (when s is not nil)
// incompatible with s. It returns nil for a feasible order.
func CheckOrder(n int, s *Set, order []int) error {
	if len(order) != n {
		return fmt.Errorf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("order is not a permutation of 0..%d", n-1)
		}
		seen[i] = true
	}
	if s != nil && !s.Compatible(order) {
		return fmt.Errorf("order violates precedence constraints")
	}
	return nil
}
