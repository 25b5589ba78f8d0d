// Package sched provides schedule (permutation) utilities shared by the
// solvers: precedence-respecting random permutations and the swap/insert
// neighborhood moves used by local search.
package sched

import (
	"math/rand"

	"github.com/evolving-olap/idd/internal/bitset"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// PrecedenceSet builds the constraint relation from an instance's declared
// precedences. It panics if the instance contains a precedence cycle
// (Validate rejects those earlier).
func PrecedenceSet(in *model.Instance) *constraint.Set {
	s := constraint.NewSet(in.N())
	for _, p := range in.Precedences {
		s.MustAdd(p.Before, p.After)
	}
	return s
}

// RandomFeasible returns a uniform-ish random permutation compatible with
// cs: it repeatedly picks a random item among those whose predecessors are
// all placed.
func RandomFeasible(rng *rand.Rand, cs *constraint.Set) []int {
	n := cs.N()
	placed := make([]bool, n)
	remainingPred := make([]int, n)
	succ := make([][]int, n)
	for _, e := range cs.Edges() {
		remainingPred[e[1]]++
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if remainingPred[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]int, 0, n)
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		it := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		placed[it] = true
		out = append(out, it)
		for _, v := range succ[it] {
			remainingPred[v]--
			if remainingPred[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(out) != n {
		panic("sched: constraint set has a cycle")
	}
	return out
}

// SwapFeasible reports whether exchanging positions a and b of order keeps
// the schedule compatible with cs. Positions between a and b matter: the
// moved items jump across everything in (a,b).
func SwapFeasible(order []int, a, b int, cs *constraint.Set) bool {
	if a == b {
		return true
	}
	if a > b {
		a, b = b, a
	}
	ia, ib := order[a], order[b]
	// ib moves to position a: nothing in order[a..b-1] may be required
	// before ib.
	for k := a; k < b; k++ {
		if cs.Before(order[k], ib) {
			return false
		}
	}
	// ia moves to position b: ia may not be required before anything in
	// order[a+1..b].
	for k := a + 1; k <= b; k++ {
		if cs.Before(ia, order[k]) {
			return false
		}
	}
	return true
}

// InsertFeasible reports whether removing the item at position from and
// reinserting it so it ends up at position to keeps compatibility.
func InsertFeasible(order []int, from, to int, cs *constraint.Set) bool {
	if from == to {
		return true
	}
	it := order[from]
	if from < to {
		// Item moves later: everything in (from,to] must not require it
		// first... they jump before it.
		for k := from + 1; k <= to; k++ {
			if cs.Before(it, order[k]) {
				return false
			}
		}
	} else {
		for k := to; k < from; k++ {
			if cs.Before(order[k], it) {
				return false
			}
		}
	}
	return true
}

// Swaps enumerates the cs-feasible swap neighborhood of order in
// lexicographic (a,b) position order, calling f for each feasible pair;
// f returning false stops the scan. Feasibility is checked incrementally:
// for a fixed a the scan stops as soon as a successor of order[a] is
// reached (no later b can be feasible), and the items strictly between
// the two positions are tracked in a bitset so each predecessor check is
// O(n/64) instead of O(window). The full scan is therefore
// O(n²·n/64) worst case versus the naive O(n³).
func Swaps(order []int, cs *constraint.Set, f func(a, b int) bool) {
	n := len(order)
	if cs == nil || cs.Len() == 0 {
		for a := 0; a < n-1; a++ {
			for b := a + 1; b < n; b++ {
				if !f(a, b) {
					return
				}
			}
		}
		return
	}
	between := bitset.New(cs.N())
	for a := 0; a < n-1; a++ {
		ia := order[a]
		between.Clear()
		for b := a + 1; b < n; b++ {
			ib := order[b]
			if cs.Before(ia, ib) {
				// ia precedes ib: infeasible now and for every larger b
				// (ib would stay between the swapped positions).
				break
			}
			// ib jumps to position a: nothing in (a,b) may precede it.
			if !between.Intersects(cs.Predecessors(ib)) {
				if !f(a, b) {
					return
				}
			}
			between.Add(ib)
		}
	}
}

// Inserts enumerates the cs-feasible insert neighborhood of order: for
// every from, all feasible targets to != from, nearest first (descending
// below from, then ascending above). Each direction stops at the first
// precedence violation, which blocks all farther targets too, so the scan
// does no redundant window work.
func Inserts(order []int, cs *constraint.Set, f func(from, to int) bool) {
	n := len(order)
	for from := 0; from < n; from++ {
		it := order[from]
		for to := from - 1; to >= 0; to-- {
			if cs != nil && cs.Before(order[to], it) {
				break // order[to] must stay before it; same for smaller to
			}
			if !f(from, to) {
				return
			}
		}
		for to := from + 1; to < n; to++ {
			if cs != nil && cs.Before(it, order[to]) {
				break // it must stay before order[to]; same for larger to
			}
			if !f(from, to) {
				return
			}
		}
	}
}

// ApplySwap exchanges two positions in place.
func ApplySwap(order []int, a, b int) { order[a], order[b] = order[b], order[a] }

// ApplyInsert removes the item at from and reinserts it at to, shifting
// the in-between items, in place.
func ApplyInsert(order []int, from, to int) {
	it := order[from]
	if from < to {
		copy(order[from:to], order[from+1:to+1])
	} else {
		copy(order[to+1:from+1], order[to:from])
	}
	order[to] = it
}

// Identity returns [0,1,...,n-1].
func Identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
