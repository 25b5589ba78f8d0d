package local

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
)

// TabuBSwap runs best-improvement Tabu Search (§7.1 TS-BSwap): every
// iteration evaluates all feasible position swaps outside the tabu list
// and applies the best one (even if worsening, to escape local optima).
// An aspiration criterion allows tabu moves that improve the global best.
func TabuBSwap(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	return tabu(c, cs, opt, false)
}

// TabuFSwap runs first-improvement Tabu Search (§7.1 TS-FSwap): each
// iteration applies the first improving non-tabu swap it finds, falling
// back to the best non-tabu move when no swap improves. Cheaper per
// iteration than TS-BSwap but less informed.
func TabuFSwap(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	return tabu(c, cs, opt, true)
}

func tabu(c *model.Compiled, cs *constraint.Set, opt Options, firstImprove bool) Result {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	n := c.N
	b := newBudget(&opt)
	// All candidate swaps are scored through the delta evaluator: a move
	// costs O(disturbed suffix) instead of the full-replay O(n·plans) the
	// seed paid, and scores are bit-identical to a replay so no drift can
	// accumulate between iterations.
	e := model.NewMoveEval(c, opt.Initial)
	cur := e.Current() // live view; mutated only through e.Apply
	curObj := e.Objective()
	tr := &tracker{b: b, onImprove: opt.OnImprove}
	tr.record(cur, curObj)
	best := append([]int(nil), cur...)

	tenure := max(7, n/8) // in iterations
	// tabuUntil[i] = iteration until which moving index i is forbidden.
	tabuUntil := make([]int, n)

	var accepted int64
	for iter := 1; !b.exhausted(); iter++ {
		if ext, _, adopted := tr.adopt(&opt, cur, curObj); adopted {
			e.SetOrder(ext)
			curObj = e.Objective()
			copy(best, cur) // keep Result.Order consistent with tr.best
		}
		bestA, bestB := -1, -1
		bestDelta := inf()
		found := false
		sched.Swaps(cur, cs, func(a, bb int) bool {
			ia, ib := cur[a], cur[bb]
			tabu := iter < tabuUntil[ia] || iter < tabuUntil[ib]
			obj := e.Swap(a, bb)
			e.Reject()
			b.spend(1)
			delta := obj - curObj
			// Aspiration: a tabu move is allowed if it beats the global
			// best.
			if tabu && obj >= tr.best {
				return !b.exhausted()
			}
			if delta < bestDelta {
				bestDelta, bestA, bestB = delta, a, bb
				found = true
				if firstImprove && delta < -1e-12 {
					return false
				}
			}
			return !b.exhausted()
		})
		if !found {
			break // fully tabu or fully infeasible neighborhood
		}
		ia, ib := cur[bestA], cur[bestB]
		e.Swap(bestA, bestB)
		e.Apply()
		accepted++
		curObj = e.Objective() // exact by construction; no delta drift
		tabuUntil[ia] = iter + tenure
		tabuUntil[ib] = iter + tenure
		if curObj < tr.best-1e-12 {
			tr.record(cur, curObj)
			copy(best, cur)
		}
	}
	return Result{Order: best, Objective: tr.best, Traj: tr.traj, Steps: b.steps,
		Accepted: accepted, Adopted: tr.adopted}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
