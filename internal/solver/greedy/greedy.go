// Package greedy implements the interaction-guided greedy algorithm of
// §7.4 / Appendix C (Algorithm 1). At every step it deploys the ready
// index with the highest density, where the benefit counts the immediate
// query speedup plus a share of every not-yet-feasible plan the index
// participates in (future interaction opportunities), and the cost is the
// current build cost including build-interaction discounts.
//
// Candidates are scored without deploying them. Solve keeps, per plan,
// how many of its indexes are still missing — decremented once per
// committed index — and scores a candidate i from the plans containing
// i alone: the plans missing only i give the direct speedup and the
// query bests after i, and the others get their share of the remaining
// interaction. The walker only commits the chosen index.
package greedy

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// Solve returns the greedy deployment order. cs may be nil when the
// instance has no precedence constraints. Scoring runs on reusable
// per-plan and per-query scratch (see scorer), so the loop is
// allocation-free after setup.
func Solve(c *model.Compiled, cs *constraint.Set) []int {
	n := c.N
	s := newScorer(c)
	order := make([]int, 0, n)

	for len(order) < n {
		best, bestDensity, bestCost := -1, -1.0, 0.0
		for i := 0; i < n; i++ {
			if s.w.Built(i) || !ready(i, s.w, cs) {
				continue
			}
			benefit := s.benefit(i)
			cost := s.w.BuildCost(i)
			density := benefit / cost
			// Tie-breaks: higher density, then cheaper build, then
			// smaller id (determinism).
			if best == -1 || density > bestDensity+1e-12 ||
				(density > bestDensity-1e-12 && cost < bestCost) {
				best, bestDensity, bestCost = i, density, cost
			}
		}
		s.commit(best)
		order = append(order, best)
	}
	return order
}

// ready reports whether all precedence predecessors of i are deployed,
// as one bitset subset test against the walker's built set.
func ready(i int, w *model.Walker, cs *constraint.Set) bool {
	if cs == nil {
		return true
	}
	return w.BuiltSet().ContainsAll(cs.Predecessors(i))
}

// scorer holds the greedy state: the committed prefix on a walker, the
// per-plan missing counts, and epoch-stamped per-query scratch for
// benefit.
type scorer struct {
	c       *model.Compiled
	w       *model.Walker
	missing []int32 // plan -> indexes not yet committed

	// after[q] is query q's best speedup once the scored index is
	// deployed and gain[q] what that adds, valid where stamp[q] == epoch;
	// touched lists those queries in order of their first plan.
	after   []float64
	gain    []float64
	stamp   []uint32
	touched []int
	epoch   uint32
}

func newScorer(c *model.Compiled) *scorer {
	nq := len(c.Inst.Queries)
	s := &scorer{
		c:       c,
		w:       model.NewWalker(c),
		missing: make([]int32, len(c.PlanIdx)),
		after:   make([]float64, nq),
		gain:    make([]float64, nq),
		stamp:   make([]uint32, nq),
	}
	for p, idx := range c.PlanIdx {
		s.missing[p] = int32(len(idx))
	}
	return s
}

// commit deploys i.
func (s *scorer) commit(i int) {
	s.w.Push(i)
	for _, p := range s.c.PlansWithIndex[i] {
		s.missing[p]--
	}
}

// benefit evaluates Algorithm 1's benefit for deploying i now: the
// direct runtime drop plus, for every plan containing i that stays
// infeasible, the plan's remaining improvement divided equally among the
// plan's not-yet-deployed indexes. The first pass over the plans
// containing i finds those that i completes (one missing index): per
// query, the largest speedup gain sums, in the order the plans meet the
// queries, to the direct benefit, and the largest speedup is the query's
// best after i. The second pass adds the interaction shares against
// those bests.
func (s *scorer) benefit(i int) float64 {
	c := s.c
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: invalidate all stamps once
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	plans := c.PlansWithIndex[i]
	for _, p := range plans {
		if s.missing[p] != 1 {
			continue
		}
		q := c.PlanQuery[p]
		spd := c.PlanSpd[p]
		d := spd - s.w.QueryBest(q)
		if d <= 0 {
			continue
		}
		if s.stamp[q] != s.epoch {
			s.stamp[q] = s.epoch
			s.gain[q], s.after[q] = d, spd
			s.touched = append(s.touched, q)
			continue
		}
		s.gain[q] = max(s.gain[q], d)
		s.after[q] = max(s.after[q], spd)
	}
	var benefit float64
	for _, q := range s.touched {
		benefit += s.gain[q]
	}

	for _, p := range plans {
		missing := s.missing[p]
		if missing == 1 {
			continue // feasible once i is deployed; counted above
		}
		q := c.PlanQuery[p]
		bestAfter := s.w.QueryBest(q)
		if s.stamp[q] == s.epoch {
			bestAfter = s.after[q]
		}
		// interaction = runtime of q after i - runtime if p were used.
		planRuntime := c.QryRuntime[q] - c.PlanSpd[p]
		interaction := (c.QryRuntime[q] - bestAfter) - planRuntime
		if interaction > 0 {
			// Share among the indexes still missing, i included (the
			// paper divides by |p \ N| with i not yet in N).
			benefit += interaction / float64(missing)
		}
	}
	return benefit
}
