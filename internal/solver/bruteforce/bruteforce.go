// Package bruteforce enumerates every feasible permutation. It is the
// ground truth the other solvers are tested against and the "exhaustive
// search" strawman of §5 (intractable beyond ~12 indexes).
package bruteforce

import (
	"context"
	"fmt"
	"math"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// MaxN caps the instance size Solve accepts: 13! ≈ 6e9 is already out of
// reach, so refuse anything bigger than 12.
const MaxN = 12

// Result is the optimum found by exhaustive enumeration.
type Result struct {
	Order     []int
	Objective float64
	// Visited is the number of complete permutations evaluated; Nodes
	// the number of search nodes (prefixes) entered.
	Visited, Nodes int64
	// Aborted is true when SolveContext was cancelled or SolveLimit hit
	// its node limit mid-enumeration: Order is then only the best
	// permutation seen so far, not a proved optimum.
	Aborted bool
}

// Solve enumerates all orders compatible with cs (nil = unconstrained)
// and returns the best. If bound is true, a simple admissible lower bound
// prunes hopeless prefixes; the result is still exact.
func Solve(c *model.Compiled, cs *constraint.Set, bound bool) (Result, error) {
	return SolveContext(context.Background(), c, cs, bound)
}

// SolveContext is Solve with cooperative cancellation, checked every few
// thousand search nodes. A cancelled enumeration returns the best order
// found so far with Aborted set (error only when nothing feasible was
// reached yet).
func SolveContext(ctx context.Context, c *model.Compiled, cs *constraint.Set, bound bool) (Result, error) {
	return SolveLimit(ctx, c, cs, bound, 0)
}

// SolveLimit is SolveContext that also stops after nodeLimit search nodes
// (0 = unlimited), with Aborted set and the best order found so far.
func SolveLimit(ctx context.Context, c *model.Compiled, cs *constraint.Set, bound bool, nodeLimit int64) (Result, error) {
	if c.N > MaxN {
		return Result{}, fmt.Errorf("bruteforce: %d indexes exceeds MaxN=%d", c.N, MaxN)
	}
	lb := NewLowerBound(c)
	res := Result{Objective: math.Inf(1)}
	w := model.NewWalker(c)
	var rec func()
	rec = func() {
		if res.Aborted {
			return
		}
		if nodeLimit > 0 && res.Nodes == nodeLimit {
			res.Aborted = true
			return
		}
		res.Nodes++
		if res.Nodes%4096 == 0 {
			select {
			case <-ctx.Done():
				res.Aborted = true
				return
			default:
			}
		}
		if w.Len() == c.N {
			res.Visited++
			if obj := w.Objective(); obj < res.Objective {
				res.Objective = obj
				res.Order = w.Order()
			}
			return
		}
		if bound && !math.IsInf(res.Objective, 1) {
			if lb.Complete(w) >= res.Objective {
				return
			}
		}
		// The walker's bitset built-state doubles as the enumeration
		// state: membership and precedence-readiness are bitset tests, no
		// shadow built[] array.
		for i := 0; i < c.N; i++ {
			if w.Built(i) || !predsBuilt(i, w, cs) {
				continue
			}
			w.Push(i)
			rec()
			w.Pop()
		}
	}
	rec()
	if res.Order == nil {
		if res.Aborted {
			return Result{}, fmt.Errorf("bruteforce: stopped before any feasible order was reached")
		}
		return Result{}, fmt.Errorf("bruteforce: no feasible order (contradictory constraints)")
	}
	return res, nil
}

// predsBuilt reports whether all precedence predecessors of i are
// deployed: one O(n/64) bitset subset test against the walker state.
func predsBuilt(i int, w *model.Walker, cs *constraint.Set) bool {
	if cs == nil {
		return true
	}
	return w.BuiltSet().ContainsAll(cs.Predecessors(i))
}

// LowerBound computes an admissible completion bound shared by the exact
// solvers: every remaining index costs at least its best-case build cost,
// and the workload runtime never drops below the all-indexes-deployed
// runtime, so the remaining area is at least minRuntime * minRemainingCost.
type LowerBound struct {
	c *model.Compiled
	// minCost[i] = ctime(i) - best possible build discount.
	minCost []float64
	// minRuntime = Base - sum over queries of their best plan speedup.
	minRuntime float64
}

// NewLowerBound precomputes the bound tables.
func NewLowerBound(c *model.Compiled) *LowerBound {
	lb := &LowerBound{c: c, minCost: make([]float64, c.N)}
	for i := 0; i < c.N; i++ {
		best := 0.0
		for _, h := range c.Helpers[i] {
			if h.Speedup > best {
				best = h.Speedup
			}
		}
		lb.minCost[i] = c.CreateCost[i] - best
	}
	total := c.Base
	for q := range c.PlansOfQuery {
		best := 0.0
		for _, p := range c.PlansOfQuery[q] {
			if c.PlanSpd[p] > best {
				best = c.PlanSpd[p]
			}
		}
		total -= best
	}
	lb.minRuntime = total
	return lb
}

// MinRuntime returns the lowest achievable workload runtime.
func (lb *LowerBound) MinRuntime() float64 { return lb.minRuntime }

// MinCost returns the best-case build cost of index i.
func (lb *LowerBound) MinCost(i int) float64 { return lb.minCost[i] }

// Complete returns a lower bound on the objective of any completion of
// the walker's current prefix.
func (lb *LowerBound) Complete(w *model.Walker) float64 {
	var rest float64
	for i := 0; i < lb.c.N; i++ {
		if !w.Built(i) {
			rest += lb.minCost[i]
		}
	}
	return w.Objective() + lb.minRuntime*rest
}
