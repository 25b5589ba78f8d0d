package model

import "fmt"

// SetEval evaluates a deployed set given as a subset mask (bit i set =
// index i deployed) instead of as a walk. Everything but the objective is
// a pure function of the set — the build cost of the next index, the
// per-query best speedups and the runtime — so a search over sets (A*)
// can score a state's children without replaying any prefix: Load the
// state's mask, then ask for each child's RuntimeWith. A child's build
// cost needs no load at all (Compiled.MaskBuildCost). Results are bitwise
// what a Walker that pushed the same set in any order reports: a child's
// objective is g + Runtime()·MaskBuildCost(mask, i), the expression
// Walker.ObjectiveIfPushed evaluates.
//
// SetEval needs N ≤ 64. Load and RuntimeWith do not allocate once
// RuntimeWith's undo log has grown to its working size.
type SetEval struct {
	c       *Compiled
	mask    uint64
	best    []float64 // query -> best available speedup under mask
	runtime float64

	// RuntimeWith's undo log for the bests it raises temporarily.
	undoQ    []int32
	undoPrev []float64
}

// NewSetEval returns a SetEval loaded with the empty set. It panics when
// the instance has more than 64 indexes.
func NewSetEval(c *Compiled) *SetEval {
	if c.N > 64 {
		panic(fmt.Sprintf("model: SetEval needs at most 64 indexes, instance has %d", c.N))
	}
	e := &SetEval{c: c, best: make([]float64, len(c.QryRuntime))}
	e.Load(0)
	return e
}

// Load makes mask the evaluated set.
func (e *SetEval) Load(mask uint64) {
	e.mask = mask
	clear(e.best)
	for _, p := range e.c.planSets {
		if p.mask&^mask == 0 && p.spd > e.best[p.query] {
			e.best[p.query] = p.spd
		}
	}
	e.runtime = e.c.runtimeOf(e.best)
}

// Runtime returns the weighted workload runtime under the loaded set.
func (e *SetEval) Runtime() float64 { return e.runtime }

// RuntimeWith returns the runtime after deploying i on top of the loaded
// set, which must not contain i. The runtime sum is recomputed only when
// i completes a plan that beats its query's best; otherwise it is
// Runtime().
func (e *SetEval) RuntimeWith(i int) float64 {
	with := e.mask | 1<<uint(i)
	e.undoQ, e.undoPrev = e.undoQ[:0], e.undoPrev[:0]
	for _, r := range e.c.planRefs[i] {
		if e.c.planSets[r.plan].mask&^with != 0 || !(r.spd > e.best[r.query]) {
			continue
		}
		e.undoQ = append(e.undoQ, r.query)
		e.undoPrev = append(e.undoPrev, e.best[r.query])
		e.best[r.query] = r.spd
	}
	if len(e.undoQ) == 0 {
		return e.runtime
	}
	rt := e.c.runtimeOf(e.best)
	for k := len(e.undoQ) - 1; k >= 0; k-- {
		e.best[e.undoQ[k]] = e.undoPrev[k]
	}
	return rt
}
