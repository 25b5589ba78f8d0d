package model

// The counter-based Walker this package shipped before plan watches,
// kept verbatim as the reference the watched-plan Walker is checked
// against bit for bit: TestWalkerMatchesReference and FuzzWalkerReference
// in walker_reference_test.go drive both through the same
// Push/Pop/Sync/Reset sequences. Only names changed, and two inputs
// Compile no longer builds for the Walker: the reference keeps its own
// plan references, and Pop reads PlansWithIndex.

import (
	"fmt"

	"github.com/evolving-olap/idd/internal/bitset"
)

// RefWalker and NewRefWalker export the reference to the external test
// package.
type RefWalker = refWalker

var NewRefWalker = newRefWalker

// refWalker evaluates a schedule incrementally: Push deploys one index,
// Pop undoes the most recent Push. It is the shared evaluation core for
// exhaustive search, CP, greedy, local search and the MoveEval delta
// evaluator; A* scores sets through SetEval, which shares its runtime sum.
//
// All per-step bookkeeping lives in reusable buffers owned by the walker,
// so Push/Pop/SpeedupIfBuilt are allocation-free in steady state. Every
// derived quantity (build cost, per-query best speedup, runtime) is a
// pure function of the *set* of deployed indexes — never of the order the
// set was reached in — which makes an incremental walk bit-identical to a
// fresh replay and lets MoveEval reuse cached per-step terms across
// moves.
type refWalker struct {
	c    *Compiled
	refs [][]planRef // Compiled.planRefs, which Compile builds only for SetEval

	built    []bool
	builtSet bitset.Set // same content as built, for O(n/64) subset tests
	missing  []int32    // plan -> #indexes still missing
	best     []float64  // query -> current best available speedup

	runtime float64 // R_k
	deploy  float64 // sum of C_1..C_k
	obj     float64 // sum of R_{j-1} C_j for j<=k

	steps []refStep
	// Shared change stack: queries whose best speedup changed across all
	// steps, with previous values. Each step records only its start offset
	// (refStep.chgStart), so Push never allocates per-step slices.
	chgQ    []int
	chgPrev []float64

	// SpeedupIfBuilt scratch: a dense epoch-stamped touched-query set in
	// place of a per-call map.
	gainQ   []float64
	stampQ  []uint32
	touched []int
	epoch   uint32
}

type refStep struct {
	index int32
	// Offset into the walker's shared change stack where this step's
	// query-best changes begin.
	chgStart int32
	cost     float64
	// Exact pre-push accumulator values, restored verbatim on Pop so that
	// an incremental Push/Pop walk is bit-identical to a fresh replay.
	prevRun    float64
	prevObj    float64
	prevDeploy float64
}

// term returns the objective contribution R_{k-1}*C_k of this step. The
// product is recomputed from the recorded operands, so it is bitwise the
// value Push accumulated.
func (st *refStep) term() float64 { return st.prevRun * st.cost }

// newRefWalker returns a refWalker at the empty schedule.
func newRefWalker(c *Compiled) *refWalker {
	return &refWalker{
		c:        c,
		refs:     buildPlanRefs(c),
		built:    make([]bool, c.N),
		builtSet: bitset.New(c.N),
		missing:  refInitMissing(c),
		best:     make([]float64, len(c.Inst.Queries)),
		runtime:  c.Base,
		steps:    make([]refStep, 0, c.N),
		gainQ:    make([]float64, len(c.Inst.Queries)),
		stampQ:   make([]uint32, len(c.Inst.Queries)),
	}
}

func refInitMissing(c *Compiled) []int32 {
	m := make([]int32, len(c.PlanIdx))
	for p := range c.PlanIdx {
		m[p] = int32(len(c.PlanIdx[p]))
	}
	return m
}

// Reset returns the walker to the empty schedule without reallocating.
func (w *refWalker) Reset() {
	if len(w.steps) == 0 {
		return
	}
	for i := range w.built {
		w.built[i] = false
	}
	w.builtSet.Clear()
	for p := range w.missing {
		w.missing[p] = int32(len(w.c.PlanIdx[p]))
	}
	for q := range w.best {
		w.best[q] = 0
	}
	w.runtime = w.c.Base
	w.deploy = 0
	w.obj = 0
	w.steps = w.steps[:0]
	w.chgQ = w.chgQ[:0]
	w.chgPrev = w.chgPrev[:0]
}

// Sync repositions the walker onto the given prefix: it pops only the
// diverging tail of the current walk and pushes the missing suffix, so
// moving between neighboring search nodes costs the symmetric difference
// of the two prefixes instead of a full replay.
func (w *refWalker) Sync(prefix []int) {
	common := 0
	for common < len(w.steps) && common < len(prefix) && int(w.steps[common].index) == prefix[common] {
		common++
	}
	for len(w.steps) > common {
		w.Pop()
	}
	for _, i := range prefix[common:] {
		w.Push(i)
	}
}

// Len returns the number of deployed indexes.
func (w *refWalker) Len() int { return len(w.steps) }

// Runtime returns R_k, the current weighted workload runtime.
func (w *refWalker) Runtime() float64 { return w.runtime }

// DeployTime returns the cumulative deployment cost so far.
func (w *refWalker) DeployTime() float64 { return w.deploy }

// Objective returns the objective accumulated so far (exact when all
// indexes are deployed; a lower-bound prefix term otherwise).
func (w *refWalker) Objective() float64 { return w.obj }

// Built reports whether index i is deployed.
func (w *refWalker) Built(i int) bool { return w.built[i] }

// BuiltSet returns the set of deployed indexes as a bitset. The set is
// live — it changes with every Push/Pop — and must not be mutated.
func (w *refWalker) BuiltSet() bitset.Set { return w.builtSet }

// BuildCost returns what deploying i now would cost, without deploying it.
func (w *refWalker) BuildCost(i int) float64 {
	return w.c.BuildCost(i, w.built)
}

// ObjectiveIfPushed returns the objective Push(i) followed by Objective()
// would report, without deploying i: it is bitwise the expression Push
// accumulates.
func (w *refWalker) ObjectiveIfPushed(i int) float64 {
	return w.obj + w.runtime*w.BuildCost(i)
}

// SpeedupIfBuilt returns how much the workload runtime would drop if index
// i were deployed now (S(i, built)), without deploying it. A plan becomes
// available iff i is its only missing index; per query only the best newly
// available plan beyond the current best counts.
func (w *refWalker) SpeedupIfBuilt(i int) float64 {
	w.epoch++
	if w.epoch == 0 { // uint32 wrap: invalidate all stamps once
		for q := range w.stampQ {
			w.stampQ[q] = 0
		}
		w.epoch = 1
	}
	w.touched = w.touched[:0]
	for _, r := range w.refs[i] {
		if w.missing[r.plan] != 1 {
			continue
		}
		q := int(r.query)
		d := r.spd - w.best[q]
		if d <= 0 {
			continue
		}
		if w.stampQ[q] != w.epoch {
			w.stampQ[q] = w.epoch
			w.gainQ[q] = d
			w.touched = append(w.touched, q)
		} else if d > w.gainQ[q] {
			w.gainQ[q] = d
		}
	}
	var gain float64
	for _, q := range w.touched {
		gain += w.gainQ[q]
	}
	return gain
}

// Push deploys index i as the next step of the schedule.
func (w *refWalker) Push(i int) {
	if w.built[i] {
		panic(fmt.Sprintf("model: Push of already built index %d", i))
	}
	cost := w.c.BuildCost(i, w.built)
	w.steps = append(w.steps, refStep{
		index: int32(i), cost: cost,
		prevRun: w.runtime, prevObj: w.obj, prevDeploy: w.deploy,
		chgStart: int32(len(w.chgQ)),
	})

	w.obj += w.runtime * cost
	w.deploy += cost
	w.built[i] = true
	w.builtSet.Add(i)

	changed := false
	for _, r := range w.refs[i] {
		m := w.missing[r.plan] - 1
		w.missing[r.plan] = m
		if m == 0 && r.spd > w.best[r.query] {
			w.chgQ = append(w.chgQ, int(r.query))
			w.chgPrev = append(w.chgPrev, w.best[r.query])
			w.best[r.query] = r.spd
			changed = true
		}
	}
	if changed {
		w.runtime = w.c.runtimeOf(w.best)
	}
}

// Pop undoes the most recent Push.
func (w *refWalker) Pop() {
	if len(w.steps) == 0 {
		panic("model: Pop on empty walker")
	}
	st := w.steps[len(w.steps)-1]
	w.steps = w.steps[:len(w.steps)-1]

	i := int(st.index)
	for _, p := range w.c.PlansWithIndex[i] {
		w.missing[p]++
	}
	// Restore query bests in reverse order of change.
	for k := len(w.chgQ) - 1; k >= int(st.chgStart); k-- {
		w.best[w.chgQ[k]] = w.chgPrev[k]
	}
	w.chgQ = w.chgQ[:st.chgStart]
	w.chgPrev = w.chgPrev[:st.chgStart]
	w.built[i] = false
	w.builtSet.Remove(i)
	w.runtime = st.prevRun
	w.deploy = st.prevDeploy
	w.obj = st.prevObj
}

// QueryBest returns the best available (weighted) speedup for query q in
// the current state.
func (w *refWalker) QueryBest(q int) float64 { return w.best[q] }

// QueryRuntime returns the current weighted runtime of query q.
func (w *refWalker) QueryRuntime(q int) float64 {
	return w.c.QryRuntime[q] - w.best[q]
}

// PlanMissing returns how many of plan p's indexes are not yet deployed.
func (w *refWalker) PlanMissing(p int) int { return int(w.missing[p]) }

// Order returns a copy of the currently deployed sequence.
func (w *refWalker) Order() []int {
	out := make([]int, len(w.steps))
	for k := range w.steps {
		out[k] = int(w.steps[k].index)
	}
	return out
}
