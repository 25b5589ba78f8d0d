package model

import (
	"fmt"
	"math/bits"

	"github.com/evolving-olap/idd/internal/bitset"
)

// Walker evaluates a schedule incrementally: Push deploys one index,
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
//
// Plan completion is tracked with watched plans, the watched-literal
// scheme of SAT solvers (Moskewicz et al., "Chaff", DAC 2001). Every plan
// sits on the watch list of exactly one of its indexes, and while the plan
// is incomplete that index is unbuilt. Push(i) visits only the plans
// watching i: each one moves its watch to another unbuilt index, found by
// masking the plan's index bits against the built set word by word; a
// plan with no other unbuilt index has just completed and may raise its
// query's best speedup. Pop does no plan work at all. Pushes and pops are
// LIFO, so every index built after i is unbuilt again when i is popped,
// and an incomplete plan's watch stays on an unbuilt index; a plan that
// completed at i's push still watches i, which becomes unbuilt with it.
// Reset likewise leaves the watches where they are, since with nothing
// built any watch is valid.
type Walker struct {
	c *Compiled

	built    []bool
	builtSet bitset.Set // same content as built, for O(n/64) subset tests
	best     []float64  // query -> current best available speedup
	// The plans watching index i are watch[watchOff[i]:watchOff[i]+
	// watchLen[i]]. Index i's slot range holds len(PlansWithIndex[i])
	// plans — only plans containing i can watch it — so moving a watch
	// never reallocates.
	watch    []int32
	watchOff []int32
	watchLen []int32

	runtime float64 // R_k
	deploy  float64 // sum of C_1..C_k
	obj     float64 // sum of R_{j-1} C_j for j<=k

	steps []walkStep
	// Shared change stack: queries whose best speedup changed across all
	// steps, with previous values. Each step records only its start offset
	// (walkStep.chgStart), so Push never allocates per-step slices.
	chgQ    []int
	chgPrev []float64

	// SpeedupIfBuilt scratch: a dense epoch-stamped touched-query set in
	// place of a per-call map; firstQ[q] is the smallest plan id that
	// qualified for query q in the current call.
	gainQ   []float64
	firstQ  []int32
	stampQ  []uint32
	touched []int
	epoch   uint32
}

type walkStep struct {
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
func (st *walkStep) term() float64 { return st.prevRun * st.cost }

// NewWalker returns a Walker at the empty schedule.
func NewWalker(c *Compiled) *Walker {
	nq := len(c.Inst.Queries)
	w := &Walker{
		c:        c,
		built:    make([]bool, c.N),
		builtSet: bitset.New(c.N),
		best:     make([]float64, nq),
		watchOff: make([]int32, c.N+1),
		watchLen: make([]int32, c.N),
		runtime:  c.Base,
		steps:    make([]walkStep, 0, c.N),
		gainQ:    make([]float64, nq),
		firstQ:   make([]int32, nq),
		stampQ:   make([]uint32, nq),
	}
	for i, ps := range c.PlansWithIndex {
		w.watchOff[i+1] = w.watchOff[i] + int32(len(ps))
	}
	w.watch = make([]int32, w.watchOff[c.N])
	// Every plan starts out watching its smallest index.
	for p, idx := range c.PlanIdx {
		if len(idx) > 0 {
			w.addWatch(idx[0], int32(p))
		}
	}
	return w
}

// addWatch puts plan p on index i's watch list.
func (w *Walker) addWatch(i int, p int32) {
	w.watch[w.watchOff[i]+w.watchLen[i]] = p
	w.watchLen[i]++
}

// watchers returns the plans watching index i.
func (w *Walker) watchers(i int) []int32 {
	off := w.watchOff[i]
	return w.watch[off : off+w.watchLen[i]]
}

// Reset returns the walker to the empty schedule without reallocating.
func (w *Walker) Reset() {
	if len(w.steps) == 0 {
		return
	}
	for i := range w.built {
		w.built[i] = false
	}
	w.builtSet.Clear()
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
func (w *Walker) Sync(prefix []int) {
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
func (w *Walker) Len() int { return len(w.steps) }

// Runtime returns R_k, the current weighted workload runtime.
func (w *Walker) Runtime() float64 { return w.runtime }

// DeployTime returns the cumulative deployment cost so far.
func (w *Walker) DeployTime() float64 { return w.deploy }

// Objective returns the objective accumulated so far (exact when all
// indexes are deployed; a lower-bound prefix term otherwise).
func (w *Walker) Objective() float64 { return w.obj }

// Built reports whether index i is deployed.
func (w *Walker) Built(i int) bool { return w.built[i] }

// BuiltSet returns the set of deployed indexes as a bitset. The set is
// live — it changes with every Push/Pop — and must not be mutated.
func (w *Walker) BuiltSet() bitset.Set { return w.builtSet }

// BuildCost returns what deploying i now would cost, without deploying it.
func (w *Walker) BuildCost(i int) float64 {
	return w.c.BuildCost(i, w.built)
}

// ObjectiveIfPushed returns the objective Push(i) followed by Objective()
// would report, without deploying i: it is bitwise the expression Push
// accumulates.
func (w *Walker) ObjectiveIfPushed(i int) float64 {
	return w.obj + float64(w.runtime*w.BuildCost(i))
}

// unbuilt returns an unbuilt index of the plan whose index bitset is
// mask, or -1 when the plan is complete. The plan's index bits are masked
// against the built set one word at a time.
func unbuilt(mask, built []uint64) int {
	built = built[:len(mask)]
	for k := range mask {
		if m := mask[k] &^ built[k]; m != 0 {
			return k<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// onlyMissing reports whether the unbuilt index i is the only unbuilt
// index of the plan whose index bitset is mask.
func onlyMissing(mask, built []uint64, i int) bool {
	built = built[:len(mask)]
	for k := range mask {
		m := mask[k] &^ built[k]
		if k == i>>6 {
			m &^= 1 << (uint(i) & 63)
		}
		if m != 0 {
			return false
		}
	}
	return true
}

// SpeedupIfBuilt returns how much the workload runtime would drop if the
// unbuilt index i were deployed now (S(i, built)), without deploying it.
// A plan becomes available iff i is its only missing index, and such a
// plan watches i; per query only the best newly available plan beyond the
// current best counts. The per-query gains are summed in ascending order
// of each query's first qualifying plan id — the order a scan of every
// plan containing i in id order meets them — so the sum does not depend
// on where the watches happen to sit.
func (w *Walker) SpeedupIfBuilt(i int) float64 {
	w.epoch++
	if w.epoch == 0 { // uint32 wrap: invalidate all stamps once
		for q := range w.stampQ {
			w.stampQ[q] = 0
		}
		w.epoch = 1
	}
	w.touched = w.touched[:0]
	built := w.builtSet.Words()
	for _, p := range w.watchers(i) {
		q := w.c.PlanQuery[p]
		d := w.c.PlanSpd[p] - w.best[q]
		if d <= 0 || !onlyMissing(w.c.planMaskOf(p), built, i) {
			continue
		}
		if w.stampQ[q] != w.epoch {
			w.stampQ[q] = w.epoch
			w.gainQ[q] = d
			w.firstQ[q] = p
			w.touched = append(w.touched, q)
			continue
		}
		if d > w.gainQ[q] {
			w.gainQ[q] = d
		}
		if p < w.firstQ[q] {
			w.firstQ[q] = p
		}
	}
	// Insertion sort by first qualifying plan: the lists are short and
	// mostly in order already.
	t := w.touched
	for a := 1; a < len(t); a++ {
		for b := a; b > 0 && w.firstQ[t[b]] < w.firstQ[t[b-1]]; b-- {
			t[b], t[b-1] = t[b-1], t[b]
		}
	}
	var gain float64
	for _, q := range t {
		gain += w.gainQ[q]
	}
	return gain
}

// Push deploys index i as the next step of the schedule.
func (w *Walker) Push(i int) {
	if w.built[i] {
		panic(fmt.Sprintf("model: Push of already built index %d", i))
	}
	cost := w.c.BuildCost(i, w.built)
	w.steps = append(w.steps, walkStep{
		index: int32(i), cost: cost,
		prevRun: w.runtime, prevObj: w.obj, prevDeploy: w.deploy,
		chgStart: int32(len(w.chgQ)),
	})

	// The explicit conversion rounds the product on its own, so no
	// architecture fuses it into the sum: a caller that accumulates the
	// same operands (cp's per-depth area) gets the same bits.
	w.obj += float64(w.runtime * cost)
	w.deploy += cost
	w.built[i] = true
	w.builtSet.Add(i)

	// Move every watch off i; the plans that cannot move have just
	// completed and stay on i's list. The order of the best-speedup
	// updates does not matter: each query's best becomes the maximum over
	// its completed plans, and Pop restores the change stack in reverse.
	changed := false
	built := w.builtSet.Words()
	ws := w.watchers(i)
	keep := int32(0)
	for _, p := range ws {
		if j := unbuilt(w.c.planMaskOf(p), built); j >= 0 {
			w.addWatch(j, p)
			continue
		}
		ws[keep] = p
		keep++
		q := w.c.PlanQuery[p]
		if spd := w.c.PlanSpd[p]; spd > w.best[q] {
			w.chgQ = append(w.chgQ, q)
			w.chgPrev = append(w.chgPrev, w.best[q])
			w.best[q] = spd
			changed = true
		}
	}
	w.watchLen[i] = keep
	if changed {
		w.runtime = w.c.runtimeOf(w.best)
	}
}

// Pop undoes the most recent Push. It touches no plan: the watches need
// no undo (see Walker), so only the change stack and the accumulators are
// restored.
func (w *Walker) Pop() {
	if len(w.steps) == 0 {
		panic("model: Pop on empty walker")
	}
	st := w.steps[len(w.steps)-1]
	w.steps = w.steps[:len(w.steps)-1]

	// Restore query bests in reverse order of change.
	for k := len(w.chgQ) - 1; k >= int(st.chgStart); k-- {
		w.best[w.chgQ[k]] = w.chgPrev[k]
	}
	w.chgQ = w.chgQ[:st.chgStart]
	w.chgPrev = w.chgPrev[:st.chgStart]
	i := int(st.index)
	w.built[i] = false
	w.builtSet.Remove(i)
	w.runtime = st.prevRun
	w.deploy = st.prevDeploy
	w.obj = st.prevObj
}

// QueryBest returns the best available (weighted) speedup for query q in
// the current state.
func (w *Walker) QueryBest(q int) float64 { return w.best[q] }

// QueryRuntime returns the current weighted runtime of query q.
func (w *Walker) QueryRuntime(q int) float64 {
	return w.c.QryRuntime[q] - w.best[q]
}

// Order returns a copy of the currently deployed sequence.
func (w *Walker) Order() []int {
	out := make([]int, len(w.steps))
	for k := range w.steps {
		out[k] = int(w.steps[k].index)
	}
	return out
}
