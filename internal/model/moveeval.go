package model

// MoveEval scores swap and insert neighborhood moves against a complete
// order in time proportional to the disturbed suffix, never the whole
// order. It is the evaluation engine behind tabu search, simulated
// annealing and the insertion descent: the seed implementation scored
// every candidate with a full O(n·plans) Objective replay (plus a fresh
// Walker allocation); MoveEval replays only from the first disturbed
// position, reuses the bitwise-cached objective terms of the untouched
// prefix and suffix, and allocates nothing in steady state.
//
// Exactness: scores are bit-identical to a fresh Compiled.Objective
// replay of the mutated order. The prefix before the move window is
// restored via exact Pops (the walker records pre-push accumulators
// verbatim), the window is replayed through the same Push code a fresh
// replay would run, and the suffix terms R_{k-1}*C_k are pure functions
// of the deployed set — unchanged by reordering earlier positions — so
// summing the cached terms continues the very same left-to-right addition
// chain. See TestMoveEvalBitIdenticalToReplay.
//
// Protocol: Swap/Insert score a candidate and leave it pending; Apply
// commits the pending move incrementally, Reject drops it. Scoring a new
// move implicitly rejects the previous pending one.
type MoveEval struct {
	c *Compiled
	w *Walker // synced to order[:w.Len()]

	order []int

	// Per-step caches for the current order:
	// term[k] = R_{k-1}*C_k, cost[k] = C_k, prefObj[k] = objective of the
	// k-step prefix (the left-to-right partial sums of term).
	term    []float64
	cost    []float64
	prefObj []float64

	kind     moveKind
	mvA, mvB int
}

type moveKind uint8

const (
	moveNone moveKind = iota
	moveSwap
	moveInsert
)

// NewMoveEval returns an evaluator positioned at a copy of order, which
// must be a complete permutation of the instance's indexes.
func NewMoveEval(c *Compiled, order []int) *MoveEval {
	if len(order) != c.N {
		panic("model: MoveEval requires a complete order")
	}
	e := &MoveEval{
		c:       c,
		w:       NewWalker(c),
		order:   append([]int(nil), order...),
		term:    make([]float64, c.N),
		cost:    make([]float64, c.N),
		prefObj: make([]float64, c.N+1),
	}
	e.resync(0)
	return e
}

// Objective returns the exact objective of the current order.
func (e *MoveEval) Objective() float64 { return e.prefObj[len(e.order)] }

// Current returns the live current order. It changes on Apply/SetOrder
// and must not be mutated by the caller; use Order for a copy.
func (e *MoveEval) Current() []int { return e.order }

// Order returns a copy of the current order.
func (e *MoveEval) Order() []int { return append([]int(nil), e.order...) }

// StepCost returns C_k, the build cost actually paid at position k of the
// current order (after build-interaction discounts).
func (e *MoveEval) StepCost(k int) float64 { return e.cost[k] }

// Swap returns the exact objective of the current order with positions a
// and b exchanged, leaving the move pending for Apply/Reject. It does not
// check precedence feasibility; callers gate moves with sched.Swaps or
// sched.SwapFeasible first.
func (e *MoveEval) Swap(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	e.kind, e.mvA, e.mvB = moveSwap, a, b
	return e.score(a, b)
}

// Insert returns the exact objective of the current order with the index
// at position from re-inserted so it ends up at position to, leaving the
// move pending for Apply/Reject.
func (e *MoveEval) Insert(from, to int) float64 {
	e.kind, e.mvA, e.mvB = moveInsert, from, to
	if from <= to {
		return e.score(from, to)
	}
	return e.score(to, from)
}

// Apply commits the pending move: the order is mutated in place and the
// per-step caches are rebuilt from the disturbed window on (terms inside
// the window are recomputed; suffix terms are reused bitwise).
func (e *MoveEval) Apply() {
	if e.kind == moveNone {
		panic("model: Apply without a pending move")
	}
	lo := e.mvA
	if e.kind == moveInsert && e.mvB < e.mvA {
		lo = e.mvB
	}
	hi := e.mvB
	if e.kind == moveInsert && e.mvB < e.mvA {
		hi = e.mvA
	}
	switch e.kind {
	case moveSwap:
		e.order[e.mvA], e.order[e.mvB] = e.order[e.mvB], e.order[e.mvA]
	case moveInsert:
		from, to := e.mvA, e.mvB
		it := e.order[from]
		if from < to {
			copy(e.order[from:to], e.order[from+1:to+1])
		} else {
			copy(e.order[to+1:from+1], e.order[to:from])
		}
		e.order[to] = it
	}
	e.kind = moveNone
	e.seek(lo)
	for k := lo; k <= hi; k++ {
		e.w.Push(e.order[k])
		st := &e.w.steps[k]
		e.term[k] = st.term()
		e.cost[k] = st.cost
	}
	// Re-chain the prefix objectives; terms beyond hi are unchanged.
	for k := lo; k < len(e.order); k++ {
		e.prefObj[k+1] = e.prefObj[k] + e.term[k]
	}
}

// Reject drops the pending move. The evaluator state is already back at
// the current order (scoring restores it), so this only clears the
// pending marker.
func (e *MoveEval) Reject() { e.kind = moveNone }

// SetOrder repositions the evaluator onto a different complete order
// (e.g. an adopted portfolio incumbent), reusing the shared prefix with
// the current order.
func (e *MoveEval) SetOrder(order []int) {
	if len(order) != e.c.N {
		panic("model: MoveEval requires a complete order")
	}
	e.kind = moveNone
	common := 0
	for common < len(order) && e.order[common] == order[common] {
		common++
	}
	copy(e.order[common:], order[common:])
	e.resync(common)
}

// at returns the index occupying position k under the pending move.
func (e *MoveEval) at(k int) int {
	switch e.kind {
	case moveSwap:
		if k == e.mvA {
			return e.order[e.mvB]
		}
		if k == e.mvB {
			return e.order[e.mvA]
		}
	case moveInsert:
		from, to := e.mvA, e.mvB
		if from < to {
			if k >= from && k < to {
				return e.order[k+1]
			}
			if k == to {
				return e.order[from]
			}
		} else if to < from {
			if k == to {
				return e.order[from]
			}
			if k > to && k <= from {
				return e.order[k-1]
			}
		}
	}
	return e.order[k]
}

// seek repositions the internal walker to the p-step prefix of the
// current order via exact pops/pushes.
func (e *MoveEval) seek(p int) {
	for e.w.Len() > p {
		e.w.Pop()
	}
	for e.w.Len() < p {
		e.w.Push(e.order[e.w.Len()])
	}
}

// score replays positions [lo,hi) under the pending move and continues
// the objective chain with the cached suffix terms. The final window
// position hi needs no state update — its objective term is just
// R_{hi-1}·C_hi — so it comes from ObjectiveIfPushed instead of a push
// and pop.
func (e *MoveEval) score(lo, hi int) float64 {
	e.seek(lo)
	for k := lo; k < hi; k++ {
		e.w.Push(e.at(k))
	}
	obj := e.w.ObjectiveIfPushed(e.at(hi))
	for k := lo; k < hi; k++ {
		e.w.Pop()
	}
	for k := hi + 1; k < len(e.order); k++ {
		obj += e.term[k]
	}
	return obj
}

// resync replays the current order from position lo, refreshing the
// per-step caches.
func (e *MoveEval) resync(lo int) {
	e.seek(lo)
	for k := lo; k < len(e.order); k++ {
		e.w.Push(e.order[k])
		st := &e.w.steps[k]
		e.term[k] = st.term()
		e.cost[k] = st.cost
	}
	for k := lo; k < len(e.order); k++ {
		e.prefObj[k+1] = e.prefObj[k] + e.term[k]
	}
}
