package model

import (
	"sort"
	"sync"
)

// Helper is one build interaction seen from the target's side.
type Helper struct {
	Helper  int
	Speedup float64
}

// Compiled is a preprocessed instance optimized for repeated objective
// evaluation. All solvers operate on Compiled.
//
// Every ragged relation (plan indexes, plans per query, plans per index,
// helpers, precedence adjacency) is stored CSR-style: one flat backing
// array per relation with the exported [][]-typed fields holding
// zero-copy row views into it. Consumers keep the familiar
// c.PlanIdx[p] / c.PlansWithIndex[i] indexing while iteration over many
// rows walks one contiguous allocation.
type Compiled struct {
	Inst *Instance

	N    int     // number of indexes
	Base float64 // R_0: weighted total runtime before deployment

	CreateCost []float64 // per index

	// QryRuntime is the precomputed weighted base runtime of each query
	// (Queries[q].Runtime * weight): the per-query share of Base.
	QryRuntime []float64

	// Plans, decomposed into parallel slices for cache friendliness.
	PlanQuery []int     // plan -> query
	PlanIdx   [][]int   // plan -> sorted index positions
	PlanSpd   []float64 // plan -> weighted speedup

	PlansOfQuery   [][]int // query -> plan ids
	PlansWithIndex [][]int // index -> plan ids containing it

	Helpers  [][]Helper // target index -> build interactions
	HelpsFor [][]int    // helper index -> list of targets it discounts

	// Precedence adjacency (deduplicated).
	Succ [][]int // before -> afters
	Pred [][]int // after -> befores

	// planRefs[i] packs, for every plan containing index i, the plan id
	// with its query and weighted speedup into one contiguous record, so
	// SetEval's child loop reads sequential memory instead of chasing
	// three parallel arrays; nil when N > 64, where SetEval does not run.
	planRefs [][]planRef

	// planMask[p*maskWords:(p+1)*maskWords] is plan p's index set as a
	// bitset laid out like the Walker's built set, for any N: masking it
	// against the built words finds the plan's unbuilt indexes.
	planMask  []uint64
	maskWords int

	// planSets holds every plan as a subset mask of its indexes with its
	// query and weighted speedup, for SetEval; nil when N > 64.
	planSets []planSet

	// walkers recycles Walker state across Objective/Evaluate/Curve calls
	// so full replays are allocation-free in steady state.
	walkers sync.Pool
}

// planRef is the Push-hot view of one (index, plan) incidence.
type planRef struct {
	plan  int32
	query int32
	spd   float64
}

// planMaskOf returns plan p's index bitset.
func (c *Compiled) planMaskOf(p int32) []uint64 {
	return c.planMask[int(p)*c.maskWords:][:c.maskWords]
}

// planSet is one plan seen as a set: a plan is available exactly when
// mask is a subset of the deployed indexes.
type planSet struct {
	mask  uint64
	query int32
	spd   float64
}

// Compile validates and preprocesses an instance.
func Compile(in *Instance) (*Compiled, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.N()
	c := &Compiled{
		Inst:       in,
		N:          n,
		Base:       in.BaseRuntime(),
		CreateCost: make([]float64, n),
		QryRuntime: make([]float64, len(in.Queries)),
		PlanQuery:  make([]int, len(in.Plans)),
		PlanIdx:    make([][]int, len(in.Plans)),
		PlanSpd:    make([]float64, len(in.Plans)),
	}
	c.walkers.New = func() interface{} { return NewWalker(c) }
	for i := range in.Indexes {
		c.CreateCost[i] = in.Indexes[i].CreateCost
	}
	for q := range in.Queries {
		c.QryRuntime[q] = in.Queries[q].Runtime * in.QueryWeight(q)
	}
	plansOfQuery := make([][]int, len(in.Queries))
	plansWithIndex := make([][]int, n)
	for pi, p := range in.Plans {
		c.PlanQuery[pi] = p.Query
		idx := append([]int(nil), p.Indexes...)
		sort.Ints(idx)
		c.PlanIdx[pi] = idx
		c.PlanSpd[pi] = p.Speedup * in.QueryWeight(p.Query)
		plansOfQuery[p.Query] = append(plansOfQuery[p.Query], pi)
		for _, ix := range idx {
			plansWithIndex[ix] = append(plansWithIndex[ix], pi)
		}
	}
	helpers := make([][]Helper, n)
	helpsFor := make([][]int, n)
	for _, b := range in.BuildInteractions {
		helpers[b.Target] = append(helpers[b.Target], Helper{Helper: b.Helper, Speedup: b.Speedup})
		helpsFor[b.Helper] = append(helpsFor[b.Helper], b.Target)
	}
	succ := make([][]int, n)
	pred := make([][]int, n)
	seen := make(map[[2]int]bool, len(in.Precedences))
	for _, pr := range in.Precedences {
		k := [2]int{pr.Before, pr.After}
		if seen[k] {
			continue
		}
		seen[k] = true
		succ[pr.Before] = append(succ[pr.Before], pr.After)
		pred[pr.After] = append(pred[pr.After], pr.Before)
	}
	// Compact every ragged relation into CSR-backed views.
	c.PlanIdx = compact(c.PlanIdx)
	c.PlansOfQuery = compact(plansOfQuery)
	c.PlansWithIndex = compact(plansWithIndex)
	c.HelpsFor = compact(helpsFor)
	c.Succ = compact(succ)
	c.Pred = compact(pred)
	c.Helpers = compact(helpers)
	c.maskWords = (n + 63) / 64
	c.planMask = make([]uint64, len(c.PlanIdx)*c.maskWords)
	for p, idx := range c.PlanIdx {
		mask := c.planMaskOf(int32(p))
		for _, ix := range idx {
			mask[ix>>6] |= 1 << (uint(ix) & 63)
		}
	}
	if n <= 64 {
		c.planRefs = buildPlanRefs(c)
		c.planSets = make([]planSet, len(c.PlanIdx))
		for p, idx := range c.PlanIdx {
			for _, ix := range idx {
				c.planSets[p].mask |= 1 << uint(ix)
			}
			c.planSets[p].query = int32(c.PlanQuery[p])
			c.planSets[p].spd = c.PlanSpd[p]
		}
	}
	return c, nil
}

// buildPlanRefs packs, per index, the plans containing it with their
// queries and weighted speedups (see Compiled.planRefs).
func buildPlanRefs(c *Compiled) [][]planRef {
	total := 0
	for _, ps := range c.PlansWithIndex {
		total += len(ps)
	}
	refs := make([]planRef, 0, total)
	out := make([][]planRef, c.N)
	for i, ps := range c.PlansWithIndex {
		start := len(refs)
		for _, p := range ps {
			refs = append(refs, planRef{plan: int32(p), query: int32(c.PlanQuery[p]), spd: c.PlanSpd[p]})
		}
		out[i] = refs[start:len(refs):len(refs)]
	}
	return out
}

// compact re-lays a ragged [][]T over a single flat backing array. Row
// views are capacity-clamped so an accidental append cannot clobber the
// next row.
func compact[T any](rows [][]T) [][]T {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]T, 0, total)
	out := make([][]T, len(rows))
	for i, r := range rows {
		start := len(flat)
		flat = append(flat, r...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// MustCompile is Compile that panics on error; for tests and fixtures.
func MustCompile(in *Instance) *Compiled {
	c, err := Compile(in)
	if err != nil {
		panic(err)
	}
	return c
}

// BuildCost returns the cost to create index i given the set of already
// deployed indexes (constraint 5: best single helper discount applies).
func (c *Compiled) BuildCost(i int, built []bool) float64 {
	cost := c.CreateCost[i]
	var best float64
	for _, h := range c.Helpers[i] {
		if built[h.Helper] && h.Speedup > best {
			best = h.Speedup
		}
	}
	return cost - best
}

// MaskBuildCost is BuildCost for the deployed set given as a subset mask
// (bit h set = index h deployed; N ≤ 64).
func (c *Compiled) MaskBuildCost(i int, mask uint64) float64 {
	cost := c.CreateCost[i]
	var best float64
	for _, h := range c.Helpers[i] {
		if mask&(1<<uint(h.Helper)) != 0 && h.Speedup > best {
			best = h.Speedup
		}
	}
	return cost - best
}

// runtimeOf returns the canonical runtime R = Base - sum_q best[q] for
// per-query best speedups best. The fixed summation order makes the value
// depend only on the deployed set, not on the walk that reached it; the
// Walker and SetEval both compute runtimes here, which is what makes
// delta evaluation (MoveEval) and set evaluation bit-identical to a fresh
// replay.
func (c *Compiled) runtimeOf(best []float64) float64 {
	var sum float64
	for _, b := range best {
		sum += b
	}
	return c.Base - sum
}

// getWalker returns a pooled walker at the empty schedule. Callers must
// hand it back via putWalker once (and only if) the walk succeeded; a
// walker abandoned mid-panic is simply dropped.
func (c *Compiled) getWalker() *Walker {
	return c.walkers.Get().(*Walker)
}

func (c *Compiled) putWalker(w *Walker) {
	w.Reset()
	c.walkers.Put(w)
}

// Objective evaluates sum_k R_{k-1}*C_k for a complete order.
// It does not check precedence feasibility; use Instance.ValidOrder first
// if the order comes from an untrusted source.
func (c *Compiled) Objective(order []int) float64 {
	obj, _, _ := c.Evaluate(order)
	return obj
}

// Evaluate returns the objective, the total deployment time sum_k C_k,
// and the final runtime R_n for a complete order.
func (c *Compiled) Evaluate(order []int) (obj, deploy, finalRuntime float64) {
	w := c.getWalker()
	for _, ix := range order {
		w.Push(ix)
	}
	obj, deploy, finalRuntime = w.Objective(), w.DeployTime(), w.Runtime()
	c.putWalker(w)
	return obj, deploy, finalRuntime
}

// CurvePoint is one step of the improvement curve: after Elapsed cost
// units of deployment work, the weighted workload runtime is Runtime.
type CurvePoint struct {
	Elapsed float64 // cumulative deployment time after this step
	Runtime float64 // R_k
	Index   int     // index deployed at this step
	Cost    float64 // C_k actually paid (after build-interaction discount)
}

// Curve returns the per-step improvement curve for an order. The implicit
// starting point is (0, Base).
func (c *Compiled) Curve(order []int) []CurvePoint {
	w := c.getWalker()
	pts := make([]CurvePoint, 0, len(order))
	for _, ix := range order {
		w.Push(ix)
		pts = append(pts, CurvePoint{
			Elapsed: w.DeployTime(),
			Runtime: w.Runtime(),
			Index:   ix,
			Cost:    w.steps[len(w.steps)-1].cost,
		})
	}
	c.putWalker(w)
	return pts
}
