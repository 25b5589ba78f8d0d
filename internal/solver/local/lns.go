package local

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/cp"
)

// LNS's fixed parameters: the fraction of indexes relaxed per iteration
// and the CP failure limit per relaxation.
const (
	lnsRelaxFraction = 0.05
	lnsFailLimit     = 500
)

// LNS runs Large Neighborhood Search (§7.2) with fixed parameters: each
// iteration relaxes a random lnsRelaxFraction of the indexes, freezes the
// rest at their current positions, and asks the CP engine to re-optimize
// the relaxed slots under a failure limit of lnsFailLimit.
// Every relaxation of a run is solved on one cp.Searcher.
func LNS(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	if opt.Rng == nil {
		panic("local: LNS requires Options.Rng")
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	b := newBudget(&opt)
	cur := append([]int(nil), opt.Initial...)
	curObj := c.Objective(cur)
	tr := &tracker{b: b, onImprove: opt.OnImprove}
	tr.record(cur, curObj)

	size := max(2, int(lnsRelaxFraction*float64(c.N)+0.5))

	r := newRelaxer(c, cs)
	var accepted int64
	exact := true // curObj is bit for bit what Compiled.Objective gives cur
	for !b.exhausted() {
		var adopted bool
		if cur, curObj, adopted = tr.adopt(&opt, cur, curObj); adopted {
			exact = false // another backend's value: the search replays cur
		}
		improved, impObj, _, nodes := r.relaxAndSolve(cur, curObj, exact, size, lnsFailLimit, b, opt)
		b.spend(nodes)
		if improved != nil {
			cur = improved
			curObj = impObj // the CP engine's exact walker objective; no re-replay
			exact = true
			accepted++
			if curObj < tr.best-1e-12 {
				tr.record(cur, curObj)
			}
		}
	}
	return Result{Order: cur, Objective: curObj, Traj: tr.traj, Steps: b.steps,
		Accepted: accepted, Adopted: tr.adopted}
}

// relaxer is what one LNS or VNS run reuses across its relaxations:
// the CP search state (built once per run, not once per relaxation) and
// the relaxation buffers.
type relaxer struct {
	cp      *cp.Searcher
	relaxed []bool
	fixed   []int
}

func newRelaxer(c *model.Compiled, cs *constraint.Set) *relaxer {
	return &relaxer{cp: cp.NewSearcher(c, cs), relaxed: make([]bool, c.N), fixed: make([]int, c.N)}
}

// relaxAndSolve performs one LNS iteration: pick `size` random indexes,
// free their positions, and CP-search the neighborhood with cur as the
// incumbent. When exact is set, curObj is cur's objective bit for bit as
// Compiled.Objective computes it, and the search takes it instead of
// replaying cur; an order adopted from another backend is replayed. It
// returns the improved order (nil if none) with its exact objective (the
// CP engine evaluates candidates through the shared Walker, so the value
// is bit-identical to a fresh replay and needs no re-evaluation), whether
// the neighborhood was exhausted (a proof that no better solution exists
// within it), and the CP nodes consumed.
func (r *relaxer) relaxAndSolve(cur []int, curObj float64, exact bool,
	size int, failLimit int64, b *budgetTracker, opt Options) (improved []int, impObj float64, proof bool, nodes int64) {

	n := len(cur)
	if size > n {
		size = n
	}
	relaxed := r.relaxed
	clear(relaxed)
	for picked := 0; picked < size; {
		if p := opt.Rng.Intn(n); !relaxed[p] {
			relaxed[p] = true
			picked++
		}
	}
	for p, ix := range cur {
		if relaxed[p] {
			r.fixed[p] = -1
		} else {
			r.fixed[p] = ix
		}
	}
	opts := cp.Options{
		FailLimit: failLimit,
		NodeLimit: b.remainingSteps(),
		Incumbent: cur,
		Fixed:     r.fixed,
	}
	if exact {
		opts.IncumbentObjective = curObj
	}
	res := r.cp.Solve(opts)
	if res.Solutions > 0 && res.Objective < curObj-1e-12 {
		return res.Order, res.Objective, res.Proved, res.Nodes
	}
	return nil, 0, res.Proved, res.Nodes
}
