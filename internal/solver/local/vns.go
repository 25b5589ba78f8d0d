package local

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// VNS's fixed parameters: relaxations per adaptation group (§7.3 uses
// 20), and the starting CP failure limit, small because adaptation grows
// it.
const (
	vnsGroupSize = 20
	vnsFailLimit = 100
)

// VNS runs the Variable Neighborhood Search of §7.3: LNS whose relaxation
// size and failure limit adapt to the CP solver's behaviour. Relaxations
// are grouped (vnsGroupSize per group); when more than 75% of a group's
// relaxations end with an exhaustion proof, the search is stuck in a local
// minimum and the relaxation size grows by 1% of the indexes; otherwise
// the neighborhood needs more exploration and the failure limit grows by
// 20%. The paper finds this variant the most scalable and stable. Like
// LNS, a run solves every relaxation on one cp.Searcher.
func VNS(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	if opt.Rng == nil {
		panic("local: VNS requires Options.Rng")
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	b := newBudget(&opt)
	cur := append([]int(nil), opt.Initial...)
	curObj := c.Objective(cur)
	tr := &tracker{b: b, onImprove: opt.OnImprove}
	tr.record(cur, curObj)

	failLimit := int64(vnsFailLimit)
	size := max(2, c.N/50) // start with a small neighborhood (~2%)
	grow := max(1, c.N/100)

	r := newRelaxer(c, cs)
	var accepted int64
	proofs, tried := 0, 0
	exact := true // curObj is bit for bit what Compiled.Objective gives cur
	for !b.exhausted() {
		var adopted bool
		if cur, curObj, adopted = tr.adopt(&opt, cur, curObj); adopted {
			exact = false // another backend's value: the search replays cur
		}
		improved, impObj, proof, nodes := r.relaxAndSolve(cur, curObj, exact, size, failLimit, b, opt)
		b.spend(nodes)
		tried++
		if proof {
			proofs++
		}
		if improved != nil {
			cur = improved
			curObj = impObj // the CP engine's exact walker objective; no re-replay
			exact = true
			accepted++
			if curObj < tr.best-1e-12 {
				tr.record(cur, curObj)
			}
		}
		if tried >= vnsGroupSize {
			if float64(proofs) > 0.75*float64(tried) {
				// Mostly proofs: the neighborhood is too small to escape
				// the local minimum — widen it.
				if size < c.N {
					size += grow
					if size > c.N {
						size = c.N
					}
				}
			} else {
				// Mostly failure-limit hits: same size, search deeper.
				failLimit += failLimit / 5
			}
			proofs, tried = 0, 0
		}
	}
	return Result{Order: cur, Objective: curObj, Traj: tr.traj, Steps: b.steps,
		Accepted: accepted, Adopted: tr.adopted}
}
