// Package evolve implements the paper's Incremental Database Design
// vision (§1.1, Figure 1) as a driver: a warehouse whose workload keeps
// changing is re-tuned in rounds. Each round the advisor proposes a
// design for the new workload, the driver diffs it against what is
// already deployed, drops obsolete indexes, and schedules the *delta*
// deployment with the ordering machinery — indexes that survived earlier
// rounds count as already built, so their plans and build discounts
// apply from the start.
package evolve

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/dbsim"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/local"
	"github.com/evolving-olap/idd/internal/sql"
)

// Round is one workload era: the schema (which may itself evolve) and
// the queries that dominate it.
type Round struct {
	Name    string
	Schema  *sql.Schema
	Queries []*sql.Query
}

// Options tunes the driver.
type Options struct {
	// Advisor parameters for each round's design.
	Advisor advisor.Options
	// OrderSteps bounds the VNS refinement per round (0 = 20000).
	OrderSteps int64
	// Rng drives VNS (nil = seeded with 1).
	Rng *rand.Rand
}

// Step reports one round's actions.
type Step struct {
	Round string
	// Deployed lists the new indexes in deployment order.
	Deployed []dbsim.IndexDef
	// Dropped lists indexes removed because the new design no longer
	// wants them.
	Dropped []dbsim.IndexDef
	// Delta is the ordering instance for the round (indexes parallel to
	// Deployed); nil when nothing new was needed.
	Delta *model.Instance
	// Objective is the ordering objective achieved on Delta.
	Objective float64
	// RuntimeBefore/RuntimeAfter are the workload runtimes at the start
	// and end of the round (current workload, current indexes).
	RuntimeBefore, RuntimeAfter float64
}

// Run executes the rounds and returns one Step per round.
func Run(rounds []Round, opt Options) ([]Step, error) {
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	if opt.OrderSteps == 0 {
		opt.OrderSteps = 20000
	}
	deployed := map[string]dbsim.IndexDef{} // by Name()
	var steps []Step

	for _, r := range rounds {
		if err := sql.ValidateWorkload(r.Schema, r.Queries); err != nil {
			return steps, fmt.Errorf("evolve: round %s: %w", r.Name, err)
		}
		sim := dbsim.New(r.Schema)
		cands := advisor.Candidates(r.Schema, r.Queries, opt.Advisor)
		design := advisor.Select(sim, r.Queries, cands, opt.Advisor)

		// Survivors must still be valid for the (possibly evolved)
		// schema; an index on a dropped table or column dies with it.
		// Iterate in sorted name order so the step output is
		// deterministic (map range order varies run-to-run).
		for _, name := range sortedNames(deployed) {
			if deployed[name].Validate(r.Schema) != nil {
				delete(deployed, name)
			}
		}

		// Diff the design against the deployed set.
		want := map[string]dbsim.IndexDef{}
		full := make([]dbsim.IndexDef, 0, len(design)+len(deployed))
		for _, d := range design {
			want[d.Name()] = d
			full = append(full, d)
		}
		var dropped []dbsim.IndexDef
		for _, name := range sortedNames(deployed) {
			if _, ok := want[name]; !ok {
				dropped = append(dropped, deployed[name])
				delete(deployed, name)
			}
		}

		step := Step{Round: r.Name, Dropped: dropped}

		// Extract the matrix over the full design, then project onto the
		// not-yet-deployed indexes (survivors count as already built).
		inst, defs, err := advisor.Extract(r.Name, sim, r.Queries, full, opt.Advisor)
		if err != nil {
			// Nothing in the design helps this workload; runtimes only.
			step.RuntimeBefore = workloadRuntime(sim, r.Queries, deployedDefs(deployed))
			step.RuntimeAfter = step.RuntimeBefore
			steps = append(steps, step)
			continue
		}
		isNew := make([]bool, len(defs))
		for i, d := range defs {
			_, have := deployed[d.Name()]
			isNew[i] = !have
		}
		delta, kept, err := ProjectDelta(inst, isNew)
		if err != nil {
			return steps, fmt.Errorf("evolve: round %s: %w", r.Name, err)
		}
		newDefs := make([]dbsim.IndexDef, len(kept))
		for i, orig := range kept {
			newDefs[i] = defs[orig]
		}
		step.RuntimeBefore = delta.BaseRuntime()
		if delta.N() == 0 {
			step.RuntimeAfter = step.RuntimeBefore
			steps = append(steps, step)
			continue
		}

		c := model.MustCompile(delta)
		cs := sched.PrecedenceSet(delta)
		res := local.VNS(c, cs, local.Options{
			Initial:  greedy.Solve(c, cs),
			MaxSteps: opt.OrderSteps,
			Rng:      opt.Rng,
		})
		step.Delta = delta
		step.Objective = res.Objective
		for _, ix := range res.Order {
			step.Deployed = append(step.Deployed, newDefs[ix])
			deployed[newDefs[ix].Name()] = newDefs[ix]
		}
		_, _, step.RuntimeAfter = c.Evaluate(res.Order)
		steps = append(steps, step)
	}
	return steps, nil
}

func sortedNames(m map[string]dbsim.IndexDef) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func deployedDefs(m map[string]dbsim.IndexDef) []dbsim.IndexDef {
	out := make([]dbsim.IndexDef, 0, len(m))
	for _, name := range sortedNames(m) {
		out = append(out, m[name])
	}
	return out
}

// workloadRuntime prices the workload given a fixed set of real indexes.
func workloadRuntime(sim *dbsim.Sim, queries []*sql.Query, have []dbsim.IndexDef) float64 {
	avail := make([]bool, len(have))
	for i := range avail {
		avail[i] = true
	}
	var sum float64
	for _, q := range queries {
		w := q.Weight
		if w == 0 {
			w = 1
		}
		sum += sim.Prepare(q, have).BestPlan(avail).Cost * w
	}
	return sum
}

// ProjectDelta turns a full-design ordering instance into the
// delta-deployment instance: indexes with isNew[i] == false are treated
// as already built from time zero — their plans lower the baseline
// runtimes, their helper discounts fold into create costs — and only new
// indexes remain as decisions. It returns the projected instance and
// kept, where kept[j] is the position in full of the delta's index j.
// The same construction underlies both the batch driver and the service
// session path, so an inconsistent projection is reported as an error
// rather than a panic.
func ProjectDelta(full *model.Instance, isNew []bool) (*model.Instance, []int, error) {
	if len(isNew) != full.N() {
		return nil, nil, fmt.Errorf("evolve: isNew has %d entries for %d indexes", len(isNew), full.N())
	}
	remap := make([]int, full.N())
	out := &model.Instance{Name: full.Name + "-delta"}
	var kept []int
	for i := range remap {
		remap[i] = -1
	}
	for i := 0; i < full.N(); i++ {
		if isNew[i] {
			remap[i] = len(out.Indexes)
			out.Indexes = append(out.Indexes, full.Indexes[i])
			kept = append(kept, i)
		}
	}
	// Baseline runtime per query: best plan among already-deployed-only
	// plans.
	base := make([]float64, len(full.Queries))
	for q, qu := range full.Queries {
		base[q] = qu.Runtime
	}
	for _, p := range full.Plans {
		allOld := true
		for _, ix := range p.Indexes {
			if isNew[ix] {
				allOld = false
				break
			}
		}
		if allOld {
			if r := full.Queries[p.Query].Runtime - p.Speedup; r < base[p.Query] {
				base[p.Query] = r
			}
		}
	}
	for q, qu := range full.Queries {
		out.Queries = append(out.Queries, model.Query{Name: qu.Name, Runtime: base[q], Weight: qu.Weight})
	}
	for _, p := range full.Plans {
		var needed []int
		for _, ix := range p.Indexes {
			if isNew[ix] {
				needed = append(needed, remap[ix])
			}
		}
		if len(needed) == 0 {
			continue
		}
		gain := base[p.Query] - (full.Queries[p.Query].Runtime - p.Speedup)
		if gain <= 1e-9 {
			continue
		}
		out.Plans = append(out.Plans, model.Plan{Query: p.Query, Indexes: needed, Speedup: gain})
	}
	// Deployed helpers discount from time zero; new-new interactions
	// stay dynamic (clamped below the possibly-reduced create cost).
	for _, b := range full.BuildInteractions {
		if !isNew[b.Target] || isNew[b.Helper] {
			continue
		}
		cc := &out.Indexes[remap[b.Target]].CreateCost
		if reduced := full.Indexes[b.Target].CreateCost - b.Speedup; reduced < *cc {
			*cc = reduced
		}
	}
	for _, b := range full.BuildInteractions {
		if !isNew[b.Target] || !isNew[b.Helper] {
			continue
		}
		cost := out.Indexes[remap[b.Target]].CreateCost
		spd := b.Speedup
		if spd >= cost {
			spd = 0.9 * cost
		}
		if spd <= 0 {
			continue
		}
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: remap[b.Target], Helper: remap[b.Helper], Speedup: spd,
		})
	}
	for _, pr := range full.Precedences {
		if isNew[pr.Before] && isNew[pr.After] {
			out.Precedences = append(out.Precedences, model.Precedence{
				Before: remap[pr.Before], After: remap[pr.After],
			})
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("evolve: projected delta invalid: %w", err)
	}
	return out, kept, nil
}

// RepairOrder adapts a previous deployment order (index names, earliest
// first) to a drifted instance: names that no longer exist are dropped,
// survivors keep their relative order except where the instance's
// precedences force a stable reorder (constraint.Set.Repair), and
// indexes new to the instance are greedy-inserted one at a time at the
// objective-minimising feasible position. The result is a feasible
// warm-start order for in; it fails only when in itself is invalid.
func RepairOrder(in *model.Instance, prior []string) ([]string, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("evolve: repair: %w", err)
	}
	n := in.N()
	if n == 0 {
		return nil, nil
	}
	pos := make(map[string]int, n)
	for i, ix := range in.Indexes {
		pos[ix.Name] = i
	}
	inPrior := make([]bool, n)
	order := make([]int, 0, n)
	for _, name := range prior {
		if i, ok := pos[name]; ok && !inPrior[i] {
			inPrior[i] = true
			order = append(order, i)
		}
	}
	var added []int
	for i := 0; i < n; i++ {
		if !inPrior[i] {
			added = append(added, i)
		}
	}
	c, err := model.Compile(in)
	if err != nil {
		return nil, fmt.Errorf("evolve: repair: %w", err)
	}
	cs := sched.PrecedenceSet(in)
	// Complete the permutation first (new indexes go to the tail), then
	// reposition each new index where it helps most.
	order = cs.Repair(append(order, added...))
	for _, ix := range added {
		order = bestReinsert(c, cs, order, ix)
	}
	names := make([]string, n)
	for k, ix := range order {
		names[k] = in.Indexes[ix].Name
	}
	return names, nil
}

// bestReinsert moves item ix to the feasible position in order that
// minimises the deployment objective; order must already contain ix.
func bestReinsert(c *model.Compiled, cs *constraint.Set, order []int, ix int) []int {
	base := make([]int, 0, len(order)-1)
	for _, it := range order {
		if it != ix {
			base = append(base, it)
		}
	}
	best := append([]int(nil), order...)
	bestObj := c.Objective(order)
	cand := make([]int, len(order))
	for p := 0; p <= len(base); p++ {
		copy(cand[:p], base[:p])
		cand[p] = ix
		copy(cand[p+1:], base[p:])
		if !cs.Compatible(cand) {
			continue
		}
		if obj := c.Objective(cand); obj < bestObj {
			bestObj = obj
			copy(best, cand)
		}
	}
	return best
}
