// Package prune implements the problem-specific properties of §5 that
// shrink the factorial search space: Alliances (§5.1), Colonized indexes
// (§5.2), Dominated indexes (§5.3), Disjoint indexes and clusters (§5.4)
// and Tail-index analysis (§5.5), iterated to a fixed point (§5.6). The
// output is a set of precedence constraints (T_i < T_j facts) that every
// analysis preserves at least one optimal solution of the original
// problem, so exact solvers stay exact.
//
// Where the paper's conditions involve context-dependent quantities
// ("minimum benefit", "maximum cost"), the implementation uses
// conservative bounds, trading detection power for unconditional
// soundness; the drill-down experiment (Table 6) shows each property
// still contributes orders of magnitude.
package prune

import (
	"fmt"
	"strings"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// Property selects which §5 analyses to run (Table 6's drill-down).
type Property uint8

const (
	// Alliances detects index sets that only ever appear together
	// (§5.1) and chains them consecutively.
	Alliances Property = 1 << iota
	// Colonized detects indexes that never help without their colonizer
	// (§5.2) and orders them after it.
	Colonized
	// Dominated detects indexes whose best case is worse than another
	// index's worst case (§5.3) and orders them later.
	Dominated
	// Disjoint orders interaction-free indexes by density (§5.4),
	// including the backward/forward-disjoint generalization.
	Disjoint
	// Tails runs the tail-pattern analysis (§5.5).
	Tails

	// All enables every property.
	All = Alliances | Colonized | Dominated | Disjoint | Tails
)

// String spells the property set the way Table 6 does (+A, +AC, ...).
func (p Property) String() string {
	if p == 0 {
		return "none"
	}
	var b strings.Builder
	for _, e := range [...]struct {
		p Property
		s string
	}{{Alliances, "A"}, {Colonized, "C"}, {Dominated, "M"}, {Disjoint, "D"}, {Tails, "T"}} {
		if p&e.p != 0 {
			b.WriteString(e.s)
		}
	}
	return b.String()
}

// Options tunes the analysis.
type Options struct {
	// Properties selects the analyses (0 = All).
	Properties Property
	// MaxTailPatterns caps tail enumeration (0 = 50000, the paper's k).
	MaxTailPatterns int
	// TailLength is the longest tail analyzed (0 = 3).
	TailLength int
	// MaxRounds caps fixed-point iterations (0 = 2*n+4).
	MaxRounds int
}

// Report summarizes what the analysis found.
type Report struct {
	// Alliances lists detected allied groups (index positions).
	Alliances [][]int
	// ColonizedPairs lists (colonizer, colonized) pairs.
	ColonizedPairs [][2]int
	// DominatedPairs lists (dominator, dominated) pairs.
	DominatedPairs [][2]int
	// DisjointPairs lists density-ordered (first, second) pairs.
	DisjointPairs [][2]int
	// TailFixed lists indexes proved to occupy the final positions, in
	// deployment order (last element = very last index).
	TailFixed []int
	// Rounds is the number of fixed-point iterations performed.
	Rounds int
	// Edges is the number of explicit precedence edges accumulated.
	Edges int
	// TailSets is the number of tail sets whose orders the tail analysis
	// scored, summed over rounds: its work count.
	TailSets int
}

func (r Report) String() string {
	return fmt.Sprintf("alliances=%d colonized=%d dominated=%d disjoint=%d tail-fixed=%d tail-sets=%d rounds=%d edges=%d",
		len(r.Alliances), len(r.ColonizedPairs), len(r.DominatedPairs),
		len(r.DisjointPairs), len(r.TailFixed), r.TailSets, r.Rounds, r.Edges)
}

// Analyze runs the selected analyses to a fixed point, starting from the
// instance's declared precedences, and returns the augmented constraint
// set plus a report. The returned set always contains the instance's own
// precedence edges.
func Analyze(c *model.Compiled, opt Options) (*constraint.Set, Report) {
	props := opt.Properties
	if props == 0 {
		props = All
	}
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 2*c.N + 4
	}

	cs := constraint.NewSet(c.N)
	for _, p := range c.Inst.Precedences {
		cs.MustAdd(p.Before, p.After)
	}
	var rep Report

	a := newAnalyzer(c, cs)
	for round := 0; round < maxRounds; round++ {
		rep.Rounds = round + 1
		before := cs.Len()
		if props&Alliances != 0 {
			a.alliances(&rep)
		}
		if props&Colonized != 0 {
			a.colonized(&rep)
		}
		if props&Dominated != 0 {
			a.dominated(&rep)
		}
		if props&Disjoint != 0 {
			a.disjoint(&rep)
		}
		if props&Tails != 0 {
			a.tails(&rep, opt)
		}
		if cs.Len() == before {
			break // fixed point
		}
	}
	rep.Edges = cs.Len()
	return cs, rep
}

// analyzer carries shared per-instance tables.
type analyzer struct {
	c  *model.Compiled
	cs *constraint.Set
	w  *model.Walker // the tail analysis' walker, kept across rounds

	// helperOf[i] = best discount i gives to any other index's build.
	givesBuildHelp []bool
	// maxBenefit[i] = sum over queries of the best speedup of any plan
	// containing i (the most i's presence could ever be worth).
	maxBenefit []float64
	// minBenefit[i] = guaranteed speedup of building i in the worst
	// context (singleton plans beating every competing plan).
	minBenefit []float64
	// minCost/maxCost: build cost extremes across contexts.
	minCost, maxCost []float64
	// interacts[i] = indexes serving a query with i (sharing a plan or
	// competing for the query's benefit) or linked to i by a build
	// interaction: the interactions the disjoint analysis respects.
	interacts [][]bool
}

func newAnalyzer(c *model.Compiled, cs *constraint.Set) *analyzer {
	n := c.N
	a := &analyzer{
		c: c, cs: cs,
		givesBuildHelp: make([]bool, n),
		maxBenefit:     make([]float64, n),
		minBenefit:     make([]float64, n),
		minCost:        make([]float64, n),
		maxCost:        make([]float64, n),
		interacts:      make([][]bool, n),
	}
	for i := 0; i < n; i++ {
		a.interacts[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for _, t := range c.HelpsFor[i] {
			a.givesBuildHelp[i] = true
			a.interacts[i][t] = true
			a.interacts[t][i] = true
		}
		best := 0.0
		for _, h := range c.Helpers[i] {
			if h.Speedup > best {
				best = h.Speedup
			}
		}
		a.minCost[i] = c.CreateCost[i] - best
		a.maxCost[i] = c.CreateCost[i]
	}
	// Per query: the indexes serving it, in order of first appearance
	// (stamp[i] == q+1 once i is listed for q), all interact pairwise.
	// Indexes sharing a plan serve the same query, so this covers them.
	stamp := make([]int, n)
	idx := make([]int, 0, n)
	for q := range c.PlansOfQuery {
		plans := c.PlansOfQuery[q]
		idx = idx[:0]
		for _, p := range plans {
			for _, i := range c.PlanIdx[p] {
				if stamp[i] != q+1 {
					stamp[i] = q + 1
					idx = append(idx, i)
				}
			}
		}
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				a.interacts[idx[x]][idx[y]] = true
				a.interacts[idx[y]][idx[x]] = true
			}
		}
		// Benefit bounds: bestWithout[i] = best plan speedup of q among
		// plans not containing i; bestWith[i] = best among plans
		// containing i.
		for _, i := range idx {
			var bestWith, bestWithout, singleton float64
			for _, p := range plans {
				spd := c.PlanSpd[p]
				if contains(c.PlanIdx[p], i) {
					if spd > bestWith {
						bestWith = spd
					}
					if len(c.PlanIdx[p]) == 1 && spd > singleton {
						singleton = spd
					}
				} else if spd > bestWithout {
					bestWithout = spd
				}
			}
			a.maxBenefit[i] += bestWith
			if g := singleton - bestWithout; g > 0 {
				a.minBenefit[i] += g
			}
		}
	}
	return a
}

func contains(sorted []int, x int) bool {
	for _, v := range sorted {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}

// add inserts an edge, ignoring already-implied edges and silently
// skipping contradictions (a contradiction means an earlier analysis
// already committed to the opposite order of a tie; dropping the weaker
// fact keeps the constraint set consistent and sound).
func (a *analyzer) add(i, j int) bool {
	if a.cs.Before(i, j) {
		return false
	}
	if err := a.cs.Add(i, j); err != nil {
		return false
	}
	return true
}
