package prune

// The tail analysis as it was before the enumerator in tails.go stopped
// at its first disagreement and was shared by all three callers, and the
// disjoint analysis as it was before newAnalyzer built the
// query-competition closure once. These copies differ from the originals
// only in their names (and permute no longer sorts a copy it throws
// away); the differential tests and FuzzTailsReference require the
// production code to match them bit for bit.

import (
	"math"
	"sort"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// analyzeReference runs the selected analyses to a fixed point, starting from the
// instance's declared precedences, and returns the augmented constraint
// set plus a report. The returned set always contains the instance's own
// precedence edges.
func analyzeReference(c *model.Compiled, opt Options) (*constraint.Set, Report) {
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

	a := newAnalyzerReference(c, cs)
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
			a.disjointReference(&rep)
		}
		if props&Tails != 0 {
			a.tailsReference(&rep, opt)
		}
		if cs.Len() == before {
			break // fixed point
		}
	}
	rep.Edges = cs.Len()
	return cs, rep
}

// newAnalyzerReference builds the shared per-instance tables; interacts
// holds only plan-sharing and build interactions, and disjointReference
// adds the query-competition closure on every call.
func newAnalyzerReference(c *model.Compiled, cs *constraint.Set) *analyzer {
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
	for p := range c.PlanIdx {
		idx := c.PlanIdx[p]
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				a.interacts[idx[x]][idx[y]] = true
				a.interacts[idx[y]][idx[x]] = true
			}
		}
	}
	// Benefit bounds per query.
	for q := range c.PlansOfQuery {
		plans := c.PlansOfQuery[q]
		// bestWithout[i] = best plan speedup of q among plans not
		// containing i; bestWith[i] = best among plans containing i.
		for _, i := range indexesOfQueryReference(c, q) {
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

func indexesOfQueryReference(c *model.Compiled, q int) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range c.PlansOfQuery[q] {
		for _, i := range c.PlanIdx[p] {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// disjointReference orders interaction-free indexes by density (§5.4,
// Appendix D.5), rebuilding the query-competition closure first.
func (a *analyzer) disjointReference(rep *Report) {
	c := a.c
	n := c.N
	const eps = 1e-12

	// Query-competition closure: indexes serving the same query interact
	// (their benefits compete even without sharing a plan).
	inter := make([][]bool, n)
	for i := range inter {
		inter[i] = append([]bool(nil), a.interacts[i]...)
	}
	for q := range c.PlansOfQuery {
		idx := indexesOfQueryReference(c, q)
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				inter[idx[x]][idx[y]] = true
				inter[idx[y]][idx[x]] = true
			}
		}
	}

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || a.cs.Before(i, j) || a.cs.Before(j, i) {
				continue
			}
			if inter[i][j] {
				continue
			}
			// Worst-case density of i must beat best-case density of j.
			denLowI := a.minBenefit[i] / a.maxCost[i]
			denHighJ := a.maxBenefit[j] / a.minCost[j]
			if denLowI <= denHighJ+eps {
				continue
			}
			if !a.backwardDisjointReference(i, j, inter) {
				continue
			}
			if a.add(i, j) {
				rep.DisjointPairs = append(rep.DisjointPairs, [2]int{i, j})
			}
		}
	}
}

// backwardDisjointReference reports whether every index interacting with
// i or j is constrained to come after i or before j.
func (a *analyzer) backwardDisjointReference(i, j int, inter [][]bool) bool {
	for x := 0; x < a.c.N; x++ {
		if x == i || x == j {
			continue
		}
		if !inter[i][x] && !inter[j][x] {
			continue
		}
		if a.cs.Before(i, x) || a.cs.Before(x, j) {
			continue
		}
		return false
	}
	return true
}

// tailsReference runs the tail-index analysis of §5.5 / Appendix D.6: enumerate
// every feasible ordered tail of length L, compute each pattern's tail
// objective (the area its L steps contribute, which depends only on the
// preceding *set*), keep the champion(s) of every tail-set group, and
// extract rules that hold in all champions. The rule extracted here is
// suffix agreement: if every champion ends with the same index x, then x
// is last in some optimal solution and everything else precedes it; the
// check repeats inward while the agreed suffix grows. The fixed-point
// driver (§5.6) then re-runs the analysis with the new constraints,
// peeling further indexes.
func (a *analyzer) tailsReference(rep *Report, opt Options) {
	c := a.c
	n := c.N
	length := opt.TailLength
	if length == 0 {
		length = 3
	}
	if length > n {
		length = n
	}
	maxPatterns := opt.MaxTailPatterns
	if maxPatterns == 0 {
		maxPatterns = 50000
	}

	// Candidates: indexes whose latest feasible position reaches into the
	// tail window.
	var cands []int
	for i := 0; i < n; i++ {
		if a.cs.MaxPos(i) >= n-length {
			cands = append(cands, i)
		}
	}
	if len(cands) < length {
		return // over-constrained; nothing to analyze
	}
	// Cost guard: #sets * L! patterns.
	if patterns := binomial(len(cands), length) * factorial(length); patterns <= 0 || patterns > maxPatterns {
		return
	}

	type champion struct {
		perm []int
		obj  float64
	}
	// For every candidate tail set, collect its champion permutations.
	var champs []champion
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	forFeasibleTailSets(a.cs, w, cands, length, inSet, func(set []int, objBase float64) {
		bestObj := math.Inf(1)
		var bestPerms [][]int
		permuteFeasible(set, a.cs, func(perm []int) {
			for _, m := range perm {
				w.Push(m)
			}
			tailObj := w.Objective() - objBase
			for range perm {
				w.Pop()
			}
			const tol = 1e-9
			switch {
			case tailObj < bestObj-tol:
				bestObj = tailObj
				bestPerms = [][]int{append([]int(nil), perm...)}
			case tailObj <= bestObj+tol:
				bestPerms = append(bestPerms, append([]int(nil), perm...))
			}
		})
		for _, p := range bestPerms {
			champs = append(champs, champion{perm: p, obj: bestObj})
		}
	})
	w.Reset()
	if len(champs) == 0 {
		return
	}

	// Suffix agreement: walk from the last tail position inward while all
	// champions agree on the index at that position. inSuffix reuses the
	// dense scratch (the per-set clears above left it all-false).
	agreed := []int{}
	inSuffix := inSet
	for pos := length - 1; pos >= 0; pos-- {
		x := champs[0].perm[pos]
		for _, ch := range champs[1:] {
			if ch.perm[pos] != x {
				return // disagreement ends the suffix
			}
		}
		// x occupies absolute position n-length+pos in some optimal
		// solution: everything not in the agreed suffix precedes it.
		inSuffix[x] = true
		for y := 0; y < n; y++ {
			if !inSuffix[y] {
				a.add(y, x)
			}
		}
		agreed = append(agreed, x)
		if !containsInt(rep.TailFixed, x) {
			rep.TailFixed = append([]int{x}, rep.TailFixed...)
		}
	}
}

// newTailBoundReference enumerates the tail tables for lengths 1..TailLength
// (default 3, capped at 4). cs may be nil (no constraints). Instances
// with 2^16 or more indexes (far beyond any proof search) return nil,
// which every method treats as "bound disabled".
func newTailBoundReference(c *model.Compiled, cs *constraint.Set, opt Options) *TailBound {
	n := c.N
	if n >= 1<<16 {
		return nil
	}
	if cs == nil {
		cs = constraint.NewSet(n)
	}
	length := opt.TailLength
	if length == 0 {
		length = 3
	}
	if length > maxTailBoundLen {
		length = maxTailBoundLen
	}
	if length > n {
		length = n
	}
	maxPatterns := opt.MaxTailPatterns
	if maxPatterns == 0 {
		maxPatterns = 50000
	}

	tb := &TailBound{n: n, maxLen: length, tables: make([]map[uint64]float64, length)}
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	for m := 1; m <= length; m++ {
		var cands []int
		for i := 0; i < n; i++ {
			if cs.MaxPos(i) >= n-m {
				cands = append(cands, i)
			}
		}
		if len(cands) < m {
			continue // over-constrained; search nodes at this depth are dead anyway
		}
		if patterns := binomial(len(cands), m) * factorial(m); patterns <= 0 || patterns > maxPatterns {
			continue
		}
		table := make(map[uint64]float64)
		forFeasibleTailSets(cs, w, cands, m, inSet, func(set []int, objBase float64) {
			best := math.Inf(1)
			permuteFeasible(set, cs, func(perm []int) {
				for _, i := range perm {
					w.Push(i)
				}
				if t := w.Objective() - objBase; t < best {
					best = t
				}
				for range perm {
					w.Pop()
				}
			})
			if !math.IsInf(best, 1) {
				// Deflate by a relative safety margin before storing: the
				// delta was computed against this enumeration's objective
				// base, but the search subtracts it from a different
				// prefix's base, and the ulp-level rounding difference
				// between the two (~1e-16 relative) could otherwise
				// outweigh the engine's 1e-12 improvement epsilon. A 1e-9
				// relative deflation guarantees the prune is conservative
				// against rounding — pruned subtrees provably contain no
				// improving solution — at no practical cost in power.
				table[tailKey(set)] = best - 1e-9*(math.Abs(best)+1)
			}
		})
		tb.tables[m-1] = table
	}
	w.Reset()
	return tb
}

// tailPatternsReference enumerates the feasible ordered tails of the given length
// under cs (nil = unconstrained), grouped by tail set, each group sorted
// by tail objective with champions marked — the data behind Figure 9.
// Returns nil when the candidate count would exceed maxPatterns
// (0 = 50000).
func tailPatternsReference(c *model.Compiled, cs *constraint.Set, length, maxPatterns int) []TailGroup {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	if length <= 0 {
		length = 3
	}
	if length > c.N {
		length = c.N
	}
	if maxPatterns == 0 {
		maxPatterns = 50000
	}
	n := c.N
	var cands []int
	for i := 0; i < n; i++ {
		if cs.MaxPos(i) >= n-length {
			cands = append(cands, i)
		}
	}
	if len(cands) < length {
		return nil
	}
	if patterns := binomial(len(cands), length) * factorial(length); patterns <= 0 || patterns > maxPatterns {
		return nil
	}

	var groups []TailGroup
	w := model.NewWalker(c)
	inSet := make([]bool, n)
	forFeasibleTailSets(cs, w, cands, length, inSet, func(set []int, objBase float64) {
		g := TailGroup{Set: append([]int(nil), set...)}
		permuteFeasible(set, cs, func(perm []int) {
			for _, m := range perm {
				w.Push(m)
			}
			g.Patterns = append(g.Patterns, TailPattern{
				Perm:      append([]int(nil), perm...),
				Objective: w.Objective() - objBase,
			})
			for range perm {
				w.Pop()
			}
		})
		if len(g.Patterns) == 0 {
			return
		}
		sort.SliceStable(g.Patterns, func(a, b int) bool {
			return g.Patterns[a].Objective < g.Patterns[b].Objective
		})
		best := g.Patterns[0].Objective
		for i := range g.Patterns {
			g.Patterns[i].Champion = g.Patterns[i].Objective <= best+1e-9
		}
		groups = append(groups, g)
	})
	w.Reset()
	return groups
}

// forFeasibleTailSets enumerates every length-k subset of cands that can
// form a schedule tail under cs (every cs-successor of a member must
// itself be a member), positions w at the complement prefix (order
// irrelevant for the tail state), and calls fn with the set and the
// prefix objective. inSet is a caller-provided dense membership scratch
// shared across the whole enumeration — it reflects the current set
// while fn runs and is cleared in O(k) per set, so the per-set cost is
// walker pushes, not allocations.
func forFeasibleTailSets(cs *constraint.Set, w *model.Walker, cands []int, k int,
	inSet []bool, fn func(set []int, objBase float64)) {

	n := len(inSet)
	forSets(cands, k, func(set []int) {
		for _, m := range set {
			inSet[m] = true
		}
		defer func() {
			for _, m := range set {
				inSet[m] = false
			}
		}()
		for _, m := range set {
			ok := true
			cs.Successors(m).ForEach(func(s int) bool {
				if !inSet[s] {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return
			}
		}
		w.Reset()
		for i := 0; i < n; i++ {
			if !inSet[i] {
				w.Push(i)
			}
		}
		fn(set, w.Objective())
	})
}

// permuteFeasible calls fn with every permutation of set whose relative
// order is compatible with cs (fn must not retain the slice).
func permuteFeasible(set []int, cs *constraint.Set, fn func(perm []int)) {
	permute(set, func(perm []int) {
		for x := 0; x < len(perm); x++ {
			for y := x + 1; y < len(perm); y++ {
				if cs.Before(perm[y], perm[x]) {
					return
				}
			}
		}
		fn(perm)
	})
}

// forSets enumerates all k-subsets of cands (ascending order).
func forSets(cands []int, k int, f func(set []int)) {
	set := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			f(set)
			return
		}
		for i := start; i <= len(cands)-(k-depth); i++ {
			set[depth] = cands[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// permute calls f with every permutation of set (Heap's algorithm on a
// copy; f must not retain the slice).
func permute(set []int, f func(perm []int)) {
	perm := append([]int(nil), set...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(len(perm))
}
