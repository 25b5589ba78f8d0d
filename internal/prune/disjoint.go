package prune

// disjoint orders interaction-free indexes by density (§5.4, Appendix
// D.5). Two indexes interact when they share a query plan, serve the same
// query through competing plans, or are linked by a build interaction.
// For a pair with no (remaining) interaction the dip argument applies:
// the denser index precedes the sparser one in some optimal solution.
//
// The backward/forward-disjoint generalization fires when every index
// interacting with i or j is already constrained to follow i or precede j
// (backward) — then i and j behave as disjoint within any j→…→i window,
// and a guaranteed density gap (worst-case density of i above best-case
// density of j) forces T_i < T_j.
func (a *analyzer) disjoint(rep *Report) {
	n := a.c.N
	const eps = 1e-12

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || a.cs.Before(i, j) || a.cs.Before(j, i) {
				continue
			}
			if a.interacts[i][j] {
				continue
			}
			// Worst-case density of i must beat best-case density of j.
			denLowI := a.minBenefit[i] / a.maxCost[i]
			denHighJ := a.maxBenefit[j] / a.minCost[j]
			if denLowI <= denHighJ+eps {
				continue
			}
			if !a.backwardDisjoint(i, j) {
				continue
			}
			if a.add(i, j) {
				rep.DisjointPairs = append(rep.DisjointPairs, [2]int{i, j})
			}
		}
	}
}

// backwardDisjoint reports whether every index interacting with i or j is
// constrained to come after i or before j — the condition under which i
// and j behave as disjoint indexes inside any j→X→i subsequence. A pair
// with no interacting third parties at all is trivially disjoint.
func (a *analyzer) backwardDisjoint(i, j int) bool {
	for x := 0; x < a.c.N; x++ {
		if x == i || x == j {
			continue
		}
		if !a.interacts[i][x] && !a.interacts[j][x] {
			continue
		}
		if a.cs.Before(i, x) || a.cs.Before(x, j) {
			continue
		}
		return false
	}
	return true
}
