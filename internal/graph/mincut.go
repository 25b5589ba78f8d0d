// Package graph provides the Stoer–Wagner global minimum cut algorithm
// (Stoer & Wagner, JACM 1997), the substrate for the dynamic-programming
// index ordering baseline of Schnaitter et al. that the paper compares
// against in Table 7 (Appendix C, Algorithm 2).
package graph

// MinCut computes a global minimum cut of the undirected weighted graph
// given by the symmetric adjacency matrix w (w[i][j] = edge weight, 0 =
// no edge; the diagonal is ignored). It returns the cut weight and the
// vertex side assignment (true = inside the cut set). The chosen side is
// always a proper, non-empty subset. MinCut panics if the graph has
// fewer than 2 vertices.
//
// Runs in O(V^3), which is ample for index-interaction graphs (V <= a few
// hundred).
func MinCut(w [][]float64) (float64, []bool) {
	n := len(w)
	if n < 2 {
		panic("graph: MinCut needs at least 2 vertices")
	}
	// Work on a copy; vertices are merged in place.
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = append([]float64(nil), w[i]...)
	}
	// groups[v] = original vertices currently merged into v.
	groups := make([][]int, n)
	for v := range groups {
		groups[v] = []int{v}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	bestWeight := -1.0
	var bestGroup []int

	// Per-phase state, indexed by vertex and reused across phases.
	inA := make([]bool, n)
	weights := make([]float64, n)
	order := make([]int, 0, n)
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) ordering.
		for _, v := range active {
			inA[v], weights[v] = false, 0
		}
		order = order[:0]
		for len(order) < len(active) {
			// Pick the most tightly connected remaining vertex.
			sel, selW := -1, -1.0
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += adj[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		s := order[len(order)-2]
		cutOfPhase := weights[t]
		if bestWeight < 0 || cutOfPhase < bestWeight {
			bestWeight = cutOfPhase
			bestGroup = append([]int(nil), groups[t]...)
		}
		// Merge t into s.
		for _, v := range active {
			if v != s && v != t {
				adj[s][v] += adj[t][v]
				adj[v][s] = adj[s][v]
			}
		}
		groups[s] = append(groups[s], groups[t]...)
		for k, v := range active {
			if v == t {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}

	side := make([]bool, n)
	for _, v := range bestGroup {
		side[v] = true
	}
	return bestWeight, side
}
