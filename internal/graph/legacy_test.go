package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/graph"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/dp"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// legacyMinCut is MinCut as it was when each phase kept its state in
// maps, verbatim: the slice version must return the same weight bits and
// the same sides.
func legacyMinCut(w [][]float64) (float64, []bool) {
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

	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) ordering.
		inA := make(map[int]bool, len(active))
		weights := make(map[int]float64, len(active))
		order := make([]int, 0, len(active))
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

// sameCut runs both versions on w and returns MinCut's sides, failing t
// unless the weight bits and the sides agree.
func sameCut(t *testing.T, name string, w [][]float64) []bool {
	t.Helper()
	got, side := graph.MinCut(w)
	want, wantSide := legacyMinCut(w)
	if math.Float64bits(got) != math.Float64bits(want) || !slices.Equal(side, wantSide) {
		t.Fatalf("%s: MinCut %v %v, legacy %v %v", name, got, side, want, wantSide)
	}
	return side
}

// TestMatchesLegacyOnRandomGraphs compares the two on random dense and
// sparse graphs with fractional weights, ties (small integer weights)
// and isolated vertices.
func TestMatchesLegacyOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 400; k++ {
		n := 2 + rng.Intn(30)
		density := rng.Float64()
		ties := k%2 == 0
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					wt := rng.ExpFloat64()
					if ties {
						wt = float64(1 + rng.Intn(3))
					}
					w[i][j], w[j][i] = wt, wt
				}
			}
		}
		sameCut(t, "random graph", w)
	}
}

// TestMatchesLegacyOnDPSplits compares the two on every subgraph the DP
// baseline cuts while ordering the conformance corpora. Its recursion
// depends on the sides alone, so equal cuts leave every dp order as it
// was.
func TestMatchesLegacyOnDPSplits(t *testing.T) {
	instances := append(solvertest.Instances(), solvertest.CorpusInstances()...)
	instances = append(instances, solvertest.TightCorpusInstances()...)
	for _, in := range instances {
		c := model.MustCompile(in)
		w := dp.InteractionWeights(c)
		set := make([]int, c.N)
		for i := range set {
			set[i] = i
		}
		checkSplits(t, in.Name, w, set)
	}
}

// checkSplits follows dp's split recursion over set.
func checkSplits(t *testing.T, name string, w [][]float64, set []int) {
	if len(set) < 2 {
		return
	}
	sub := make([][]float64, len(set))
	for a := range set {
		sub[a] = make([]float64, len(set))
		for b := range set {
			sub[a][b] = w[set[a]][set[b]]
		}
	}
	side := sameCut(t, name, sub)
	var s1, s2 []int
	for k, v := range set {
		if side[k] {
			s1 = append(s1, v)
		} else {
			s2 = append(s2, v)
		}
	}
	checkSplits(t, name, w, s1)
	checkSplits(t, name, w, s2)
}
