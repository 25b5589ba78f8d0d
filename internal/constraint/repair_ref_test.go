package constraint

import (
	"math/rand"
	"slices"
	"testing"
)

// The stable topological repair used to be written several times. The
// two reference passes below are verbatim copies of the retired ones,
// kept so Set.Repair can be checked against them: refScanRepair is the
// closure scan of the portfolio's warm-start admission (and of the
// session-order repair), refTopo the tie-by-item-number Kahn pass that
// fed the alliance chaining.

// refScanRepair emits, at every step, the first item of initial whose
// predecessors are all placed; nil when none is ready.
func refScanRepair(cs *Set, initial []int) []int {
	n := cs.N()
	used := make([]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		picked := -1
		for _, it := range initial {
			if used[it] {
				continue
			}
			ready := true
			cs.Predecessors(it).ForEach(func(p int) bool {
				if !used[p] {
					ready = false
					return false
				}
				return true
			})
			if ready {
				picked = it
				break
			}
		}
		if picked < 0 {
			return nil
		}
		used[picked] = true
		out = append(out, picked)
	}
	return out
}

// refTopo returns one topological order consistent with the relation.
// Ties are broken by item number, making the result deterministic.
func refTopo(s *Set) []int {
	indeg := make([]int, s.n)
	succ := make([][]int, s.n)
	for _, e := range s.edges {
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	// Deterministic Kahn with a simple ordered frontier.
	frontier := make([]int, 0, s.n)
	for i := 0; i < s.n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	out := make([]int, 0, s.n)
	for len(frontier) > 0 {
		// Pop the smallest (frontier kept sorted by construction order;
		// find min for determinism).
		mi := 0
		for k := 1; k < len(frontier); k++ {
			if frontier[k] < frontier[mi] {
				mi = k
			}
		}
		u := frontier[mi]
		frontier = append(frontier[:mi], frontier[mi+1:]...)
		out = append(out, u)
		for _, v := range succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if len(out) != s.n {
		// Cannot happen: Add maintains acyclicity.
		panic("constraint: relation has a cycle")
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// randomSet draws an acyclic relation over n items from tries random
// edge insertions (Add refuses the ones that would close a cycle).
func randomSet(rng *rand.Rand, n, tries int) *Set {
	s := NewSet(n)
	for k := 0; k < tries; k++ {
		_ = s.Add(rng.Intn(n), rng.Intn(n))
	}
	return s
}

// checkRepair asserts that Repair of order equals the closure scan,
// Repair of the identity equals refTopo, the repaired order passes
// CheckOrder and a compatible order comes back unchanged.
func checkRepair(t *testing.T, s *Set, order []int) {
	t.Helper()
	n := s.N()
	got := s.Repair(order)
	if want := refScanRepair(s, order); !slices.Equal(got, want) {
		t.Fatalf("Repair(%v) = %v, scan reference %v (edges %v)", order, got, want, s.Edges())
	}
	if err := CheckOrder(n, s, got); err != nil {
		t.Fatalf("Repair(%v) = %v: %v", order, got, err)
	}
	if s.Compatible(order) && !slices.Equal(got, order) {
		t.Fatalf("Repair changed the compatible order %v to %v", order, got)
	}
	if got, want := s.Repair(identity(n)), refTopo(s); !slices.Equal(got, want) {
		t.Fatalf("Repair(identity) = %v, Topo reference %v (edges %v)", got, want, s.Edges())
	}
}

// FuzzRepairReference runs checkRepair on random acyclic relations of 1
// to 40 items and random orders.
func FuzzRepairReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0))
	f.Add(int64(2), uint8(12), uint8(40))
	f.Add(int64(3), uint8(39), uint8(255))
	f.Add(int64(4), uint8(0), uint8(7))
	f.Add(int64(5), uint8(25), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density uint8) {
		n := 1 + int(nRaw)%40
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng, n, int(density)*n/16)
		checkRepair(t, s, rng.Perm(n))
	})
}

// TestRepairMatchesReferences runs checkRepair over a fixed sweep of
// sizes and densities, so a plain go test covers more than the seed
// corpus.
func TestRepairMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		s := randomSet(rng, n, rng.Intn(4*n))
		checkRepair(t, s, rng.Perm(n))
	}
}
