package constraint

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndClosure(t *testing.T) {
	s := NewSet(4)
	s.MustAdd(0, 1)
	s.MustAdd(1, 2)
	if !s.Before(0, 1) || !s.Before(1, 2) {
		t.Fatal("direct edges missing")
	}
	if !s.Before(0, 2) {
		t.Fatal("transitive edge 0<2 missing")
	}
	if s.Before(2, 0) || s.Before(0, 3) || s.Before(3, 0) {
		t.Fatal("spurious constraints")
	}
	// Implied edge insertion is a no-op.
	n := s.Len()
	if err := s.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Error("implied edge was recorded")
	}
}

func TestCycleRejected(t *testing.T) {
	s := NewSet(3)
	s.MustAdd(0, 1)
	s.MustAdd(1, 2)
	if err := s.Add(2, 0); !errors.Is(err, ErrCycle) {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
	if err := s.Add(1, 1); !errors.Is(err, ErrCycle) {
		t.Fatalf("self edge: expected ErrCycle, got %v", err)
	}
	// State must be unchanged after the failed insertion.
	if s.Before(2, 0) {
		t.Error("failed Add mutated the relation")
	}
}

func TestPositionBounds(t *testing.T) {
	s := NewSet(5)
	s.MustAdd(0, 1)
	s.MustAdd(0, 2)
	s.MustAdd(1, 3)
	// 0 precedes 1,2,3 => MaxPos(0) = 5-1-3 = 1, MinPos(0)=0.
	if s.MinPos(0) != 0 || s.MaxPos(0) != 1 {
		t.Errorf("bounds(0) = [%d,%d], want [0,1]", s.MinPos(0), s.MaxPos(0))
	}
	// 3 has ancestors {0,1} => MinPos=2; no successors => MaxPos=4.
	if s.MinPos(3) != 2 || s.MaxPos(3) != 4 {
		t.Errorf("bounds(3) = [%d,%d], want [2,4]", s.MinPos(3), s.MaxPos(3))
	}
	// 4 unconstrained.
	if s.MinPos(4) != 0 || s.MaxPos(4) != 4 {
		t.Errorf("bounds(4) = [%d,%d], want [0,4]", s.MinPos(4), s.MaxPos(4))
	}
}

func TestTopoIsCompatibleAndDeterministic(t *testing.T) {
	s := NewSet(6)
	s.MustAdd(3, 0)
	s.MustAdd(0, 5)
	s.MustAdd(4, 5)
	a := s.Repair(identity(6))
	b := s.Repair(identity(6))
	if len(a) != 6 {
		t.Fatalf("topo length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Topo not deterministic")
		}
	}
	if !s.Compatible(a) {
		t.Fatal("Topo output violates constraints")
	}
	if s.Compatible([]int{5, 0, 1, 2, 3, 4}) {
		t.Fatal("Compatible accepted violating order")
	}
}

func TestCheckOrder(t *testing.T) {
	s := NewSet(6)
	s.MustAdd(1, 0)
	if err := CheckOrder(6, s, []int{1, 0, 2, 3, 4, 5}); err != nil {
		t.Fatalf("feasible order rejected: %v", err)
	}
	if err := CheckOrder(6, nil, []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("permutation rejected without constraints: %v", err)
	}
	for name, bad := range map[string][]int{
		"short":        {0, 1, 2},
		"duplicate":    {0, 0, 1, 2, 3, 4},
		"out of range": {0, 1, 2, 3, 4, 6},
		"precedence":   identity(6),
	} {
		if err := CheckOrder(6, s, bad); err == nil {
			t.Errorf("%s order accepted: %v", name, bad)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := NewSet(3)
	s.MustAdd(0, 1)
	c := s.Clone()
	c.MustAdd(1, 2)
	if s.Before(1, 2) {
		t.Error("clone mutation leaked into original")
	}
	if !c.Before(0, 2) {
		t.Error("clone lost closure maintenance")
	}
	if len(c.Edges()) != 2 || len(s.Edges()) != 1 {
		t.Errorf("edge bookkeeping wrong: %d/%d", len(c.Edges()), len(s.Edges()))
	}
}

// Property: inserting random edges in random order either errors with
// ErrCycle or maintains a closure that agrees with a reachability DFS.
func TestQuickClosureMatchesDFS(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%10
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(n)
		adj := make([][]int, n)
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if err := s.Add(i, j); err == nil {
				adj[i] = append(adj[i], j)
			}
		}
		// Reference reachability.
		for i := 0; i < n; i++ {
			reach := make([]bool, n)
			stack := []int{i}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range adj[u] {
					if !reach[v] {
						reach[v] = true
						stack = append(stack, v)
					}
				}
			}
			for j := 0; j < n; j++ {
				if reach[j] != s.Before(i, j) {
					return false
				}
			}
		}
		return s.Compatible(s.Repair(identity(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
