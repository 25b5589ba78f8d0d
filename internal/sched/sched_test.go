package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
)

func chainSet(n int) *constraint.Set {
	s := constraint.NewSet(n)
	for i := 0; i+1 < n; i++ {
		s.MustAdd(i, i+1)
	}
	return s
}

func TestPrecedenceSetFromInstance(t *testing.T) {
	in := &model.Instance{
		Indexes: []model.Index{{Name: "a", CreateCost: 1}, {Name: "b", CreateCost: 1}},
		Queries: []model.Query{{Name: "q", Runtime: 1}},
		Precedences: []model.Precedence{
			{Before: 1, After: 0},
		},
	}
	s := PrecedenceSet(in)
	if !s.Before(1, 0) || s.Before(0, 1) {
		t.Fatal("precedence not loaded")
	}
}

func TestRandomFeasibleRespectsConstraints(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%12
		rng := rand.New(rand.NewSource(seed))
		cs := constraint.NewSet(n)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				_ = cs.Add(i, j) // cycles rejected internally
			}
		}
		order := RandomFeasible(rng, cs)
		if len(order) != n || !cs.Compatible(order) {
			return false
		}
		seen := make([]bool, n)
		for _, it := range order {
			if seen[it] {
				return false
			}
			seen[it] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomFeasibleVariesWithoutConstraints(t *testing.T) {
	cs := constraint.NewSet(8)
	rng := rand.New(rand.NewSource(5))
	a := RandomFeasible(rng, cs)
	b := RandomFeasible(rng, cs)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("two random draws identical (suspicious for n=8)")
	}
}

func TestRepairStableAndFeasible(t *testing.T) {
	cs := constraint.NewSet(5)
	cs.MustAdd(4, 0) // 4 must precede 0
	in := []int{0, 1, 2, 3, 4}
	out := cs.Repair(in)
	if !cs.Compatible(out) {
		t.Fatalf("repair output infeasible: %v", out)
	}
	// Stability: unblocked items keep their input order (1,2,3 then 4),
	// and 0 is emitted as soon as its predecessor 4 is placed.
	want := []int{1, 2, 3, 4, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("repair = %v, want %v", out, want)
		}
	}
	// A feasible order is unchanged.
	ok := []int{4, 3, 2, 1, 0}
	got := cs.Repair(ok)
	for i := range ok {
		if got[i] != ok[i] {
			t.Fatalf("repair changed a feasible order: %v -> %v", ok, got)
		}
	}
}

func TestSwapFeasible(t *testing.T) {
	cs := chainSet(4) // 0<1<2<3
	order := []int{0, 1, 2, 3}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if SwapFeasible(order, a, b, cs) {
				t.Errorf("swap (%d,%d) should be infeasible on a chain", a, b)
			}
		}
	}
	free := constraint.NewSet(4)
	if !SwapFeasible(order, 0, 3, free) || !SwapFeasible(order, 2, 2, free) {
		t.Error("free swaps should be feasible")
	}
	// Partial constraints: only 0<2.
	cs2 := constraint.NewSet(4)
	cs2.MustAdd(0, 2)
	if SwapFeasible(order, 0, 2, cs2) {
		t.Error("swap crossing its own constraint should fail")
	}
	if !SwapFeasible(order, 1, 3, cs2) {
		t.Error("swap not involving the constraint should pass")
	}
}

func TestInsertFeasibleMatchesApply(t *testing.T) {
	// Property: InsertFeasible agrees with applying the move and checking
	// Compatible.
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%10
		rng := rand.New(rand.NewSource(seed))
		cs := constraint.NewSet(n)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				_ = cs.Add(i, j)
			}
		}
		order := RandomFeasible(rng, cs)
		from, to := rng.Intn(n), rng.Intn(n)
		pred := InsertFeasible(order, from, to, cs)
		applied := append([]int(nil), order...)
		ApplyInsert(applied, from, to)
		return pred == cs.Compatible(applied)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapFeasibleMatchesApply(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%10
		rng := rand.New(rand.NewSource(seed))
		cs := constraint.NewSet(n)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				_ = cs.Add(i, j)
			}
		}
		order := RandomFeasible(rng, cs)
		a, b := rng.Intn(n), rng.Intn(n)
		pred := SwapFeasible(order, a, b, cs)
		applied := append([]int(nil), order...)
		ApplySwap(applied, a, b)
		return pred == cs.Compatible(applied)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyInsert(t *testing.T) {
	order := []int{10, 11, 12, 13, 14}
	ApplyInsert(order, 1, 3)
	want := []int{10, 12, 13, 11, 14}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("forward insert = %v, want %v", order, want)
		}
	}
	ApplyInsert(order, 3, 0)
	want = []int{11, 10, 12, 13, 14}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("backward insert = %v, want %v", order, want)
		}
	}
}

func TestIdentity(t *testing.T) {
	got := Identity(4)
	for i, v := range got {
		if v != i {
			t.Fatalf("Identity = %v", got)
		}
	}
}

func TestRandomFeasibleOnGeneratedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := randgen.DefaultConfig()
	cfg.PrecedenceProb = 0.15
	for rep := 0; rep < 10; rep++ {
		in := randgen.New(rng, cfg)
		cs := PrecedenceSet(in)
		order := RandomFeasible(rng, cs)
		if err := in.ValidOrder(order); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

// TestSwapsMatchesSwapFeasible: the incremental bitset iterator must
// enumerate exactly the pairs the direct O(window) check accepts, in
// lexicographic order.
func TestSwapsMatchesSwapFeasible(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%14
		rng := rand.New(rand.NewSource(seed))
		cs := constraint.NewSet(n)
		for k := 0; k < 2*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				cs.Add(a, b) // ignore cycles; Add rejects them
			}
		}
		order := RandomFeasible(rng, cs)
		var want [][2]int
		for a := 0; a < n-1; a++ {
			for b := a + 1; b < n; b++ {
				if SwapFeasible(order, a, b, cs) {
					want = append(want, [2]int{a, b})
				}
			}
		}
		var got [][2]int
		Swaps(order, cs, func(a, b int) bool {
			got = append(got, [2]int{a, b})
			return true
		})
		if len(got) != len(want) {
			t.Logf("seed %d n=%d: got %v want %v", seed, n, got, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertsMatchesInsertFeasible: same agreement property for the
// insertion neighborhood (set equality; Inserts yields nearest-first).
func TestInsertsMatchesInsertFeasible(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%14
		rng := rand.New(rand.NewSource(seed))
		cs := constraint.NewSet(n)
		for k := 0; k < 2*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				cs.Add(a, b)
			}
		}
		order := RandomFeasible(rng, cs)
		want := map[[2]int]bool{}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from != to && InsertFeasible(order, from, to, cs) {
					want[[2]int{from, to}] = true
				}
			}
		}
		got := map[[2]int]bool{}
		Inserts(order, cs, func(from, to int) bool {
			got[[2]int{from, to}] = true
			return true
		})
		if len(got) != len(want) {
			t.Logf("seed %d n=%d: got %d want %d", seed, n, len(got), len(want))
			return false
		}
		for k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
