package model_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
)

// TestSetEvalTable pins SetEval on a hand-worked instance: base runtime
// 150 over two queries, a two-index plan per query competing with a
// singleton, and two helpers discounting index 2.
func TestSetEvalTable(t *testing.T) {
	in := &model.Instance{
		Name: "seteval",
		Indexes: []model.Index{
			{Name: "a", CreateCost: 10}, {Name: "b", CreateCost: 20}, {Name: "c", CreateCost: 30},
		},
		Queries: []model.Query{{Name: "q0", Runtime: 100}, {Name: "q1", Runtime: 50}},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 10},
			{Query: 0, Indexes: []int{0, 1}, Speedup: 40},
			{Query: 1, Indexes: []int{2}, Speedup: 20},
			{Query: 1, Indexes: []int{1, 2}, Speedup: 30},
		},
		BuildInteractions: []model.BuildInteraction{
			{Target: 2, Helper: 0, Speedup: 3},
			{Target: 2, Helper: 1, Speedup: 5},
		},
	}
	c := model.MustCompile(in)
	nan := math.NaN() // index already in the set
	for _, tc := range []struct {
		mask    uint64
		runtime float64
		cost    [3]float64 // MaskBuildCost(i, mask)
		with    [3]float64 // RuntimeWith(i)
	}{
		{0b000, 150, [3]float64{10, 20, 30}, [3]float64{140, 150, 130}},
		{0b001, 140, [3]float64{nan, 20, 27}, [3]float64{nan, 110, 120}},
		{0b010, 150, [3]float64{10, nan, 25}, [3]float64{110, nan, 120}},
		{0b100, 130, [3]float64{10, 20, nan}, [3]float64{120, 120, nan}},
		{0b011, 110, [3]float64{nan, nan, 25}, [3]float64{nan, nan, 80}},
		{0b101, 120, [3]float64{nan, 20, nan}, [3]float64{nan, 80, nan}},
		{0b110, 120, [3]float64{10, nan, nan}, [3]float64{80, nan, nan}},
		{0b111, 80, [3]float64{nan, nan, nan}, [3]float64{nan, nan, nan}},
	} {
		ev := model.NewSetEval(c)
		ev.Load(tc.mask)
		if ev.Runtime() != tc.runtime {
			t.Errorf("mask %03b: runtime %v, want %v", tc.mask, ev.Runtime(), tc.runtime)
		}
		for i := 0; i < c.N; i++ {
			if tc.mask&(1<<uint(i)) != 0 {
				continue
			}
			if got := c.MaskBuildCost(i, tc.mask); got != tc.cost[i] {
				t.Errorf("mask %03b: MaskBuildCost(%d) = %v, want %v", tc.mask, i, got, tc.cost[i])
			}
			if got := ev.RuntimeWith(i); got != tc.with[i] {
				t.Errorf("mask %03b: RuntimeWith(%d) = %v, want %v", tc.mask, i, got, tc.with[i])
			}
		}
	}
}

// TestSetEvalRejectsWideInstances: masks cover 64 indexes at most.
func TestSetEvalRejectsWideInstances(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 65
	c := model.MustCompile(randgen.New(rand.New(rand.NewSource(1)), cfg))
	defer func() {
		if recover() == nil {
			t.Fatal("NewSetEval accepted 65 indexes")
		}
	}()
	model.NewSetEval(c)
}

// checkSetEvalAgainstWalker builds a random instance, set and push order
// from seed and requires SetEval to report, bit for bit, what a Walker
// that pushed that set in that order reports: the set's runtime, and per
// unplaced child its build cost, its objective (g + Runtime·MaskBuildCost
// against ObjectiveIfPushed and a real Push) and its runtime. Children are
// scored one after another on one load, so a RuntimeWith that left a
// raised best behind would fail a later child.
func checkSetEvalAgainstWalker(seed int64, n, queries int, density uint8) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = queries
	cfg.BuildInteractionProb = float64(density%40) / 100
	cfg.MultiIndexPlanProb = float64(density%90) / 100
	in := randgen.New(rng, cfg)
	for q := range in.Queries {
		if rng.Intn(3) == 0 {
			in.Queries[q].Weight = 0.25 + 3*rng.Float64()
		}
	}
	c := model.MustCompile(in)

	var mask uint64
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			mask |= 1 << uint(i)
		}
	}
	w := model.NewWalker(c)
	for _, i := range rng.Perm(n) {
		if mask&(1<<uint(i)) != 0 {
			w.Push(i)
		}
	}
	ev := model.NewSetEval(c)
	ev.Load(mask)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(ev.Runtime(), w.Runtime()) {
		return fmt.Errorf("mask %b: runtime %v, walker %v", mask, ev.Runtime(), w.Runtime())
	}
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		cost := c.MaskBuildCost(i, mask)
		if !same(cost, w.BuildCost(i)) {
			return fmt.Errorf("mask %b: MaskBuildCost(%d) %v, walker %v", mask, i, cost, w.BuildCost(i))
		}
		g := w.Objective() + ev.Runtime()*cost
		if !same(g, w.ObjectiveIfPushed(i)) {
			return fmt.Errorf("mask %b: g of %d is %v, ObjectiveIfPushed %v", mask, i, g, w.ObjectiveIfPushed(i))
		}
		with := ev.RuntimeWith(i)
		w.Push(i)
		gotG, gotRT := w.Objective(), w.Runtime()
		w.Pop()
		if !same(g, gotG) || !same(with, gotRT) {
			return fmt.Errorf("mask %b: child %d g %v runtime %v, walker push %v %v", mask, i, g, with, gotG, gotRT)
		}
		if !same(ev.Runtime(), w.Runtime()) {
			return fmt.Errorf("mask %b: RuntimeWith(%d) changed the loaded runtime", mask, i)
		}
	}
	return nil
}

// TestSetEvalMatchesWalker runs the walker comparison over a fixed grid
// of seeds and sizes up to the 64-index limit.
func TestSetEvalMatchesWalker(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		n := 1 + int(seed%24)
		if seed%50 == 0 {
			n = 64
		}
		if err := checkSetEvalAgainstWalker(seed, n, 1+int(seed%17), uint8(seed)); err != nil {
			t.Fatalf("seed %d n=%d: %v", seed, n, err)
		}
	}
}

// FuzzSetEvalMatchesWalker drives the same comparison from fuzzer-chosen
// seeds and shapes (go test -fuzz=FuzzSetEvalMatchesWalker ./internal/model).
func FuzzSetEvalMatchesWalker(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(10))
	f.Add(int64(7), uint8(17), uint8(17), uint8(35))
	f.Add(int64(-3), uint8(63), uint8(1), uint8(89))
	f.Fuzz(func(t *testing.T, seed int64, n, queries, density uint8) {
		if err := checkSetEvalAgainstWalker(seed, 1+int(n%64), 1+int(queries%24), density); err != nil {
			t.Fatal(err)
		}
	})
}
