package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

func tiny(seed int64, n, q int) (*model.Instance, *model.Compiled) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = q
	cfg.PlansPerQuery = 2
	cfg.MaxPlanSize = 2
	cfg.BuildInteractionProb = 0.1
	cfg.PrecedenceProb = 0
	in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
	return in, model.MustCompile(in)
}

func TestBuildReportsBlowup(t *testing.T) {
	_, c4 := tiny(1, 4, 3)
	_, c8 := tiny(1, 8, 6)
	f4 := Build(c4, nil, Options{TimestepsPerIndex: 4})
	f8 := Build(c8, nil, Options{TimestepsPerIndex: 4})
	if f4.Vars <= 0 || f4.Rows <= 0 {
		t.Fatal("empty formulation")
	}
	// The time-indexed formulation grows superlinearly (D = k*n, Z alone
	// is n*D = k*n^2): doubling n must far more than double variables.
	if f8.Vars < 3*f4.Vars {
		t.Errorf("blow-up not visible: %d -> %d vars", f4.Vars, f8.Vars)
	}
	t.Logf("MIP size: n=4: %d vars / %d rows; n=8: %d vars / %d rows",
		f4.Vars, f4.Rows, f8.Vars, f8.Rows)
}

func TestSolveFindsGoodOrderOnTinyInstance(t *testing.T) {
	in, c := tiny(2, 4, 3)
	bf, err := bruteforce.Solve(c, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(c, nil, Options{TimestepsPerIndex: 4, NodeLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatal(err)
	}
	// Discretization loses accuracy (§6.1), so allow 15% slack — but a
	// working MIP must land near the optimum on 4 indexes.
	if res.Objective > 1.15*bf.Objective {
		t.Errorf("MIP objective %v vs optimum %v", res.Objective, bf.Objective)
	}
	if res.Bound > res.Objective+1e-6 {
		// The root LP bound is in discretized units; it must at least be
		// finite and below the discretized incumbent — sanity check only.
		t.Logf("note: root bound %v, exact objective %v (different units)", res.Bound, res.Objective)
	}
}

func TestAnalysisConstraintsShrinkSearch(t *testing.T) {
	_, c := tiny(5, 4, 3)
	free, err := Solve(c, nil, Options{TimestepsPerIndex: 3, NodeLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Constrain with the optimal first index (as §5 analysis would).
	cs := constraint.NewSet(c.N)
	for _, j := range free.Order[1:] {
		cs.MustAdd(free.Order[0], j)
	}
	constrained, err := Solve(c, cs, Options{TimestepsPerIndex: 3, NodeLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Nodes > free.Nodes {
		t.Errorf("constraints increased nodes: %d > %d", constrained.Nodes, free.Nodes)
	}
	if constrained.Order[0] != free.Order[0] {
		t.Errorf("fixed B edge ignored: first index %d, want %d", constrained.Order[0], free.Order[0])
	}
}

func TestNodeLimitAborts(t *testing.T) {
	_, c := tiny(7, 5, 4)
	res, err := Solve(c, nil, Options{TimestepsPerIndex: 3, NodeLimit: 3})
	if err != nil {
		// With 3 nodes the solver may not reach any integral solution —
		// that is an acceptable outcome for this test.
		t.Logf("no incumbent within 3 nodes: %v", err)
		return
	}
	if res.Proved {
		t.Error("3-node run claimed a proof")
	}
}

func TestObjectiveConsistentWithExactEvaluator(t *testing.T) {
	_, c := tiny(4, 4, 3)
	res, err := Solve(c, nil, Options{TimestepsPerIndex: 4, NodeLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Objective(res.Order); math.Abs(got-res.Objective) > 1e-9*(1+got) {
		t.Errorf("reported %v but exact evaluation gives %v", res.Objective, got)
	}
}

func TestRefusesOversizedFormulation(t *testing.T) {
	_, c := tiny(11, 8, 6)
	_, err := Solve(c, nil, Options{TimestepsPerIndex: 1000})
	if err == nil {
		t.Fatal("oversized formulation accepted")
	}
	v, r := EstimateSize(c, Options{TimestepsPerIndex: 4})
	if v <= 0 || r <= 0 {
		t.Fatalf("estimate %d/%d", v, r)
	}
	// The estimate should be within 2x of the real build.
	f := Build(c, nil, Options{TimestepsPerIndex: 4})
	if f.Vars > 2*v || v > 2*f.Vars || f.Rows > 2*r || r > 2*f.Rows {
		t.Errorf("estimate %d/%d far from actual %d/%d", v, r, f.Vars, f.Rows)
	}
}

// cancelAfter is a context whose Err turns context.Canceled on its k-th
// call (k = 0: never) and stays so; calls counts every Err call.
type cancelAfter struct {
	context.Context
	k, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.k > 0 && c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

func TestContextAbortsSearch(t *testing.T) {
	in, c := tiny(2, 4, 3)
	t.Run("done before the root", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Solve(c, nil, Options{TimestepsPerIndex: 4, Context: ctx})
		if err == nil || res.Nodes != 0 || res.Proved {
			t.Fatalf("cancelled search: nodes %d proved %v err %v, want no node and an error", res.Nodes, res.Proved, err)
		}
	})
	t.Run("done inside the root LP", func(t *testing.T) {
		// Check 1 is the root node's; the root LP stops at check 3, and
		// the search makes no further check.
		ctx := &cancelAfter{Context: context.Background(), k: 3}
		res, err := Solve(c, nil, Options{TimestepsPerIndex: 4, Context: ctx})
		if err == nil || res.Nodes != 1 || res.Proved || ctx.calls != 3 {
			t.Fatalf("nodes %d proved %v err %v after %d checks, want 1 node, an error, 3 checks",
				res.Nodes, res.Proved, err, ctx.calls)
		}
	})
	t.Run("keeps an adopted incumbent", func(t *testing.T) {
		// The root polls the external incumbent before its LP is cut, so
		// the aborted search still answers with that order, unproved.
		ext := inputOrder(in)
		ctx := &cancelAfter{Context: context.Background(), k: 3}
		res, err := Solve(c, nil, Options{TimestepsPerIndex: 4, Context: ctx,
			Incumbent: func(than float64) ([]int, float64) {
				if obj := c.Objective(ext); obj < than {
					return ext, obj
				}
				return nil, 0
			}})
		if err != nil || res.Proved {
			t.Fatalf("proved %v err %v, want an unproved order", res.Proved, err)
		}
		if got, want := res.Objective, c.Objective(ext); got != want {
			t.Fatalf("objective %v, want the adopted incumbent's %v", got, want)
		}
	})
}

// inputOrder is the instance's indexes in input order, a feasible order
// on the precedence-free instances tiny builds.
func inputOrder(in *model.Instance) []int {
	order := make([]int, len(in.Indexes))
	for i := range order {
		order[i] = i
	}
	return order
}
