package bruteforce_test

import (
	"context"
	"math"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestSolveLimitStopsAtNodeLimit: the enumeration enters exactly
// nodeLimit nodes, then returns the best order seen so far, unproved; a
// limit above the full enumeration's node count changes nothing.
func TestSolveLimitStopsAtNodeLimit(t *testing.T) {
	in := datasets.ReducedTPCH(9, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	full, err := bruteforce.Solve(c, cs, true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Aborted || full.Nodes < 1000 {
		t.Fatalf("full enumeration: aborted %v after %d nodes", full.Aborted, full.Nodes)
	}
	for _, limit := range []int64{int64(c.N) + 1, 100, full.Nodes / 2, full.Nodes - 1} {
		res, err := bruteforce.SolveLimit(context.Background(), c, cs, true, limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !res.Aborted || res.Nodes != limit {
			t.Fatalf("limit %d: aborted %v after %d nodes", limit, res.Aborted, res.Nodes)
		}
		solvertest.RequireFeasible(t, c.N, cs, res.Order)
		if got := c.Objective(res.Order); got != res.Objective || got < full.Objective {
			t.Fatalf("limit %d: objective %v (order gives %v), optimum %v", limit, res.Objective, got, full.Objective)
		}
	}
	// The first complete order takes n+1 nodes; with fewer there is none.
	if _, err := bruteforce.SolveLimit(context.Background(), c, cs, true, int64(c.N)); err == nil {
		t.Fatalf("limit %d: no error before the first complete order", c.N)
	}
	res, err := bruteforce.SolveLimit(context.Background(), c, cs, true, full.Nodes)
	if err != nil || res.Aborted || res.Nodes != full.Nodes ||
		math.Float64bits(res.Objective) != math.Float64bits(full.Objective) {
		t.Fatalf("limit = full node count: %+v, %v; full run %+v", res, err, full)
	}
}

// TestBackendHonoursStepLimit: the registered adapter maps
// Request.StepLimit onto the node limit, so a step-limited request
// reports an unproved best-so-far order instead of enumerating on.
func TestBackendHonoursStepLimit(t *testing.T) {
	b, ok := backend.Lookup("bruteforce")
	if !ok {
		t.Fatal("bruteforce is not registered")
	}
	in := datasets.ReducedTPCH(9, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	const limit = 500
	want, err := bruteforce.SolveLimit(context.Background(), c, cs, true, limit)
	if err != nil {
		t.Fatal(err)
	}
	out := b.Solve(context.Background(), backend.Request{Compiled: c, Constraints: cs, StepLimit: limit})
	if out.Err != nil || out.Proved {
		t.Fatalf("step-limited outcome: proved %v, err %v", out.Proved, out.Err)
	}
	if math.Float64bits(out.Objective) != math.Float64bits(want.Objective) || out.Iterations != want.Visited {
		t.Fatalf("outcome objective %v after %d permutations, SolveLimit %v after %d",
			out.Objective, out.Iterations, want.Objective, want.Visited)
	}
	solvertest.RequireFeasible(t, c.N, cs, out.Order)
}
