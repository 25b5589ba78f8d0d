package astar

import (
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
)

// TestAllocAstarProof pins the allocations of one full proof on a
// session-shaped n=16 instance. The arena, open list, g-table and scratch
// slices grow by doubling, so a proof of tens of thousands of expansions
// allocates a few dozen times; one allocation per generated child — a
// node pointer or a prefix copy — would blow the budget by two orders of
// magnitude.
func TestAllocAstarProof(t *testing.T) {
	in := driftShaped(16, 16)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	var res Result
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if res, err = Solve(c, cs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Proved || res.Order == nil {
		t.Fatal("unbounded proof did not reach the goal")
	}
	if res.Expanded < 5000 {
		t.Fatalf("instance too easy (%d expansions) to witness allocation-freedom", res.Expanded)
	}
	t.Logf("%.0f allocs per proof over %d expansions, %d states", allocs, res.Expanded, res.States)
	const budget = 200
	if allocs > budget {
		t.Fatalf("proof allocates %.0f times (budget %d): per-child allocations are back", allocs, budget)
	}
}
