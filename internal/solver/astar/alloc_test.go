package astar

import (
	"runtime"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
)

// TestAllocAstarProof pins the allocations of one full proof on a
// session-shaped n=16 instance, started with no pooled buffers (two
// collections empty the pool). The arena, open list, g-table and scratch
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
		runtime.GC()
		runtime.GC()
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

// TestAllocAstarWarmProof pins the allocations of a proof that follows a
// larger one. The arena, open list and g-table come back from the
// previous proof with room to spare, so what is left is the per-instance
// state (the lower bound, the set evaluator and its undo log) and the
// result order: a dozen allocations, where the first proof in a process
// also grows every buffer.
func TestAllocAstarWarmProof(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	big := driftShaped(17, 18)
	if _, err := Solve(model.MustCompile(big), sched.PrecedenceSet(big), Options{}); err != nil {
		t.Fatal(err)
	}
	in := driftShaped(16, 16)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	var res Result
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if res, err = Solve(c, cs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Proved || res.Order == nil {
		t.Fatal("unbounded proof did not reach the goal")
	}
	t.Logf("%.0f allocs per warm proof over %d expansions, %d states", allocs, res.Expanded, res.States)
	const budget = 16 // 12 measured
	if allocs > budget {
		t.Fatalf("warm proof allocates %.0f times (budget %d): proof buffers are no longer reused", allocs, budget)
	}
}
