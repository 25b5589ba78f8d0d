package astar

import (
	"context"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// TestBackendCounters: the registered adapter reports its work the way
// CP reports nodes, so iddsolve -json and the service's backend
// summaries carry A*'s expansions and distinct states.
func TestBackendCounters(t *testing.T) {
	b, ok := backend.Lookup("astar")
	if !ok {
		t.Fatal("astar is not registered")
	}
	in := driftShaped(16, 12)
	out := b.Solve(context.Background(), backend.Request{
		Compiled:    model.MustCompile(in),
		Constraints: sched.PrecedenceSet(in),
	})
	if out.Err != nil || !out.Proved {
		t.Fatalf("outcome: proved %v, err %v", out.Proved, out.Err)
	}
	if got := out.Counters["expanded"]; got != out.Iterations || got == 0 {
		t.Errorf("counters[expanded] = %d, want Iterations = %d (> 0)", got, out.Iterations)
	}
	if got := out.Counters["states"]; got <= 0 {
		t.Errorf("counters[states] = %d, want > 0", got)
	}
}
