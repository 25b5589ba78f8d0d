package cp

import (
	"context"

	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts the CP engine to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "cp",
		Kind:    backend.KindExact,
		Rank:    50,
		Summary: "branch-and-prune CP search (§6)",
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	// The §5.5 tail bound is always on: it leaves the proved optimum
	// unchanged, and prune's pattern budget caps its preprocessing.
	tb := prune.NewTailBound(req.Compiled, req.Constraints, prune.Options{})
	// No Deadline: the caller's context carries the budget and cp polls
	// it at the same cadence a deadline would be checked at.
	opts := Options{
		NodeLimit:     req.StepLimit,
		Context:       ctx,
		Incumbent:     req.Initial,
		ExternalBound: req.Bound,
		OnSolution:    req.Publish,
		TailBound:     tb,
	}
	res := Solve(req.Compiled, req.Constraints, opts)
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: res.Proved, Iterations: res.Nodes,
		Counters: res.Counters(),
	}
}
