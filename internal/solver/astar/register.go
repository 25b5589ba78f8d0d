package astar

import (
	"context"
	"math"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts the A* subset search to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:       "astar",
		Kind:       backend.KindExact,
		Rank:       40,
		Summary:    "A* over index subsets with an admissible completion bound (§4.5)",
		Applicable: func(c *model.Compiled) bool { return c.N <= MaxN },
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	res, err := Solve(req.Compiled, req.Constraints, Options{
		NodeLimit:     req.StepLimit,
		Context:       ctx,
		ExternalBound: req.Bound,
		OnSolution:    req.Publish,
	})
	if err != nil {
		return backend.Outcome{Objective: math.Inf(1), Err: err}
	}
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: res.Proved, Iterations: res.Expanded,
		Counters: map[string]int64{"expanded": res.Expanded, "states": res.States},
	}
}
