package dp

import (
	"context"

	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts the DP baseline to the registry contract. The DP
// ignores precedence constraints by construction, so the adapter
// repairs its order against the request's constraint set before
// reporting it.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "dp",
		Kind:    backend.KindConstructive,
		Rank:    20,
		Summary: "interval dynamic-programming baseline (§4.4), precedence-repaired",
	}
}

func (asBackend) Solve(_ context.Context, req backend.Request) backend.Outcome {
	order := req.Constraints.Repair(Solve(req.Compiled))
	return backend.Outcome{Order: order, Objective: req.Compiled.Objective(order)}
}
