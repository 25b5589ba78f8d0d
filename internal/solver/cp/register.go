package cp

import (
	"context"

	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// ParamTailBound is the registry param that toggles the in-search §5.5
// tail bound: exact minimal-completion-cost tables for the last few
// deployment steps, folded into the branch-and-bound lower bound. On by
// default; the proved optimum is identical either way (the bound only
// prunes provably dominated nodes), so the switch exists for ablation
// and for skipping the preprocessing on huge instances.
const ParamTailBound = "cp.tail_bound"

func init() { backend.Register(asBackend{}) }

// asBackend adapts the CP engine to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "cp",
		Kind:    backend.KindExact,
		Rank:    50,
		Proves:  true,
		Summary: "branch-and-prune CP search (§6)",
		Params: []backend.ParamSpec{
			{Name: ParamTailBound, Type: backend.ParamBool, Default: true,
				Help: "fold exact tail-completion tables (§5.5) into the in-search lower bound"},
		},
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	var tb *prune.TailBound
	if req.Params.Bool(ParamTailBound, true) {
		tb = prune.NewTailBound(req.Compiled, req.Constraints, prune.Options{})
	}
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
