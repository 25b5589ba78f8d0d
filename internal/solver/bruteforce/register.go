package bruteforce

import (
	"context"
	"math"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// maxDefaultN bounds the instances brute force volunteers for in the
// portfolio's default selection (10! ≈ 3.6M permutations — still
// instant with the admissible bound).
const maxDefaultN = 10

func init() { backend.Register(asBackend{}) }

// asBackend adapts exhaustive enumeration to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:       "bruteforce",
		Kind:       backend.KindExact,
		Rank:       30,
		Summary:    "bounded exhaustive enumeration; ground truth for tiny instances",
		Applicable: func(c *model.Compiled) bool { return c.N <= maxDefaultN },
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	res, err := SolveLimit(ctx, req.Compiled, req.Constraints, true, req.StepLimit)
	if err != nil {
		return backend.Outcome{Objective: math.Inf(1), Err: err}
	}
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: !res.Aborted, Iterations: res.Visited,
	}
}
