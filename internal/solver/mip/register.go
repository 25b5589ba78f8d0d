package mip

import (
	"context"
	"math"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// maxDefaultCells bounds the vars×rows product beyond which the
// time-indexed formulation is too large to contribute within a
// portfolio slice, so the default selection leaves mip out.
const maxDefaultCells = 2e7

func init() { backend.Register(asBackend{}) }

// asBackend adapts the time-indexed MIP to the registry contract.
// Outcome.Proved mirrors the solver's branch-and-bound exhaustion, but
// that proof is w.r.t. the discretized model only — the declared kind
// is anytime, so the portfolio never treats it as an exact certificate.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	return backend.Info{
		Name:    "mip",
		Kind:    backend.KindAnytime,
		Rank:    60,
		Proves:  true,
		Summary: "time-indexed MIP with LP-based branch-and-bound (Appendix B); discretized proofs",
		Applicable: func(c *model.Compiled) bool {
			v, r := EstimateSize(c, Options{})
			return float64(v)*float64(r) <= maxDefaultCells
		},
	}
}

func (asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	if req.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Budget)
		defer cancel()
	}
	opt := Options{
		Context:     ctx,
		Incumbent:   req.Incumbent,
		OnIncumbent: req.Publish,
	}
	if req.StepLimit > 0 {
		opt.NodeLimit = int(req.StepLimit)
	}
	res, err := Solve(req.Compiled, req.Constraints, opt)
	if err != nil {
		return backend.Outcome{Objective: math.Inf(1), Err: err, Iterations: int64(res.Nodes)}
	}
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: res.Proved, Iterations: int64(res.Nodes),
	}
}
