package cp

import (
	"context"

	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// Registry param names.
const (
	// ParamWorkers is the branch-and-bound worker-goroutine budget for
	// the work-stealing proof search (0 or 1 = the deterministic serial
	// engine).
	ParamWorkers = "cp.workers"
	// ParamSplitDepth bounds the tree depth below which nodes donate
	// sibling branches to the shared frontier (0 = auto-sized).
	ParamSplitDepth = "cp.split_depth"
	// ParamTailBound toggles the in-search §5.5 tail bound: exact
	// minimal-completion-cost tables for the last few deployment steps,
	// folded into the branch-and-bound lower bound. On by default; the
	// proved optimum is identical either way (the bound only prunes
	// provably dominated nodes), so the switch exists for ablation and
	// for skipping the preprocessing on huge instances.
	ParamTailBound = "cp.tail_bound"
)

func init() { backend.Register(asBackend{}) }

// asBackend adapts the CP engine to the registry contract.
type asBackend struct{}

func (asBackend) Info() backend.Info {
	f := func(v float64) *float64 { return &v }
	return backend.Info{
		Name:    "cp",
		Kind:    backend.KindExact,
		Rank:    50,
		Proves:  true,
		Summary: "branch-and-prune CP search (§6); work-stealing parallel proof with cp.workers > 1",
		Params: []backend.ParamSpec{
			{Name: ParamWorkers, Type: backend.ParamInt, Default: 0, Min: f(0), Max: f(4096),
				Help: "parallel branch-and-bound workers for the proof search (0 or 1 = serial)"},
			{Name: ParamSplitDepth, Type: backend.ParamInt, Default: 0, Min: f(0), Max: f(64),
				Help: "tree depth above which subtrees are donated to the steal frontier (0 = auto)"},
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
		Workers:       req.Params.Int(ParamWorkers, 0),
		SplitDepth:    req.Params.Int(ParamSplitDepth, 0),
		Seed:          req.Seed,
		TailBound:     tb,
	}
	if req.Exporter != nil {
		// *ExportHandle satisfies backend.WorkSource; the indirection
		// only exists so package cp's own Options need not name the
		// backend interface.
		opts.Exporter = func(h *ExportHandle) func() { return req.Exporter(h) }
	}
	res := Solve(req.Compiled, req.Constraints, opts)
	return backend.Outcome{
		Order: res.Order, Objective: res.Objective,
		Proved: res.Proved, Iterations: res.Nodes, Workers: res.Workers,
		Counters: res.Counters(),
	}
}
