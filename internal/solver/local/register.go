package local

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// The five local searches register as anytime backends, ranked after
// the constructive and exact ones so a sliced race runs them last.
func init() {
	for _, s := range []asBackend{
		{name: "tabu-b", rank: 70, run: TabuBSwap,
			summary: "tabu search over the backward-swap neighborhood (TS-BSwap, §7.1)"},
		{name: "tabu-f", rank: 71, run: TabuFSwap,
			summary: "tabu search over the forward-swap neighborhood (TS-FSwap, §7.1)"},
		{name: "lns", rank: 72, run: LNS,
			summary: "large neighborhood search relaxing random index subsets through CP (§7.2)"},
		{name: "vns", rank: 73, run: VNS,
			summary: "adaptive variable neighborhood search (§7.3); the paper's most stable searcher"},
		{name: "anneal", rank: 74, run: Anneal,
			summary: "simulated annealing over swap/insert moves with geometric cooling"},
	} {
		backend.Register(s)
	}
}

// asBackend adapts one local search to the registry contract.
type asBackend struct {
	name    string
	rank    int
	summary string
	run     func(*model.Compiled, *constraint.Set, Options) Result
}

func (s asBackend) Info() backend.Info {
	return backend.Info{
		Name:    s.name,
		Kind:    backend.KindAnytime,
		Rank:    s.rank,
		Summary: s.summary,
	}
}

func (s asBackend) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	if len(req.Initial) == 0 {
		return backend.Outcome{Objective: math.Inf(1),
			Err: fmt.Errorf("local search %s requires Request.Initial (a feasible seed order)", s.name)}
	}
	res := s.run(req.Compiled, req.Constraints, Options{
		Initial:   req.Initial,
		Budget:    req.Budget,
		MaxSteps:  req.StepLimit,
		Rng:       rand.New(rand.NewSource(req.Seed)),
		Context:   ctx,
		Incumbent: req.Incumbent,
		OnImprove: req.Publish,
	})
	return backend.Outcome{Order: res.Order, Objective: res.Objective, Iterations: res.Steps,
		Counters: map[string]int64{
			"steps":        res.Steps,
			"accepted":     res.Accepted,
			"adopted":      res.Adopted,
			"improvements": int64(len(res.Traj)),
		}}
}
