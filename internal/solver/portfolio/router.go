package portfolio

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/astar"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// Fast-path routing: most production advisor traffic is small instances
// for which racing ten backends is pure overhead — one exact solver
// proves the optimum in milliseconds. Route sends every small instance
// straight to A* (the paper's §4.5 subset search), the fastest exact
// prover at every routed size, instead of the full portfolio race.
// Because the routed backend runs to exhaustion and proves optimality,
// the routed objective is bit-identical to what the race would return
// (both are the unique optimum under the shared evaluation core); when
// it fails to prove within budget, the caller falls back to the race,
// so routing can never degrade result quality.

// Features are cheap instance descriptors, bucketed by Class for
// per-class reporting.
type Features struct {
	// N is the index count — the dominant cost driver for every exact
	// backend.
	N int
	// PrecedenceEdges counts explicit precedence constraints.
	PrecedenceEdges int
	// PrecedenceDensity is PrecedenceEdges / (n choose 2), in [0, 1].
	PrecedenceDensity float64
	// Plans counts the instance's query plans (constraint count in the
	// evaluation sense: every plan is one speedup term to maintain).
	Plans int
}

// FeaturesOf derives the features of a compiled instance. cs may be nil
// (no precedence constraints).
func FeaturesOf(c *model.Compiled, cs *constraint.Set) Features {
	f := Features{N: c.N, Plans: len(c.PlanQuery)}
	if cs != nil {
		f.PrecedenceEdges = cs.Len()
	}
	if pairs := c.N * (c.N - 1) / 2; pairs > 0 {
		f.PrecedenceDensity = float64(f.PrecedenceEdges) / float64(pairs)
	}
	return f
}

// Class buckets the features into a coarse key: size band plus
// precedence-density band.
func (f Features) Class() string {
	size := "tiny"
	switch {
	case f.N > 16:
		size = "large"
	case f.N > 10:
		size = "medium"
	case f.N > 7:
		size = "small"
	}
	dens := "sparse"
	if f.PrecedenceDensity > 0.15 {
		dens = "dense"
	}
	return size + "/" + dens
}

// DefaultFastPathMaxN is the routing size threshold: instances this
// small prove in a few milliseconds, so the portfolio race is pure
// overhead for them.
const DefaultFastPathMaxN = 12

// Every size Route sends to A* must be one A* accepts.
var _ = [astar.MaxN - DefaultFastPathMaxN]struct{}{}

// Route picks the backend to fast-path an n-index instance to, or
// reports ok=false when it should run the full portfolio race. Every
// instance with 1 ≤ n ≤ DefaultFastPathMaxN goes to A*.
func Route(n int) (string, bool) {
	if n < 1 || n > DefaultFastPathMaxN {
		return "", false
	}
	return "astar", true
}

// SolveSingle runs exactly one named backend over the instance with the
// full budget — the fast path that skips the portfolio race. The result
// is shaped exactly like Solve's: the backend's telemetry appears in
// Backends, progress events fire for the backend start, every incumbent
// improvement, the proof, and completion. The incumbent store is seeded
// with greedy (or opt.Initial), exactly like the race, so a backend
// that fails to improve still returns a feasible order.
func SolveSingle(ctx context.Context, c *model.Compiled, cs *constraint.Set, name string, opt Options) (Result, error) {
	b, ok := backend.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("portfolio: %w", backend.CheckNames([]string{name}))
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	info := b.Info()
	budget := opt.Budget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	emit := func(ev ProgressEvent) {
		if opt.OnProgress != nil {
			opt.OnProgress(ev)
		}
	}

	sh := opt.Store
	if sh == nil {
		sh = NewStore(c.N, cs)
	}
	initial := opt.Initial
	if initial == nil {
		initial = greedy.Solve(c, cs)
	} else if err := ValidateInitial(c, cs, initial); err != nil {
		return Result{}, fmt.Errorf("portfolio: Options.Initial is not a feasible order: %w", err)
	}
	sh.Offer("seed", initial, c.Objective(initial))

	if ctx == nil {
		ctx = context.Background()
	}
	bctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	br := BackendResult{Name: name, Objective: math.Inf(1), BestPublished: math.Inf(1)}
	var pubMu sync.Mutex
	publish := func(order []int, obj float64) {
		if !sh.Offer(name, order, obj) {
			return
		}
		pubMu.Lock()
		br.BestPublished = obj
		br.Improvements++
		pubMu.Unlock()
		if opt.OnImprove != nil {
			opt.OnImprove(name, order, obj)
		}
		if opt.OnProgress != nil {
			opt.OnProgress(ProgressEvent{
				Kind: ProgressImproved, Backend: name,
				Order: append([]int(nil), order...), Objective: obj,
			})
		}
	}
	emit(ProgressEvent{Kind: ProgressBackendStarted, Backend: name, Objective: sh.Objective()})
	start := time.Now()
	out := b.Solve(bctx, backend.Request{
		Compiled:    c,
		Constraints: cs,
		Budget:      budget,
		StepLimit:   opt.StepLimit,
		Seed:        opt.Seed,
		Initial:     initial,
		Publish:     publish,
		Incumbent:   sh.BetterThan,
		Bound:       sh.Objective,
	})
	br.Wall = time.Since(start)
	br.Objective = out.Objective
	br.Proved = out.Proved && info.Kind == backend.KindExact
	br.Iterations = out.Iterations
	br.Counters = out.Counters
	br.Err = out.Err
	if out.Order != nil {
		publish(out.Order, out.Objective)
	}
	emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
		Objective: br.Objective, Err: br.Err,
		Iterations: br.Iterations, Wall: br.Wall})
	if br.Proved {
		border, bobj, _ := sh.Best()
		emit(ProgressEvent{Kind: ProgressProved, Backend: name,
			Order: border, Objective: bobj})
	}

	order, obj, winner := sh.Best()
	return Result{
		Order:     order,
		Objective: obj,
		Winner:    winner,
		Proved:    br.Proved,
		Backends:  []BackendResult{br},
	}, nil
}
