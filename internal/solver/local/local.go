// Package local implements the local search methods of §7: two Tabu
// Search variants (TS-BSwap, TS-FSwap), Large Neighborhood Search (LNS)
// on top of the CP engine, and the adaptive Variable Neighborhood Search
// (VNS) that the paper finds most scalable and stable. All searchers
// record anytime trajectories so the experiment harness can regenerate
// Figures 11–13.
package local

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// TrajPoint is one improvement event of an anytime search.
type TrajPoint struct {
	Elapsed   time.Duration // wall time since the search started
	Steps     int64         // search steps consumed so far
	Objective float64       // new best objective
}

// Trajectory is the sequence of improvements, best objective last.
type Trajectory []TrajPoint

// BestAt returns the best objective known at the given elapsed time
// (useful for plotting step curves); +Inf before the first point.
func (tr Trajectory) BestAt(d time.Duration) float64 {
	best := inf()
	for _, p := range tr {
		if p.Elapsed <= d {
			best = p.Objective
		}
	}
	return best
}

func inf() float64 { return math.Inf(1) }

// Options are shared by all local searches.
type Options struct {
	// Initial is the starting order (required; use greedy.Solve).
	Initial []int
	// Budget is the wall-clock budget (0 = unlimited; then MaxSteps must
	// be set).
	Budget time.Duration
	// MaxSteps bounds the number of search steps — move evaluations for
	// Tabu, CP search nodes for LNS/VNS — making runs deterministic for
	// tests (0 = unlimited).
	MaxSteps int64
	// Rng drives randomized decisions; required for LNS/VNS.
	Rng *rand.Rand
	// OnImprove, when non-nil, is invoked for every new best solution
	// with a copy of the order (used by the Figure 13 decomposition).
	OnImprove func(order []int, objective float64)
	// Context, when non-nil, aborts the search when cancelled (checked
	// together with the budget).
	Context context.Context
	// Incumbent, when non-nil, is polled between iterations with the best
	// objective this search has seen. When some other portfolio backend
	// holds a strictly better feasible order it returns a private copy and
	// its objective for this search to adopt; otherwise it returns nil.
	// Adopted orders are not re-reported through OnImprove (they are not
	// this search's own improvements), which also prevents publish/adopt
	// echo loops between backends.
	Incumbent func(than float64) ([]int, float64)
}

// Result is the outcome of a local search run.
type Result struct {
	Order     []int
	Objective float64
	Traj      Trajectory
	Steps     int64
	// Accepted counts moves the search committed: applied swap/insert
	// moves for Tabu and annealing (including worsening escape moves),
	// improving relaxations for LNS/VNS. Steps - Accepted is the
	// rejected/evaluated-only effort.
	Accepted int64
	// Adopted counts portfolio incumbents this search imported through
	// Options.Incumbent (they never appear in Traj, per its contract).
	Adopted int64
}

// budgetTracker enforces Options.Budget / Options.MaxSteps / Options.Context.
type budgetTracker struct {
	start    time.Time
	deadline time.Time
	maxSteps int64
	steps    int64
	ctx      context.Context
}

func newBudget(opt *Options) *budgetTracker {
	b := &budgetTracker{start: time.Now(), maxSteps: opt.MaxSteps, ctx: opt.Context}
	if opt.Budget > 0 {
		b.deadline = b.start.Add(opt.Budget)
	}
	return b
}

func (b *budgetTracker) spend(n int64) { b.steps += n }

func (b *budgetTracker) exhausted() bool {
	if b.maxSteps > 0 && b.steps >= b.maxSteps {
		return true
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return true
	}
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			return true
		default:
		}
	}
	return false
}

func (b *budgetTracker) remainingSteps() int64 {
	if b.maxSteps == 0 {
		return 1 << 40
	}
	r := b.maxSteps - b.steps
	if r < 0 {
		return 0
	}
	return r
}

// tracker accumulates the trajectory of improvements.
type tracker struct {
	b         *budgetTracker
	traj      Trajectory
	best      float64
	adopted   int64
	onImprove func(order []int, objective float64)
}

// adopt polls opt.Incumbent for an externally-published order strictly
// better than everything this search has seen (portfolio incumbent
// sharing) and returns the solution to continue from plus whether an
// adoption happened. The comparison is against the tracker's best — not
// the current position — so a search that deliberately worsened its
// position (tabu escape moves, annealing uphill steps) is not yanked
// back to its own published best every iteration, which would destroy
// its diversification. The tracker's best is tightened silently: adopted
// orders are somebody else's improvements and must not re-enter the
// trajectory or OnImprove.
func (t *tracker) adopt(opt *Options, cur []int, curObj float64) ([]int, float64, bool) {
	if opt.Incumbent == nil {
		return cur, curObj, false
	}
	ext, extObj := opt.Incumbent(t.best)
	if ext == nil {
		return cur, curObj, false
	}
	t.best = extObj
	t.adopted++
	return ext, extObj, true
}

func (t *tracker) record(order []int, obj float64) {
	t.best = obj
	t.traj = append(t.traj, TrajPoint{
		Elapsed:   time.Since(t.b.start),
		Steps:     t.b.steps,
		Objective: obj,
	})
	if t.onImprove != nil {
		t.onImprove(append([]int(nil), order...), obj)
	}
}
