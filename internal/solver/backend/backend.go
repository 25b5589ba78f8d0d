// Package backend defines the self-describing solver-backend contract
// and the process-wide registry every solver package registers into.
//
// A backend is one deployment-ordering algorithm (greedy, cp, vns, ...)
// wrapped behind a uniform Solve(ctx, Request) Outcome call and
// described by an Info record: its kind (exact / anytime /
// constructive), a listing rank and an applicability predicate.
// Everything downstream — the portfolio's default selection and race
// order, `iddsolve -list-solvers` and the service's GET /solvers
// endpoint — is derived from these declarations, so adding a solver is
// a one-file change: write the backend, register it in an init(), and
// every layer picks it up.
package backend

import (
	"context"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// Kind classifies what a backend's result means to the orchestrator.
type Kind uint8

const (
	// KindConstructive: a one-shot heuristic that builds an order and
	// returns (greedy, dp). No proofs, no anytime improvement.
	KindConstructive Kind = iota
	// KindExact: an exhaustive search whose Proved outcome is a true
	// optimality certificate (bruteforce, astar, cp). Only exact proofs
	// may stop a portfolio race.
	KindExact
	// KindAnytime: an iterative improver that publishes incumbents for
	// as long as it is given budget (the local searches). It never
	// proves anything.
	KindAnytime
)

// String returns the wire form used by -list-solvers and GET /solvers.
func (k Kind) String() string {
	switch k {
	case KindConstructive:
		return "constructive"
	case KindExact:
		return "exact"
	case KindAnytime:
		return "anytime"
	default:
		return "unknown"
	}
}

// Info is a backend's self-description. Every field feeds a concrete
// derivation: Rank orders listings and the portfolio's race, Applicable
// derives the portfolio's default set.
type Info struct {
	// Name is the unique registry key ("cp", "vns", ...).
	Name string
	// Kind classifies the backend (see Kind).
	Kind Kind
	// Summary is the one-line human description shown by listings.
	Summary string
	// Rank orders Names/All/Default deterministically (ascending, ties
	// broken by name). Conventionally constructive solvers sit lowest,
	// then exact, then anytime.
	Rank int
	// Applicable reports whether the backend belongs in the default
	// portfolio set for an instance (nil = always). Enumerative solvers
	// use it to bow out beyond their tractable size.
	Applicable func(c *model.Compiled) bool
}

// applicable is the nil-tolerant form of Info.Applicable.
func (in Info) applicable(c *model.Compiled) bool {
	return in.Applicable == nil || in.Applicable(c)
}

// Request is the one solve envelope that flows unchanged from the CLI
// and the HTTP service through the portfolio down to every backend.
type Request struct {
	// Compiled is the instance to order; Constraints the precedence set
	// every returned order must respect (never nil inside a portfolio
	// run; standalone callers may pass nil for "no constraints").
	Compiled    *model.Compiled
	Constraints *constraint.Set
	// Budget is this backend's wall-clock slice (0 = none declared; the
	// context usually carries the hard deadline as well).
	Budget time.Duration
	// StepLimit, when positive, bounds backend-specific search effort
	// (local-search steps / CP nodes / A* expansions) for reproducible
	// runs.
	StepLimit int64
	// Seed derives the backend's private RNG stream.
	Seed int64
	// Initial is a known feasible order to start from (the portfolio
	// seeds it with greedy). Anytime backends require it.
	Initial []int
	// Publish offers an improving feasible order to the caller (the
	// portfolio's shared store). May be nil; backends must tolerate
	// that.
	Publish func(order []int, obj float64)
	// Incumbent polls for an external order strictly better than `than`
	// for the backend to adopt mid-run (nil = none).
	Incumbent func(than float64) ([]int, float64)
	// Bound polls the best objective known outside this backend, for
	// pruning (nil = none).
	Bound func() float64
}

// Outcome is what a backend run reports back.
type Outcome struct {
	// Order is the backend's best feasible order (nil when it produced
	// nothing of its own) and Objective its objective (+Inf when none).
	Order     []int
	Objective float64
	// Proved reports an exhausted search: an optimality certificate
	// from a KindExact backend. The portfolio ignores it from any other
	// kind.
	Proved bool
	// Iterations counts backend-specific effort (steps, nodes,
	// expansions, permutations).
	Iterations int64
	// Counters is the backend's effort breakdown by named cause (nil =
	// none reported). Keys are backend-specific but snake_case and
	// stable; the CP engine reports its prune-cause split
	// (pruned_incumbent / pruned_tail / pruned_memo / infeasible, summing
	// to fails) and incumbent offer/accept counts, the local
	// searches report steps/accepted/adopted. Surfaced verbatim through
	// portfolio.BackendResult, iddsolve -json, and the service's
	// BackendSummary.
	Counters map[string]int64
	// Err reports a backend that refused or failed the instance.
	Err error
}

// Backend is one registered solver.
type Backend interface {
	// Info returns the backend's static self-description. It must be
	// cheap and must return the same declarations every call.
	Info() Info
	// Solve runs the backend until it finishes, the context is
	// cancelled, or a limit in the request trips. Implementations must
	// return their best incumbent rather than nothing when interrupted.
	Solve(ctx context.Context, req Request) Outcome
}
