// Package portfolio races several solver backends concurrently over one
// problem instance, sharing the best-known schedule through a lock-guarded
// incumbent store. Algorithm portfolios are the standard way to turn a
// collection of complementary anytime solvers into a single robust one:
// exact backends (cp, astar, bruteforce) publish proofs and prune against
// the best heuristic incumbent, while the anytime backends (tabu, lns,
// vns, anneal) adopt whatever the portfolio has found so far and keep
// improving it. The orchestrator runs backends on a bounded worker pool
// with per-backend deadline slices carved out of one overall budget,
// cancels everything through a context as soon as some backend proves the
// incumbent optimal, and reports per-backend telemetry alongside the
// winning schedule.
//
// Solve is the one way any program runs a backend: the service's fast
// path and iddsolve's single-method runs are one-name rosters. It is
// also where a backend panic is contained (see call).
//
// The backends themselves come from the self-describing registry in
// internal/solver/backend: the orchestrator derives the default
// selection and its order from each backend's declared applicability
// and rank, and hands every backend the same backend.Request envelope
// (instance, budget slice, step limit, seed, initial order,
// publish/consume hooks). Registering a new backend — even from a test
// file — makes it available here with no portfolio edits.
package portfolio

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"

	// Every built-in solver registers itself into the backend registry
	// from init(); importing them here is what puts them on the roster
	// for any program that links the portfolio (router.go names astar
	// for its MaxN).
	_ "github.com/evolving-olap/idd/internal/solver/astar"
	_ "github.com/evolving-olap/idd/internal/solver/bruteforce"
	_ "github.com/evolving-olap/idd/internal/solver/cp"
	_ "github.com/evolving-olap/idd/internal/solver/dp"
	_ "github.com/evolving-olap/idd/internal/solver/local"
)

const eps = 1e-12

// Store is the shared incumbent: the best feasible schedule any backend
// has published so far. The objective is mirrored in an atomic word so
// the hot consume path (solvers polling "is there anything better?")
// never takes the mutex unless there is.
type Store struct {
	mu    sync.Mutex
	bits  atomic.Uint64 // math.Float64bits of the incumbent objective
	order []int
	owner string
	n     int
	cs    *constraint.Set
}

// NewStore returns an empty store for n-index schedules validated against
// cs (nil = no precedence constraints).
func NewStore(n int, cs *constraint.Set) *Store {
	s := &Store{n: n, cs: cs}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Objective returns the incumbent objective (+Inf when empty). Lock-free.
func (s *Store) Objective() float64 {
	return math.Float64frombits(s.bits.Load())
}

// Offer publishes a candidate schedule on behalf of owner. Infeasible
// orders and orders that do not strictly improve the incumbent are
// rejected. Returns true when the candidate became the incumbent.
func (s *Store) Offer(owner string, order []int, obj float64) bool {
	if obj >= s.Objective()-eps {
		return false
	}
	if constraint.CheckOrder(s.n, s.cs, order) != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj >= s.Objective()-eps {
		return false // raced with a better offer
	}
	s.order = append([]int(nil), order...)
	s.owner = owner
	s.bits.Store(math.Float64bits(obj))
	return true
}

// Best returns a copy of the incumbent, its objective, and the backend
// that published it (nil, +Inf, "" when empty).
func (s *Store) Best() ([]int, float64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.order == nil {
		return nil, math.Inf(1), ""
	}
	return append([]int(nil), s.order...), s.Objective(), s.owner
}

// BetterThan returns a copy of the incumbent and its objective when it is
// strictly better than than, else (nil, 0). This is the consume callback
// handed to the anytime backends.
func (s *Store) BetterThan(than float64) ([]int, float64) {
	if s.Objective() >= than-eps {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.Objective()
	if obj >= than-eps || s.order == nil {
		return nil, 0
	}
	return append([]int(nil), s.order...), obj
}

// RepairInitial admits a warm-start order for a solve of c under cs: it
// fails when initial is not a permutation of 0..c.N-1, and otherwise
// returns cs.Repair(initial), which keeps a feasible order as it is and
// reorders an infeasible one stably. This rescues warm starts whose order
// predates extra constraints (e.g. the pruning analysis adds precedence
// edges a previous incumbent never saw).
func RepairInitial(c *model.Compiled, cs *constraint.Set, initial []int) ([]int, error) {
	if err := constraint.CheckOrder(c.N, nil, initial); err != nil {
		return nil, err
	}
	return cs.Repair(initial), nil
}

// Options configures a portfolio run.
type Options struct {
	// Backends names the backends to race (see backend.Names); nil =
	// backend.Default.
	Backends []string
	// Workers bounds concurrent backends (0 = GOMAXPROCS, capped at the
	// number of backends).
	Workers int
	// Budget is the overall wall-clock budget shared by all backends
	// (0 = 10s). When there are more backends than workers the remaining
	// budget is sliced across the queued backends so late starters still
	// get a fair share; the last backend to start may run to the overall
	// deadline.
	Budget time.Duration
	// StepLimit, when positive, additionally bounds every backend's
	// search steps (local-search steps / CP nodes / A* expansions),
	// making runs reproducible for tests regardless of wall-clock speed.
	StepLimit int64
	// Seed derives each randomized backend's private RNG.
	Seed int64
	// Initial seeds the incumbent store (nil = greedy.Solve).
	Initial []int
	// OnProgress, when non-nil, observes the full anytime progress of the
	// run: every backend start, every incumbent improvement, every
	// backend completion, and the optimality proof if one lands. It is
	// invoked from backend worker goroutines and must be safe for
	// concurrent use. Each ProgressImproved event was an improvement at
	// the moment it was committed to the store, but delivery order
	// between goroutines is not synchronized, so a slightly stale
	// (larger) objective can arrive after a fresher one. The solve
	// service turns this stream into server-sent events.
	OnProgress func(ProgressEvent)
}

// ProgressKind discriminates OnProgress events.
type ProgressKind uint8

const (
	// ProgressImproved: a backend replaced the shared incumbent. Order
	// (a private copy) and Objective carry the new incumbent.
	ProgressImproved ProgressKind = iota
	// ProgressBackendDone: one backend finished, failed, or was skipped.
	// Objective/Err/Skipped/Iterations/Wall mirror its BackendResult.
	ProgressBackendDone
	// ProgressProved: an exact backend proved the shared incumbent
	// optimal. Order and Objective carry the proved incumbent.
	ProgressProved
	// ProgressBackendStarted: a backend is about to run (never emitted
	// for skipped backends). Declared after the original kinds so their
	// wire values are unchanged.
	ProgressBackendStarted
)

func (k ProgressKind) String() string {
	switch k {
	case ProgressImproved:
		return "improved"
	case ProgressBackendDone:
		return "backend-done"
	case ProgressProved:
		return "proved"
	case ProgressBackendStarted:
		return "backend-start"
	default:
		return "unknown"
	}
}

// ProgressEvent is one step of a portfolio run's anytime progress.
type ProgressEvent struct {
	Kind    ProgressKind
	Backend string
	// Order is a private copy of the incumbent for Improved/Proved events
	// (nil for BackendDone).
	Order     []int
	Objective float64
	// BackendDone details.
	Err        error
	Skipped    bool
	Iterations int64
	Wall       time.Duration
}

// RecordSpan mirrors one progress event into a flight recorder (nil tr =
// tracing off). Unlike an event stream, the trace also keeps backend
// starts, so a replay shows when each backend began competing. A
// backend-done span carries "skipped" or the backend's error as its
// detail, and its objective unless the backend found no solution.
func RecordSpan(tr *obs.Trace, ev ProgressEvent) {
	if tr == nil {
		return
	}
	switch ev.Kind {
	case ProgressBackendStarted:
		tr.RecordBackend(obs.SpanBackendStart, ev.Backend, "")
	case ProgressImproved:
		tr.RecordObjective(obs.SpanIncumbent, ev.Backend, ev.Objective, "")
	case ProgressProved:
		tr.RecordObjective(obs.SpanProved, ev.Backend, ev.Objective, "")
	case ProgressBackendDone:
		detail := ""
		switch {
		case ev.Skipped:
			detail = "skipped"
		case ev.Err != nil:
			detail = ev.Err.Error()
		}
		if math.IsInf(ev.Objective, 1) {
			tr.RecordBackend(obs.SpanBackendDone, ev.Backend, detail)
		} else {
			tr.RecordObjective(obs.SpanBackendDone, ev.Backend, ev.Objective, detail)
		}
	}
}

// BackendResult is per-backend telemetry.
type BackendResult struct {
	Name string
	// Objective is the objective of the backend's final solution. For
	// anytime backends this includes portfolio incumbents adopted
	// mid-run, so identical values across backends are expected; use
	// BestPublished/Improvements for what a backend itself contributed
	// (+Inf when it produced nothing).
	Objective float64
	// BestPublished is the best objective this backend committed to the
	// shared store (+Inf when it never improved the portfolio incumbent).
	BestPublished float64
	// Improvements counts the backend's accepted incumbent publications.
	Improvements int
	// Proved marks an optimality proof. Only exact backends (cp, astar,
	// bruteforce) set it; another kind's Outcome.Proved is ignored.
	Proved bool
	// Order is the backend's own final order (nil when it produced
	// none, e.g. an A* proof of the shared incumbent by its bound). It
	// may be worse than the seed: a constructive backend's order is
	// reported as built.
	Order []int
	// Iterations counts backend-specific search effort: local-search
	// steps, CP nodes, A* expansions, brute-force permutations.
	Iterations int64
	// Counters is the backend's own effort breakdown (nil when the
	// backend reports none): cp's prune-cause split, the local
	// searches' accepted/adopted move counts. Passed through verbatim
	// from backend.Outcome.Counters.
	Counters map[string]int64
	// Wall is the backend's own wall-clock time.
	Wall time.Duration
	// Err reports a backend that refused or failed the instance (e.g.
	// bruteforce/astar beyond MaxN, a local search without a seed) or
	// panicked (a *PanicError: "backend <name> panicked: ...").
	Err error
	// Skipped marks a backend never started: the budget was exhausted or
	// an earlier backend proved optimality.
	Skipped bool
}

// Result is the portfolio outcome.
type Result struct {
	// Order is the incumbent schedule and Objective its objective.
	Order     []int
	Objective float64
	// Winner is the backend that published the incumbent ("seed" when no
	// backend improved on the initial order).
	Winner string
	// Proved is true when some exact backend proved the incumbent
	// optimal.
	Proved bool
	// Backends holds one entry per roster name, in roster order.
	Backends []BackendResult
}

// Solve races the configured backends and returns the best schedule found
// plus per-backend telemetry. cs may be nil. The error is non-nil only
// for an unknown backend name or an infeasible Options.Initial.
//
// The calling goroutine runs worker 0 of the pool, so a one-name roster
// (the service's fast path, iddsolve -method <backend>) starts no
// goroutine of its own.
func Solve(ctx context.Context, c *model.Compiled, cs *constraint.Set, opt Options) (Result, error) {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	names := opt.Backends
	if len(names) == 0 {
		names = backend.Default(c)
	}
	if err := backend.CheckNames(names); err != nil {
		return Result{}, fmt.Errorf("portfolio: %w", err)
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	emit := func(ev ProgressEvent) {
		if opt.OnProgress != nil {
			opt.OnProgress(ev)
		}
	}

	sh := NewStore(c.N, cs)
	initial := opt.Initial
	if initial == nil {
		initial = greedy.Solve(c, cs)
	} else if err := constraint.CheckOrder(c.N, cs, initial); err != nil {
		// An infeasible seed would silently poison every backend (they
		// all start from it and prune against its objective).
		return Result{}, fmt.Errorf("portfolio: Options.Initial is not a feasible order: %w", err)
	}
	sh.Offer("seed", initial, c.Objective(initial))

	if ctx == nil {
		ctx = context.Background()
	}
	parent, cancel := context.WithCancel(ctx)
	defer cancel()
	overall := time.Now().Add(budget)

	results := make([]BackendResult, len(names))
	var queued atomic.Int64
	queued.Store(int64(len(names)))
	var proved atomic.Bool

	jobs := make(chan int, len(names))
	for j := range names {
		jobs <- j
	}
	close(jobs)

	work := func() {
		for j := range jobs {
			name := names[j]
			b, _ := backend.Lookup(name)
			exact := b.Info().Kind == backend.KindExact
			left := queued.Add(-1) + 1 // backends not yet started, incl. this one
			remaining := time.Until(overall)
			br := BackendResult{Name: name, Objective: math.Inf(1), BestPublished: math.Inf(1)}
			if remaining <= 0 || parent.Err() != nil {
				br.Skipped = true
				results[j] = br
				emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
					Objective: br.Objective, Skipped: true})
				continue
			}
			// Deadline slicing: workers run concurrently, so the
			// remaining wall budget funds `workers` seconds of solver
			// time per second; divide it fairly across the queue.
			slice := remaining
			if left > int64(workers) {
				slice = time.Duration(int64(remaining) * int64(workers) / left)
			}
			if slice < time.Millisecond {
				slice = time.Millisecond
			}
			bctx, bcancel := context.WithTimeout(parent, slice)
			// The backend contract does not promise that publish is
			// called from one goroutine, so the orchestrator guards
			// br's contribution counters with its own mutex instead
			// of relying on any backend's internals. Backends join
			// their goroutines before returning, so br is settled
			// when it is read below.
			var pubMu sync.Mutex
			publish := func(order []int, obj float64) {
				if !sh.Offer(name, order, obj) {
					return
				}
				pubMu.Lock()
				br.BestPublished = obj
				br.Improvements++
				pubMu.Unlock()
				if opt.OnProgress != nil {
					opt.OnProgress(ProgressEvent{
						Kind: ProgressImproved, Backend: name,
						Order: append([]int(nil), order...), Objective: obj,
					})
				}
			}
			req := backend.Request{
				Compiled:    c,
				Constraints: cs,
				Budget:      slice,
				StepLimit:   opt.StepLimit,
				Seed:        opt.Seed + int64(j)*0x9E3779B9,
				Initial:     initial,
				Publish:     publish,
				Incumbent:   sh.BetterThan,
				Bound:       sh.Objective,
			}
			emit(ProgressEvent{Kind: ProgressBackendStarted, Backend: name,
				Objective: sh.Objective()})
			start := time.Now()
			out := call(bctx, b, name, req)
			bcancel()
			br.Wall = time.Since(start)
			br.Objective = out.Objective
			// Only an exact backend's exhausted search is an
			// optimality certificate; whatever another kind might
			// claim is ignored.
			br.Proved = out.Proved && exact
			br.Order = out.Order
			br.Iterations = out.Iterations
			br.Counters = out.Counters
			br.Err = out.Err
			if out.Order != nil {
				publish(out.Order, out.Objective)
			}
			results[j] = br
			emit(ProgressEvent{Kind: ProgressBackendDone, Backend: name,
				Objective: br.Objective, Err: br.Err,
				Iterations: br.Iterations, Wall: br.Wall})
			if br.Proved && proved.CompareAndSwap(false, true) {
				// The incumbent is optimal; stop the other backends.
				// The CAS elects a single prover so concurrent exact
				// backends cannot double-emit the proof event.
				cancel()
				border, bobj, _ := sh.Best()
				emit(ProgressEvent{Kind: ProgressProved, Backend: name,
					Order: border, Objective: bobj})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // worker 0 runs on the caller's goroutine
	wg.Wait()

	order, obj, winner := sh.Best()
	return Result{
		Order:     order,
		Objective: obj,
		Winner:    winner,
		Proved:    proved.Load(),
		Backends:  results,
	}, nil
}

// PanicError is the Err of a backend that panicked: call recovered the
// panic and the race went on without it.
type PanicError struct {
	Backend string
	Value   any // what the backend panicked with
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("backend %s panicked: %v", e.Backend, e.Value)
}

// call is the one place a backend runs. A panic on the backend's own
// goroutine becomes the outcome's Err (a *PanicError), so the race goes
// on without that backend and a server survives it; a panic on a
// goroutine the backend started itself is beyond any caller's reach.
func call(ctx context.Context, b backend.Backend, name string, req backend.Request) (out backend.Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = backend.Outcome{Objective: math.Inf(1), Err: &PanicError{Backend: name, Value: r}}
		}
	}()
	return b.Solve(ctx, req)
}
