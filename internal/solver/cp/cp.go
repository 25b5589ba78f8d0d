// Package cp implements the constraint-programming solver of §6: a
// branch-and-prune depth-first search over deployment positions with
// alldifferent semantics, precedence propagation, position-bound pruning
// from the §5 analysis constraints, an admissible objective bound, and a
// first-fail-flavored branching order. The engine supports failure
// limits and frozen positions, which is exactly the interface Large
// Neighborhood Search needs (§7.2).
//
// The descent loop is allocation-free in steady state: candidate lists
// live in per-depth rows carved from one arena owned by the searcher,
// branching densities go through a per-index scratch table, and
// improving solutions are copied into reusable buffers. Per-solve cost
// is a fixed handful of setup allocations plus at most a dozen memo
// table doublings, regardless of tree size — pinned by
// allocation-regression tests (alloc_test.go) so a per-node allocation
// can never silently return.
//
// A subset-dominance memo (memo.go) cuts every node whose placed set was
// already reached with no larger accumulated area: the runtime and build
// costs are functions of the deployed set, so the remaining subproblem
// is the same and the cheaper prefix dominates. The cut is exact — proved
// optima, improving-solution sequences and objective bits are identical
// with it on or off — so it is always on and has no registry param
// (Options.NoMemo exists for ablation only). On the reduced TPC-H n=20
// proof it takes the serial search from 21.8M nodes to about 8k.
// Fail-limited searches skip it (see newSearcher), which keeps LNS and
// VNS step-for-step what they were.
//
// With Options.Workers > 1 the proof search runs as a work-stealing
// parallel branch-and-bound (see parallel.go): the tree is split at
// shallow depths into a frontier of subproblems spread over per-worker
// deques, every worker owns a model.Walker repositioned with Sync on
// steal and its own memo (consulted only below the split depth), and all
// workers share one atomic incumbent that both publishes to and consumes
// from the portfolio's shared store mid-proof. The result is still an
// exact optimality proof when the frontier drains.
package cp

import (
	"context"
	"math"
	"time"

	"github.com/evolving-olap/idd/internal/bitset"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// Options controls a CP search.
type Options struct {
	// FailLimit aborts the search after this many backtracks (0 = no
	// limit). LNS uses small limits (the paper uses 500); a fail-limited
	// search runs without the subset-dominance memo. With Workers > 1
	// the limit is enforced against the global fail count on a polling
	// stride, so parallel searches may overshoot it by a few hundred.
	FailLimit int64
	// NodeLimit aborts after this many search nodes (0 = no limit); the
	// same parallel overshoot caveat as FailLimit applies.
	NodeLimit int64
	// Deadline aborts when the wall clock passes it (zero = none). The
	// deadline is checked every few dozen nodes.
	Deadline time.Time
	// Context, when non-nil, aborts the search when cancelled. Every
	// worker polls it on a node-count stride (pollStride), so service-side
	// cancellation (e.g. a DELETE on a solve job) interrupts even proofs
	// that are deep in the tree within microseconds.
	Context context.Context
	// ExternalBound, when non-nil, is polled for the best objective known
	// outside this search (the portfolio's shared incumbent); subtrees
	// that cannot beat it are pruned in addition to the solver's own
	// incumbent. When the search then exhausts, Proved means "no order
	// strictly better than the tightest bound seen exists" — the external
	// incumbent is optimal even if this search never matched it. In
	// parallel mode every worker polls it, so CP consumes portfolio
	// incumbents mid-proof.
	ExternalBound func() float64
	// Incumbent, when non-nil, seeds the search with a known feasible
	// order; only strictly better solutions are reported.
	Incumbent []int
	// Fixed, when non-nil, freezes positions: Fixed[k] = index that must
	// be deployed k-th, or -1 if position k is free. Frozen positions
	// implement LNS relaxations.
	Fixed []int
	// OnSolution, when non-nil, is invoked for every improving solution.
	// The order slice is a reusable buffer valid only for the duration of
	// the call — copy it to retain it (the portfolio store and the
	// service both copy internally). With Workers > 1 it may be invoked
	// from any worker goroutine; calls are serialized under the incumbent
	// lock, so objectives still arrive strictly decreasing.
	OnSolution func(order []int, objective float64)

	// TailBound, when non-nil, folds the §5.5 tail analysis into the
	// in-search lower bound: at nodes within TailBound.MaxLen() steps of
	// the leaves the exact minimal completion cost of the remaining set
	// is looked up and the node is pruned when even that cannot beat the
	// incumbent. Sound for any search (lookup misses never prune); the
	// proved optimum is unchanged, only the tree shrinks. The registry
	// param "cp.tail_bound" builds one per request (default on); direct
	// callers construct it with prune.NewTailBound.
	TailBound *prune.TailBound

	// Workers sets the number of branch-and-bound worker goroutines
	// (0 or 1 = single-threaded). The single-threaded search is fully
	// deterministic — identical instances yield identical node/fail
	// counts and solution sequences. Parallel searches prove the same
	// optimum but their effort counters depend on steal timing.
	Workers int
	// SplitDepth bounds the tree depth below which nodes donate their
	// sibling branches to the shared frontier instead of exploring them
	// in-line (0 = auto-sized from N and Workers). Deeper splits make
	// more, smaller subproblems.
	SplitDepth int
	// Seed derives each worker's private steal-victim RNG. Two parallel
	// runs with the same seed still differ in scheduling; the seed only
	// makes victim choice reproducible given identical schedules.
	Seed int64

	// Exporter, when non-nil, is called once as a parallel search starts,
	// handing the distributed-solve coordinator an ExportHandle that can
	// donate frontier subproblems to other nodes (see export.go); the
	// returned release func is called when the search ends. Ignored by
	// the serial engine — it has no frontier to export.
	Exporter func(h *ExportHandle) (release func())
	// RootPrefix, when non-empty, roots the search at the subtree below
	// this deployment prefix instead of the whole tree. Set via
	// SolveSubtree (the adoption end of distributed stealing); direct
	// callers should leave it nil.
	RootPrefix []int

	// Ablation switches (benchmarks only; keep all false in real use):
	// NaiveBranching disables the density-guided value ordering, NoBound
	// disables the admissible objective bound (including the tail bound
	// and the memo), leaving only the combinatorial
	// (alldifferent/precedence) pruning, and NoMemo disables the
	// subset-dominance memo (memo.go) alone.
	NaiveBranching bool
	NoBound        bool
	NoMemo         bool
}

// Result reports the outcome of a CP search.
type Result struct {
	// Order is the best solution found (nil if none and no incumbent).
	Order []int
	// Objective is the objective of Order (+Inf if none).
	Objective float64
	// Proved is true when the search space was exhausted, i.e. Order is
	// proved optimal (under the frozen positions, if any).
	Proved bool
	// Nodes and Fails count search effort, summed over all workers.
	Nodes, Fails int64
	// Solutions counts improving solutions found during this search.
	Solutions int
	// Workers reports how many workers actually ran (1 for the serial
	// engine).
	Workers int
	// Stats breaks the search effort down by cause.
	Stats Stats
}

// Stats is the per-solve effort breakdown. Counters are accumulated as
// plain ints in per-worker scratch (no atomics, no allocations on the
// descent path) and merged once per solve, so instrumentation is free
// at node granularity. Invariant: PrunedBound + PrunedTail + PrunedMemo
// + Infeasible == Result.Fails — every dead end has exactly one recorded
// cause.
type Stats struct {
	// PrunedBound counts nodes cut because even the most optimistic
	// completion could not beat the incumbent objective.
	PrunedBound int64
	// PrunedTail counts nodes cut by the exact tail-completion bound
	// (prune.TailBound) near the leaves.
	PrunedTail int64
	// PrunedMemo counts nodes cut by the subset-dominance memo: the same
	// placed set was already reached with no larger accumulated area.
	PrunedMemo int64
	// Infeasible counts dead ends with no feasible candidate: a missed
	// position window, a double-booked last slot, or an empty ready set.
	Infeasible int64
	// Offers counts improving solutions offered to the (shared)
	// incumbent; Accepts counts the offers that won. They differ only in
	// parallel mode, where a concurrent better offer can race ahead.
	Offers, Accepts int64
	// StealAttempts counts probes of victim deques by out-of-work
	// workers; Steals counts the probes that returned a subproblem.
	StealAttempts, Steals int64
	// MaxDeque is the high-water mark of any single worker deque (0 for
	// the serial engine): how bushy the donated frontier got.
	MaxDeque int64
}

// Counters renders the result's effort breakdown as the flat named map
// the backend registry reports (see backend.Outcome.Counters). Built
// once per solve, after the search — never on the descent path.
func (r Result) Counters() map[string]int64 {
	return map[string]int64{
		"nodes":            r.Nodes,
		"fails":            r.Fails,
		"solutions":        int64(r.Solutions),
		"pruned_incumbent": r.Stats.PrunedBound,
		"pruned_tail":      r.Stats.PrunedTail,
		"pruned_memo":      r.Stats.PrunedMemo,
		"infeasible":       r.Stats.Infeasible,
		"offers":           r.Stats.Offers,
		"accepts":          r.Stats.Accepts,
		"steal_attempts":   r.Stats.StealAttempts,
		"steals":           r.Stats.Steals,
		"max_deque_depth":  r.Stats.MaxDeque,
	}
}

// add folds o into s (used when merging per-worker scratch).
func (s *Stats) add(o *Stats) {
	s.PrunedBound += o.PrunedBound
	s.PrunedTail += o.PrunedTail
	s.PrunedMemo += o.PrunedMemo
	s.Infeasible += o.Infeasible
	s.Offers += o.Offers
	s.Accepts += o.Accepts
	s.StealAttempts += o.StealAttempts
	s.Steals += o.Steals
	if o.MaxDeque > s.MaxDeque {
		s.MaxDeque = o.MaxDeque
	}
}

// pollStride is how many nodes a worker expands between checks of the
// deadline, the context, and (parallel mode) the global abort flag and
// shared effort counters. At the engine's node rates (µs/node) this
// bounds cancellation latency to well under a millisecond.
const pollStride = 64

type searcher struct {
	c   *model.Compiled
	cs  *constraint.Set
	opt Options
	lb  *bruteforce.LowerBound

	w      *model.Walker
	placed []bool
	// order[0:k] is the current prefix (order[j] = index placed j-th);
	// maintained by dfs so frontier splits can capture prefixes cheaply.
	order []int
	// predsLeft[i] = number of not-yet-placed predecessors of i.
	predsLeft []int
	// maxPos/minPos from the constraint relation (static).
	minPos, maxPos []int

	// fixedPos[i] = position index i is pinned to by Options.Fixed, or -1.
	fixedPos []int

	// candRows[k] is the reusable candidate row for depth k, carved from
	// one flat arena (row k holds at most n-k candidates, so the arena is
	// n(n+1)/2 ints total). dfs at depth k owns row k exclusively while
	// its loop runs; recursion only ever touches deeper rows, so no row
	// is reused while a caller still iterates it.
	candRows [][]int
	// dens[i] is the branching density of candidate index i at the node
	// currently being expanded (scratch for the candidate sort).
	dens []float64
	// tailScratch collects the remaining indexes for tail-bound lookups
	// near the leaves (at most prune.TailBound.MaxLen() entries).
	tailScratch []int
	// memo is the subset-dominance table (nil when disabled), consulted
	// at depths >= memoFrom. Below depth 2 every prefix places a
	// distinct set. In parallel mode the table is private to the worker
	// and memoFrom is at least splitDepth, where nothing is donated, so
	// every recorded subtree was explored in full by this worker.
	memo     *memo
	memoFrom int

	// best/cbBuf are reusable solution buffers: best holds the improving
	// incumbent (monotone, so in-place overwrite is safe), cbBuf is what
	// OnSolution borrows for the duration of each callback.
	best      []int
	cbBuf     []int
	bestObj   float64
	nodes     int64
	fails     int64
	solutions int
	// st is this worker's private effort breakdown: plain ints bumped on
	// the descent path (same cost model as nodes/fails) and merged into
	// the solve-wide Stats exactly once, so the alloc/atomic budget of
	// the hot loop is untouched by instrumentation.
	st      Stats
	aborted bool
	poll    int // countdown to the next deadline/context poll

	// Parallel-mode hookup (nil for the serial engine): the shared run
	// state, this worker's id, high-water marks of the effort already
	// flushed into the run's global counters, the worker's subproblem
	// frame free list, and the scratch bitset adopt() rebuilds
	// precedence readiness from.
	par          *parRun
	wid          int
	flushedNodes int64
	flushedFails int64
	freeFrames   []*subproblem
	adoptSet     bitset.Set
}

// newSearcher builds one worker's search state; the memo is consulted no
// shallower than memoFrom (the split depth in parallel mode, else 0).
// Fail-limited searches (LNS relaxations) run without the memo: their
// fail budget, not exhaustion, ends them, so there it would change what
// the budget buys — and how VNS adapts — instead of only how fast a
// proof completes.
func newSearcher(c *model.Compiled, cs *constraint.Set, opt Options, memoFrom int) *searcher {
	n := c.N
	s := &searcher{
		c:         c,
		cs:        cs,
		opt:       opt,
		lb:        bruteforce.NewLowerBound(c),
		w:         model.NewWalker(c),
		placed:    make([]bool, n),
		order:     make([]int, n),
		predsLeft: make([]int, n),
		minPos:    make([]int, n),
		maxPos:    make([]int, n),
		dens:      make([]float64, n),
		bestObj:   math.Inf(1),
		poll:      pollStride,
	}
	if s.memoFrom = max(2, memoFrom); !opt.NoMemo && !opt.NoBound && opt.FailLimit == 0 && s.memoFrom < n {
		s.memo = newMemo(n)
	}
	if ml := opt.TailBound.MaxLen(); ml > 0 {
		s.tailScratch = make([]int, 0, ml)
	}
	// One flat arena backs every per-depth candidate row.
	s.candRows = make([][]int, n)
	flat := make([]int, n*(n+1)/2)
	off := 0
	for k := 0; k < n; k++ {
		s.candRows[k] = flat[off : off : off+(n-k)]
		off += n - k
	}
	for i := 0; i < n; i++ {
		s.predsLeft[i] = cs.Predecessors(i).Count()
		s.minPos[i] = cs.MinPos(i)
		s.maxPos[i] = cs.MaxPos(i)
	}
	s.fixedPos = make([]int, n)
	for i := range s.fixedPos {
		s.fixedPos[i] = -1
	}
	if opt.Fixed != nil {
		for p, i := range opt.Fixed {
			if i >= 0 {
				s.fixedPos[i] = p
			}
		}
	}
	return s
}

// Solve runs the CP search. cs may be nil (no precedence/analysis
// constraints). Passing contradictory Fixed assignments yields an
// exhausted search with no solution (Proved=true, Order=Incumbent).
func Solve(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	if opt.Workers > 1 && c.N > 1 {
		return solveParallel(c, cs, opt)
	}
	s := newSearcher(c, cs, opt, 0)
	if opt.Incumbent != nil {
		s.best = append(s.best, opt.Incumbent...)
		s.bestObj = c.Objective(opt.Incumbent)
	}
	s.dfs(0)
	return Result{
		Order:     s.best,
		Objective: s.bestObj,
		Proved:    !s.aborted,
		Nodes:     s.nodes,
		Fails:     s.fails,
		Solutions: s.solutions,
		Workers:   1,
		Stats:     s.st,
	}
}

// limitHit checks abort conditions; it is cheap enough to call per node.
// Step limits are exact; the clock and the context are polled every
// pollStride nodes through a plain countdown, so cancellation latency no
// longer depends on how the node counter happens to align (the old
// modulo check) or how deep in the tree the search currently is.
func (s *searcher) limitHit() bool {
	if s.par != nil {
		return s.parLimitHit()
	}
	if s.opt.FailLimit > 0 && s.fails >= s.opt.FailLimit {
		return true
	}
	if s.opt.NodeLimit > 0 && s.nodes >= s.opt.NodeLimit {
		return true
	}
	if s.poll--; s.poll > 0 {
		return false
	}
	s.poll = pollStride
	if !s.opt.Deadline.IsZero() && time.Now().After(s.opt.Deadline) {
		return true
	}
	if s.opt.Context != nil {
		select {
		case <-s.opt.Context.Done():
			return true
		default:
		}
	}
	return false
}

// dfs extends the schedule at position k. Returns false when the search
// must abort entirely.
func (s *searcher) dfs(k int) bool {
	s.nodes++
	if s.limitHit() {
		s.aborted = true
		return false
	}
	n := s.c.N
	if k == n {
		obj := s.w.Objective()
		if s.opt.ExternalBound != nil && obj >= s.opt.ExternalBound()-1e-12 {
			return true // ties or trails the portfolio's incumbent
		}
		if s.par != nil {
			// The snapshot check mirrors offer's own fast path, so gating
			// here changes nothing except that Offers counts only genuine
			// improvement attempts, not every completed leaf.
			if obj < s.par.inc.objective()-1e-12 {
				s.st.Offers++
				if s.par.inc.offer(s.order, obj) {
					s.solutions++
					s.st.Accepts++
				}
			}
			return true
		}
		if obj < s.bestObj-1e-12 {
			s.bestObj = obj
			s.best = append(s.best[:0], s.order[:n]...)
			s.solutions++
			s.st.Offers++
			s.st.Accepts++
			if s.opt.OnSolution != nil {
				s.cbBuf = append(s.cbBuf[:0], s.best...)
				s.opt.OnSolution(s.cbBuf, obj)
			}
		}
		return true
	}

	// Subset dominance: this placed set was already reached at no larger
	// area, and its subtree explored. Checked before the O(n) bound scan.
	if s.memo != nil && k >= s.memoFrom && s.memo.dominated(s.w.BuiltSet().Words(), s.w.Objective()) {
		s.fails++
		s.st.PrunedMemo++
		return true
	}

	// Objective bound (branch-and-prune): even the most optimistic
	// completion cannot beat the incumbent — the solver's own or, in
	// portfolio mode, the best any backend has published so far.
	ub := s.bestObj
	if s.par != nil {
		if g := s.par.inc.objective(); g < ub {
			ub = g
		}
	}
	if s.opt.ExternalBound != nil {
		if e := s.opt.ExternalBound(); e < ub {
			ub = e
		}
	}
	if !s.opt.NoBound && !math.IsInf(ub, 1) {
		if s.boundBelow() >= ub-1e-12 {
			s.fails++
			s.st.PrunedBound++
			return true
		}
		if s.tailPruned(k, ub) {
			s.fails++
			s.st.PrunedTail++
			return true
		}
	}

	cands := s.candidates(k)
	if cands == nil {
		s.fails++
		s.st.Infeasible++
		return true
	}
	if s.par != nil && k < s.par.splitDepth && len(cands) > 1 {
		// Frontier split: keep the most promising branch for this worker
		// and donate the siblings to the shared deque pool.
		s.par.spawn(s, k, cands[1:])
		cands = cands[:1]
	}
	for _, i := range cands {
		s.order[k] = i
		s.place(i)
		ok := s.dfs(k + 1)
		s.unplace(i)
		if !ok {
			return false
		}
	}
	return true
}

// boundBelow returns an admissible lower bound for any completion:
// the first remaining step pays at least the cheapest remaining
// best-case cost at the current runtime; every other remaining step is
// bounded by the fully-deployed runtime. The bound sums its terms in
// another order than a leaf's objective does, so near a tight leaf
// rounding can put it an ulp above that leaf; it is deflated by the
// same 1e-9 relative margin as the tail tables (prune.TailBound) so a
// prune never discards an order that is better by a few ulps.
func (s *searcher) boundBelow() float64 {
	var restSum, restMin float64
	restMin = math.Inf(1)
	for i := 0; i < s.c.N; i++ {
		if !s.placed[i] {
			mc := s.lb.MinCost(i)
			restSum += mc
			if mc < restMin {
				restMin = mc
			}
		}
	}
	if math.IsInf(restMin, 1) {
		return s.w.Objective()
	}
	rmin := s.lb.MinRuntime()
	b := s.w.Objective() + s.w.Runtime()*restMin + rmin*(restSum-restMin)
	return b - 1e-9*(math.Abs(b)+1)
}

// tailPruned applies the in-search tail bound at nodes within
// TailBound.MaxLen() steps of the leaves: the exact minimal area of any
// feasible completion of the remaining set is looked up and the node
// fails when even that cannot strictly beat ub. Lookup misses never
// prune, so the check is sound regardless of the table's coverage.
func (s *searcher) tailPruned(k int, ub float64) bool {
	tb := s.opt.TailBound
	m := s.c.N - k
	if m > tb.MaxLen() { // MaxLen is 0 when tb is nil
		return false
	}
	rem := s.tailScratch[:0]
	for i := 0; i < s.c.N; i++ {
		if !s.placed[i] {
			rem = append(rem, i)
		}
	}
	t, ok := tb.Lookup(rem)
	return ok && s.w.Objective()+t >= ub-1e-12
}

// candidates returns the branching order for position k, or nil when the
// node is a dead end. The returned slice is the searcher's reusable row
// for depth k — valid until the next candidates(k) call at the same
// depth, which cannot happen while the caller's loop is still running.
// First-fail flavor: an index whose latest feasible position is k is
// forced (two such indexes = failure); otherwise candidates are the
// ready indexes ordered by current density, which steers the search
// toward good incumbents early.
func (s *searcher) candidates(k int) []int {
	n := s.c.N
	row := s.candRows[k][:0]
	if s.opt.Fixed != nil && s.opt.Fixed[k] >= 0 {
		i := s.opt.Fixed[k]
		if s.placed[i] || s.predsLeft[i] > 0 || s.minPos[i] > k || s.maxPos[i] < k {
			return nil
		}
		return append(row, i)
	}
	forced := -1
	for i := 0; i < n; i++ {
		if s.placed[i] {
			continue
		}
		if s.maxPos[i] < k {
			return nil // missed its window: contradiction
		}
		if s.maxPos[i] == k {
			if forced >= 0 {
				return nil // two indexes need the same last slot
			}
			forced = i
		}
	}
	if forced >= 0 {
		if s.predsLeft[forced] > 0 || s.minPos[forced] > k {
			return nil
		}
		return append(row, forced)
	}

	for i := 0; i < n; i++ {
		if s.placed[i] || s.predsLeft[i] > 0 || s.minPos[i] > k {
			continue
		}
		// Frozen-position feasibility: if the index is pinned to another
		// position, it cannot be placed here.
		if s.fixedPos[i] >= 0 && s.fixedPos[i] != k {
			continue
		}
		if s.opt.NaiveBranching {
			s.dens[i] = 0
		} else {
			s.dens[i] = s.w.SpeedupIfBuilt(i) / s.w.BuildCost(i)
		}
		row = append(row, i)
	}
	if len(row) == 0 {
		return nil
	}
	// Insertion sort by density desc, id asc — candidate lists are short.
	// With NaiveBranching all densities are zero and id order remains.
	for a := 1; a < len(row); a++ {
		for b := a; b > 0 && s.better(row[b], row[b-1]); b-- {
			row[b], row[b-1] = row[b-1], row[b]
		}
	}
	return row
}

// better orders candidate indexes by the density recorded in s.dens
// (descending), ties by id (ascending).
func (s *searcher) better(a, b int) bool {
	if s.dens[a] != s.dens[b] {
		return s.dens[a] > s.dens[b]
	}
	return a < b
}

func (s *searcher) place(i int) {
	s.placed[i] = true
	s.w.Push(i)
	s.cs.Successors(i).ForEach(func(j int) bool {
		s.predsLeft[j]--
		return true
	})
}

func (s *searcher) unplace(i int) {
	s.cs.Successors(i).ForEach(func(j int) bool {
		s.predsLeft[j]++
		return true
	})
	s.w.Pop()
	s.placed[i] = false
}
