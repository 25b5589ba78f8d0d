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
// with it on or off — so it is always on (Options.NoMemo exists for
// ablation only). On the reduced TPC-H n=20 proof it takes the serial
// search from 21.8M nodes to about 8k.
// Fail-limited searches skip it (see Searcher.Solve), which keeps LNS
// and VNS step-for-step what they were; they use the set-value cache
// instead.
//
// A node pays for what changed at it, not for n. The unplaced indexes
// are kept on a doubly linked list in ascending order (Knuth's dancing
// links): placing an index unlinks it and unplacing relinks it in O(1),
// and the bound, the candidate scan and the tail lookup walk only that
// list, in the same index order a scan of all n indexes would visit, so
// every float sum is unchanged. The walker underneath moves only the
// plan watches of the placed index (model.Walker). The search state
// itself (a Searcher) is built once per instance and constraint set and
// reused: LNS and VNS solve every relaxation of a run on one Searcher,
// and Solve builds one and solves once.
//
// The walker is walked lazily. The Searcher keeps a node's area (the
// objective of its prefix) on its own per-depth stack, from the same
// operands Walker.Push accumulates, and the runtime of every prefix the
// walker has walked since that prefix last changed. The walker is moved
// only when a node needs a value no stack holds — the runtime of a
// prefix not walked yet, or SpeedupIfBuilt for the branching order —
// and then only over the positions that changed. A memo-cut node or a
// leaf needs no walker at all, and the frozen prefix that consecutive
// relaxations share is not replayed.
//
// A fail-limited search also keeps a set-value cache (cache.go): the
// runtime, the bound's sums, the tail lookup and the branching order of
// every placed set it expands. A node whose set was already expanded in
// the same search costs a table lookup and the comparisons against the
// current bound. Neither the lazy walker nor the cache can change a
// count: every value either one supplies is a function of the placed set
// that the walker would recompute bit for bit, and every decision — the
// limits, the bound and tail comparisons, the leaf test — is still taken
// at every node against the search's current incumbent.
//
// The search is serial and deterministic: identical inputs yield
// identical node and fail counts and the same improving-solution
// sequence.
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
	// search runs without the subset-dominance memo and with the
	// set-value cache.
	FailLimit int64
	// NodeLimit aborts after this many search nodes (0 = no limit).
	NodeLimit int64
	// Deadline aborts when the wall clock passes it (zero = none). The
	// deadline is checked every few dozen nodes.
	Deadline time.Time
	// Context, when non-nil, aborts the search when cancelled. The
	// search polls it on a node-count stride (pollStride), so service-side
	// cancellation (e.g. a DELETE on a solve job) interrupts even proofs
	// that are deep in the tree within microseconds.
	Context context.Context
	// ExternalBound, when non-nil, is polled for the best objective known
	// outside this search (the portfolio's shared incumbent); subtrees
	// that cannot beat it are pruned in addition to the solver's own
	// incumbent. When the search then exhausts, Proved means "no order
	// strictly better than the tightest bound seen exists" — the external
	// incumbent is optimal even if this search never matched it. It is
	// polled at every node, so CP consumes portfolio incumbents
	// mid-proof.
	ExternalBound func() float64
	// Incumbent, when non-nil, seeds the search with a known feasible
	// order; only strictly better solutions are reported.
	Incumbent []int
	// IncumbentObjective, when non-zero, is Incumbent's objective bit for
	// bit as Compiled.Objective computes it, which spares the search a
	// replay of the order. Zero means unknown. Every node is pruned
	// against this value, so a caller that holds the objective only
	// approximately, or from another evaluator, must leave it zero.
	IncumbentObjective float64
	// Fixed, when non-nil, freezes positions: Fixed[k] = index that must
	// be deployed k-th, or -1 if position k is free. Frozen positions
	// implement LNS relaxations.
	Fixed []int
	// OnSolution, when non-nil, is invoked for every improving solution.
	// The order slice is a reusable buffer valid only for the duration of
	// the call — copy it to retain it (the portfolio store and the
	// service both copy internally). Objectives arrive strictly
	// decreasing.
	OnSolution func(order []int, objective float64)

	// TailBound, when non-nil, folds the §5.5 tail analysis into the
	// in-search lower bound: at nodes within TailBound.MaxLen() steps of
	// the leaves the exact minimal completion cost of the remaining set
	// is looked up and the node is pruned when even that cannot beat the
	// incumbent. Sound for any search (lookup misses never prune); the
	// proved optimum is unchanged, only the tree shrinks. The registry
	// backend always builds one; direct callers construct it with
	// prune.NewTailBound, or leave it nil to search without it.
	TailBound *prune.TailBound

	// Workers is ignored: the search always runs on the calling
	// goroutine.
	//
	// Deprecated: it configured the work-stealing parallel engine,
	// which is gone. It stays only because the benchmark module
	// (perfbench) still sets it.
	Workers int

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
	// Nodes and Fails count search effort.
	Nodes, Fails int64
	// Solutions counts improving solutions found during this search.
	Solutions int
	// Stats breaks the search effort down by cause.
	Stats Stats
}

// Stats is the per-solve effort breakdown. Counters are plain ints
// bumped on the descent path (no atomics, no allocations), so
// instrumentation is free at node granularity. Invariant: PrunedBound +
// PrunedTail + PrunedMemo + Infeasible == Result.Fails — every dead end
// has exactly one recorded cause.
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
	// Offers counts improving solutions offered to the incumbent;
	// Accepts counts the offers that won. The serial search offers only
	// what already beats its incumbent, so the two are equal.
	Offers, Accepts int64
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
	}
}

// pollStride is how many nodes the search expands between checks of
// the deadline and the context. At the engine's node rates (µs/node)
// this bounds cancellation latency to well under a millisecond.
const pollStride = 64

// Searcher is the CP search state for one compiled instance and
// constraint set: the walker, the lower-bound tables, the unplaced-index
// links, the per-depth candidate arena and the set-value cache. Solve
// runs one search on it and leaves it ready for the next, so a caller
// that searches the same instance many times (LNS and VNS, once per
// relaxation) builds it once. A Searcher is not safe for concurrent use.
type Searcher struct {
	c   *model.Compiled
	opt Options
	lb  *bruteforce.LowerBound

	// w is walked lazily (see the package comment): its steps hold
	// order[:walked] — a longer walk's later steps are stale — and
	// run[j] holds the runtime after order[:j] for every j <= known.
	// Writing another index into order[j] lowers both to at most j.
	w      *model.Walker
	walked int
	known  int
	run    []float64
	// area[k] is the objective of the prefix order[:k] of the current
	// path: area[k+1] = area[k] + run·BuildCost, Walker.Push's operands.
	area []float64
	// pushes counts walker pushes over the Searcher's lifetime.
	pushes int64

	placed []bool
	// set holds the placed indexes as a bitset: the memo and cache key.
	set bitset.Set
	// next/prev link the unplaced indexes in ascending order through the
	// head sentinel n: next[n] is the smallest unplaced index, and an
	// empty list has next[n] == n. place unlinks, unplace relinks; the
	// search places and unplaces in LIFO order, so a relinked index's
	// neighbours are the ones it was unlinked from.
	next, prev []int
	// order[0:k] is the current prefix (order[j] = index placed j-th).
	order []int
	// predsLeft[i] = number of not-yet-placed predecessors of i.
	predsLeft []int
	// succ[i] lists i's successors in ascending order (static): place
	// and unplace move their predsLeft.
	succ [][]int
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
	// at depths >= memoFrom.
	memo *memo
	// cache is the set-value cache of fail-limited searches, built on
	// first use and kept; it is consulted at depths >= cacheFrom, past
	// which a placed set can be reached again (n+1 when not in use).
	cache     *setCache
	cacheFrom int
	// scratch holds the values of a node that is not cached.
	scratch [valueWords]uint64

	// best/cbBuf are reusable solution buffers: best holds the improving
	// incumbent (monotone, so in-place overwrite is safe), cbBuf is what
	// OnSolution borrows for the duration of each callback.
	best      []int
	cbBuf     []int
	bestObj   float64
	nodes     int64
	fails     int64
	solutions int
	// st is the effort breakdown: plain ints bumped on the descent path
	// (same cost model as nodes/fails), so the alloc budget of the hot
	// loop is untouched by instrumentation.
	st      Stats
	aborted bool
	poll    int // countdown to the next deadline/context poll
}

// memoFrom is the shallowest depth the memo is consulted at: below
// depth 2 every prefix places a distinct set.
const memoFrom = 2

// revisitFrom returns the shallowest depth at which two prefixes under
// the frozen positions fixed can place the same set: one past the second
// free position (memoFrom when nothing is frozen). Above it, the
// frozen indexes and at most one free one determine the prefix from its
// set; n when fewer than two positions are free.
func revisitFrom(fixed []int, n int) int {
	if fixed == nil {
		return memoFrom
	}
	free := 0
	for k, i := range fixed[:min(len(fixed), n)] {
		if i < 0 {
			if free++; free == 2 {
				return k + 1
			}
		}
	}
	return n
}

// NewSearcher builds the search state for c under cs, which may be nil
// (no precedence/analysis constraints).
func NewSearcher(c *model.Compiled, cs *constraint.Set) *Searcher {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	n := c.N
	s := &Searcher{
		c:         c,
		lb:        bruteforce.NewLowerBound(c),
		w:         model.NewWalker(c),
		run:       make([]float64, n+1),
		area:      make([]float64, n+1),
		placed:    make([]bool, n),
		set:       bitset.New(n),
		next:      make([]int, n+1),
		prev:      make([]int, n+1),
		order:     make([]int, n),
		predsLeft: make([]int, n),
		succ:      make([][]int, n),
		minPos:    make([]int, n),
		maxPos:    make([]int, n),
		fixedPos:  make([]int, n),
		dens:      make([]float64, n),
	}
	s.run[0] = s.w.Runtime()
	for i := 0; i <= n; i++ {
		s.next[i] = (i + 1) % (n + 1)
		s.prev[(i+1)%(n+1)] = i
	}
	// One flat arena backs every per-depth candidate row.
	s.candRows = make([][]int, n)
	flat := make([]int, n*(n+1)/2)
	off := 0
	for k := 0; k < n; k++ {
		s.candRows[k] = flat[off : off : off+(n-k)]
		off += n - k
	}
	edges := 0
	for i := 0; i < n; i++ {
		s.predsLeft[i] = cs.Predecessors(i).Count()
		s.minPos[i] = cs.MinPos(i)
		s.maxPos[i] = cs.MaxPos(i)
		edges += s.predsLeft[i]
	}
	// One flat arena backs every successor list too.
	succs := make([]int, 0, edges)
	for i := 0; i < n; i++ {
		from := len(succs)
		cs.Successors(i).ForEach(func(j int) bool {
			succs = append(succs, j)
			return true
		})
		s.succ[i] = succs[from:len(succs):len(succs)]
	}
	return s
}

// Solve runs the CP search on a fresh Searcher. cs may be nil (no
// precedence/analysis constraints). Passing contradictory Fixed
// assignments yields an exhausted search with no solution (Proved=true,
// Order=Incumbent).
func Solve(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	return NewSearcher(c, cs).Solve(opt)
}

// Solve runs one CP search under opt. What carries over from an earlier
// search — the walker's position and the runtimes of the prefixes it
// walked — is a function of the prefix alone, so a reused Searcher
// returns exactly what a fresh one would.
// Fail-limited searches (LNS relaxations) run without the memo: their
// fail budget, not exhaustion, ends them, so there it would change what
// the budget buys — and how VNS adapts — instead of only how fast a
// proof completes. They use the emptied set-value cache instead. Any
// other search gets a fresh memo.
func (s *Searcher) Solve(opt Options) Result {
	n := s.c.N
	s.opt = opt
	s.memo = nil
	if !opt.NoMemo && !opt.NoBound && opt.FailLimit == 0 && memoFrom < n {
		s.memo = newMemo(n)
	}
	s.cacheFrom = n + 1
	if opt.FailLimit > 0 {
		if s.cacheFrom = revisitFrom(opt.Fixed, n); s.cacheFrom < n {
			if s.cache == nil {
				s.cache = newSetCache(n)
			}
			s.cache.reset()
		}
	}
	if ml := opt.TailBound.MaxLen(); ml > cap(s.tailScratch) {
		s.tailScratch = make([]int, 0, ml)
	}
	for i := range s.fixedPos {
		s.fixedPos[i] = -1
	}
	for p, i := range opt.Fixed {
		if i >= 0 {
			s.fixedPos[i] = p
		}
	}
	s.best = s.best[:0]
	s.bestObj = math.Inf(1)
	if opt.Incumbent != nil {
		s.best = append(s.best, opt.Incumbent...)
		s.bestObj = opt.IncumbentObjective
		if s.bestObj == 0 {
			s.bestObj = s.c.Objective(opt.Incumbent)
		}
	}
	s.nodes, s.fails, s.solutions, s.st = 0, 0, 0, Stats{}
	s.aborted = false
	s.poll = pollStride
	s.dfs(0)
	var order []int
	if len(s.best) > 0 {
		order = append(order, s.best...) // s.best is reused by the next search
	}
	return Result{
		Order:     order,
		Objective: s.bestObj,
		Proved:    !s.aborted,
		Nodes:     s.nodes,
		Fails:     s.fails,
		Solutions: s.solutions,
		Stats:     s.st,
	}
}

// limitHit checks abort conditions; it is cheap enough to call per node.
// Step limits are exact; the clock and the context are polled every
// pollStride nodes through a plain countdown, so cancellation latency no
// longer depends on how the node counter happens to align (the old
// modulo check) or how deep in the tree the search currently is.
func (s *Searcher) limitHit() bool {
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
func (s *Searcher) dfs(k int) bool {
	s.nodes++
	if s.limitHit() {
		s.aborted = true
		return false
	}
	n := s.c.N
	area := s.area[k]
	if k == n {
		obj := area
		if s.opt.ExternalBound != nil && obj >= s.opt.ExternalBound()-1e-12 {
			return true // ties or trails the portfolio's incumbent
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
	if s.memo != nil && k >= memoFrom && s.memo.dominated(s.set.Words(), area) {
		s.fails++
		s.st.PrunedMemo++
		return true
	}

	v, kept := s.values(k)
	// Objective bound (branch-and-prune): even the most optimistic
	// completion cannot beat the incumbent — the solver's own or, in
	// portfolio mode, the best any backend has published so far.
	ub := s.bestObj
	if s.opt.ExternalBound != nil {
		if e := s.opt.ExternalBound(); e < ub {
			ub = e
		}
	}
	if !s.opt.NoBound && !math.IsInf(ub, 1) {
		if s.boundBelow(v, area) >= ub-1e-12 {
			s.fails++
			s.st.PrunedBound++
			return true
		}
		if s.tailPruned(k, v, area, ub) {
			s.fails++
			s.st.PrunedTail++
			return true
		}
	}

	cands := s.candidates(k, v, kept)
	if cands == nil {
		s.fails++
		s.st.Infeasible++
		return true
	}
	// v may move or be overwritten below this node: read it first.
	r := math.Float64frombits(v[vRun])
	for _, i := range cands {
		s.area[k+1] = area + float64(r*s.c.BuildCost(i, s.placed))
		if s.order[k] != i {
			s.order[k] = i
			s.walked = min(s.walked, k)
			s.known = min(s.known, k)
		}
		s.place(i)
		ok := s.dfs(k + 1)
		s.unplace(i)
		if !ok {
			return false
		}
	}
	return true
}

// values returns the set-dependent values of the node at depth k with
// its runtime filled in, and whether they are kept: the set's cache
// entry in a cached search (filled on the set's first visit), else the
// scratch, which the next node overwrites.
func (s *Searcher) values(k int) ([]uint64, bool) {
	if k >= s.cacheFrom {
		v, found := s.cache.entry(s.set.Words())
		if found {
			return v, true
		}
		if v != nil {
			v[vRun] = math.Float64bits(s.runtimeAt(k))
			return v, true
		}
	}
	v := s.scratch[:]
	v[vStamp] = 0
	v[vRun] = math.Float64bits(s.runtimeAt(k))
	return v, false
}

// runtimeAt returns the runtime after the prefix order[:k], walking the
// walker forward only when the prefix was not walked since it last
// changed.
func (s *Searcher) runtimeAt(k int) float64 {
	if k > s.known {
		s.walkTo(k)
	}
	return s.run[k]
}

// walkTo moves the walker onto the prefix order[:k]: it pops the steps
// past the part of its walk that is still current and pushes the rest,
// recording each prefix's runtime.
func (s *Searcher) walkTo(k int) {
	keep := min(s.walked, k)
	for s.w.Len() > keep {
		s.w.Pop()
	}
	for j := keep; j < k; j++ {
		s.w.Push(s.order[j])
		s.run[j+1] = s.w.Runtime()
	}
	s.pushes += int64(k - keep)
	s.walked = k
	s.known = max(s.known, k)
}

// boundBelow returns an admissible lower bound for any completion of
// the node whose area and values are given: the first remaining step
// pays at least the cheapest remaining best-case cost at the current
// runtime; every other remaining step is bounded by the fully-deployed
// runtime. The bound sums its terms in another order than a leaf's
// objective does, so near a tight leaf rounding can put it an ulp above
// that leaf; it is deflated by the same 1e-9 relative margin as the tail
// tables (prune.TailBound) so a prune never discards an order that is
// better by a few ulps.
func (s *Searcher) boundBelow(v []uint64, area float64) float64 {
	if v[vStamp]&hasRest == 0 {
		var restSum float64
		restMin := math.Inf(1)
		n := s.c.N
		for i := s.next[n]; i != n; i = s.next[i] {
			mc := s.lb.MinCost(i)
			restSum += mc
			if mc < restMin {
				restMin = mc
			}
		}
		v[vRestSum], v[vRestMin] = math.Float64bits(restSum), math.Float64bits(restMin)
		v[vStamp] |= hasRest
	}
	restSum, restMin := math.Float64frombits(v[vRestSum]), math.Float64frombits(v[vRestMin])
	if math.IsInf(restMin, 1) {
		return area
	}
	rmin := s.lb.MinRuntime()
	b := area + math.Float64frombits(v[vRun])*restMin + rmin*(restSum-restMin)
	return b - 1e-9*(math.Abs(b)+1)
}

// tailPruned applies the in-search tail bound at nodes within
// TailBound.MaxLen() steps of the leaves: the exact minimal area of any
// feasible completion of the remaining set is looked up and the node
// fails when even that cannot strictly beat ub. Lookup misses never
// prune, so the check is sound regardless of the table's coverage.
func (s *Searcher) tailPruned(k int, v []uint64, area, ub float64) bool {
	tb := s.opt.TailBound
	if s.c.N-k > tb.MaxLen() { // MaxLen is 0 when tb is nil
		return false
	}
	if v[vStamp]&hasTail == 0 {
		rem := s.tailScratch[:0]
		n := s.c.N
		for i := s.next[n]; i != n; i = s.next[i] {
			rem = append(rem, i)
		}
		t, ok := tb.Lookup(rem)
		v[vTail] = math.Float64bits(t)
		v[vStamp] |= hasTail
		if ok {
			v[vStamp] |= tailHit
		}
	}
	return v[vStamp]&tailHit != 0 && area+math.Float64frombits(v[vTail]) >= ub-1e-12
}

// candidates returns the branching order for position k, or nil when the
// node is a dead end: the order stored in v when it was kept, else the
// searcher's reusable row for depth k — valid until the next
// candidates(k) call at the same depth, which cannot happen while the
// caller's loop is still running — which is stored when kept is set.
// First-fail flavor: an index whose latest feasible position is k is
// forced (two such indexes = failure); otherwise candidates are the
// ready indexes ordered by current density, which steers the search
// toward good incumbents early. A frozen position's one candidate is
// checked in O(1) and never stored.
func (s *Searcher) candidates(k int, v []uint64, kept bool) []int {
	row := s.candRows[k][:0]
	if s.opt.Fixed != nil && s.opt.Fixed[k] >= 0 {
		i := s.opt.Fixed[k]
		if s.placed[i] || s.predsLeft[i] > 0 || s.minPos[i] > k || s.maxPos[i] < k {
			return nil
		}
		return append(row, i)
	}
	if v[vStamp]&hasCands != 0 {
		return s.cache.row(v)
	}
	row = s.scan(k, row)
	if kept {
		s.cache.keepRow(v, row)
	}
	return row
}

// scan computes the branching order of a free position k into row.
func (s *Searcher) scan(k int, row []int) []int {
	n := s.c.N
	forced := -1
	for i := s.next[n]; i != n; i = s.next[i] {
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

	if !s.opt.NaiveBranching {
		s.walkTo(k) // densities read the walker at this node's prefix
	}
	for i := s.next[n]; i != n; i = s.next[i] {
		if s.predsLeft[i] > 0 || s.minPos[i] > k {
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
func (s *Searcher) better(a, b int) bool {
	if s.dens[a] != s.dens[b] {
		return s.dens[a] > s.dens[b]
	}
	return a < b
}

func (s *Searcher) place(i int) {
	s.placed[i] = true
	s.set.Add(i)
	s.next[s.prev[i]] = s.next[i]
	s.prev[s.next[i]] = s.prev[i]
	for _, j := range s.succ[i] {
		s.predsLeft[j]--
	}
}

func (s *Searcher) unplace(i int) {
	for _, j := range s.succ[i] {
		s.predsLeft[j]++
	}
	s.next[s.prev[i]] = i
	s.prev[s.next[i]] = i
	s.set.Remove(i)
	s.placed[i] = false
}
