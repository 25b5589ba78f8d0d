package cp

// The reference CP searcher: a verbatim copy of the Searcher and the
// subset-dominance memo as they were before the lazily walked Walker and
// the set-value cache, with identifiers prefixed "ref". It evaluates every
// node through a walker pushed at every place, with no cache. The live
// Searcher must match it exactly: order, objective bits, proof flag,
// nodes, fails, solutions, prune causes and the OnSolution sequence
// (reference_search_test.go). Do not edit it to follow the live code.

import (
	"math"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// refPollStride is how many nodes the search expands between checks of
// the deadline and the context. At the engine's node rates (µs/node)
// this bounds cancellation latency to well under a millisecond.
const refPollStride = 64

// refSearcher is the CP search state for one compiled instance and
// constraint set: the walker, the lower-bound tables, the unplaced-index
// links and the per-depth candidate arena. Solve runs one search on it
// and leaves it ready for the next, so a caller that searches the same
// instance many times (LNS and VNS, once per relaxation) builds it once.
// A refSearcher is not safe for concurrent use.
type refSearcher struct {
	c   *model.Compiled
	cs  *constraint.Set
	opt Options
	lb  *bruteforce.LowerBound

	w      *model.Walker
	placed []bool
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
	// at depths >= refMemoFrom.
	memo *refMemo

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

// refMemoFrom is the shallowest depth the memo is consulted at: below
// depth 2 every prefix places a distinct set.
const refMemoFrom = 2

// newRefSearcher builds the search state for c under cs, which may be nil
// (no precedence/analysis constraints).
func newRefSearcher(c *model.Compiled, cs *constraint.Set) *refSearcher {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	n := c.N
	s := &refSearcher{
		c:         c,
		cs:        cs,
		lb:        bruteforce.NewLowerBound(c),
		w:         model.NewWalker(c),
		placed:    make([]bool, n),
		next:      make([]int, n+1),
		prev:      make([]int, n+1),
		order:     make([]int, n),
		predsLeft: make([]int, n),
		minPos:    make([]int, n),
		maxPos:    make([]int, n),
		fixedPos:  make([]int, n),
		dens:      make([]float64, n),
	}
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
	for i := 0; i < n; i++ {
		s.predsLeft[i] = cs.Predecessors(i).Count()
		s.minPos[i] = cs.MinPos(i)
		s.maxPos[i] = cs.MaxPos(i)
	}
	return s
}

// Solve runs the CP search on a fresh refSearcher. cs may be nil (no
// precedence/analysis constraints). Passing contradictory Fixed
// assignments yields an exhausted search with no solution (Proved=true,
// Order=Incumbent).
func refSolve(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	return newRefSearcher(c, cs).Solve(opt)
}

// Solve runs one CP search under opt. Every search starts from the same
// state — nothing but the allocated buffers carries over from an earlier
// one — so a reused refSearcher returns exactly what a fresh one would.
// Fail-limited searches (LNS relaxations) run without the memo: their
// fail budget, not exhaustion, ends them, so there it would change what
// the budget buys — and how VNS adapts — instead of only how fast a
// proof completes. Any other search gets a fresh memo.
func (s *refSearcher) Solve(opt Options) Result {
	n := s.c.N
	s.opt = opt
	s.memo = nil
	if !opt.NoMemo && !opt.NoBound && opt.FailLimit == 0 && refMemoFrom < n {
		s.memo = newRefMemo(n)
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
		s.bestObj = s.c.Objective(opt.Incumbent)
	}
	s.nodes, s.fails, s.solutions, s.st = 0, 0, 0, Stats{}
	s.aborted = false
	s.poll = refPollStride
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
// refPollStride nodes through a plain countdown, so cancellation latency no
// longer depends on how the node counter happens to align (the old
// modulo check) or how deep in the tree the search currently is.
func (s *refSearcher) limitHit() bool {
	if s.opt.FailLimit > 0 && s.fails >= s.opt.FailLimit {
		return true
	}
	if s.opt.NodeLimit > 0 && s.nodes >= s.opt.NodeLimit {
		return true
	}
	if s.poll--; s.poll > 0 {
		return false
	}
	s.poll = refPollStride
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
func (s *refSearcher) dfs(k int) bool {
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
	if s.memo != nil && k >= refMemoFrom && s.memo.dominated(s.w.BuiltSet().Words(), s.w.Objective()) {
		s.fails++
		s.st.PrunedMemo++
		return true
	}

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
func (s *refSearcher) boundBelow() float64 {
	var restSum, restMin float64
	restMin = math.Inf(1)
	n := s.c.N
	for i := s.next[n]; i != n; i = s.next[i] {
		mc := s.lb.MinCost(i)
		restSum += mc
		if mc < restMin {
			restMin = mc
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
func (s *refSearcher) tailPruned(k int, ub float64) bool {
	tb := s.opt.TailBound
	m := s.c.N - k
	if m > tb.MaxLen() { // MaxLen is 0 when tb is nil
		return false
	}
	rem := s.tailScratch[:0]
	n := s.c.N
	for i := s.next[n]; i != n; i = s.next[i] {
		rem = append(rem, i)
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
func (s *refSearcher) candidates(k int) []int {
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
func (s *refSearcher) better(a, b int) bool {
	if s.dens[a] != s.dens[b] {
		return s.dens[a] > s.dens[b]
	}
	return a < b
}

func (s *refSearcher) place(i int) {
	s.placed[i] = true
	s.next[s.prev[i]] = s.next[i]
	s.prev[s.next[i]] = s.prev[i]
	s.w.Push(i)
	s.cs.Successors(i).ForEach(func(j int) bool {
		s.predsLeft[j]--
		return true
	})
}

func (s *refSearcher) unplace(i int) {
	s.cs.Successors(i).ForEach(func(j int) bool {
		s.predsLeft[j]++
		return true
	})
	s.w.Pop()
	s.next[s.prev[i]] = i
	s.prev[s.next[i]] = i
	s.placed[i] = false
}

const (
	// refMemoInitBits sizes a fresh table (2^8 slots, 4 KB for n <= 64):
	// the many short solves a server runs, such as fast-path proofs of
	// small instances, never pay for more; long proofs grow it.
	refMemoInitBits = 8
	// refMemoMaxBits caps a table at 2^20 slots (2^(n+1) for n < 20, which
	// holds every subset at half load); past half of the cap, new sets
	// overwrite their home slot instead of growing the table further.
	refMemoMaxBits = 20
)

// refMemo is an open-addressing table keyed by the placed bitset. Each slot
// is stride = words+1 consecutive uint64s in one flat arena: the exact
// key words (an all-zero key marks an empty slot — the empty set is
// never recorded) followed by the bits of the recorded area. Keys are
// compared word for word, never by hash alone.
type refMemo struct {
	words   int
	stride  int
	slots   []uint64
	shift   uint // 64 − log2(slot count): hashes index by their top bits
	used    int
	maxBits int
}

// newRefMemo returns an empty table for n-index instances.
func newRefMemo(n int) *refMemo {
	m := &refMemo{words: (n + 63) / 64, maxBits: min(refMemoMaxBits, n+1)}
	m.stride = m.words + 1
	m.alloc(min(refMemoInitBits, m.maxBits))
	return m
}

func (m *refMemo) alloc(bits int) {
	m.slots = make([]uint64, (1<<bits)*m.stride)
	m.shift = uint(64 - bits)
	m.used = 0
}

func (m *refMemo) size() int { return len(m.slots) / m.stride }

// home returns the key's first probe slot (Fibonacci hashing over the
// key words).
func (m *refMemo) home(key []uint64) int {
	var h uint64
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
	}
	return int(h >> m.shift)
}

// dominated reports whether the placed set key was already reached with
// an accumulated area no larger than area. When it was not, area becomes
// the set's recorded area (inserting the set if absent) and the caller
// explores the node. key must be non-empty as a set.
func (m *refMemo) dominated(key []uint64, area float64) bool {
	mask := m.size() - 1
	home := m.home(key)
	for p := home; ; p = (p + 1) & mask {
		e := m.slots[p*m.stride : (p+1)*m.stride]
		switch {
		case refIsEmpty(e[:m.words]):
			m.insert(key, area, home, e)
			return false
		case refEqualWords(e[:m.words], key):
			if area >= math.Float64frombits(e[m.words]) {
				return true
			}
			e[m.words] = math.Float64bits(area)
			return false
		}
	}
}

// insert records an absent key whose probe ended at the empty slot e.
// The load stays at most one half: below the size cap the table doubles
// first; at the cap the key replaces whatever occupies its home slot
// (lossy — a forgotten set only costs a missed cut), or is dropped when
// that slot is empty.
func (m *refMemo) insert(key []uint64, area float64, home int, e []uint64) {
	if 2*(m.used+1) <= m.size() {
		copy(e, key)
		e[m.words] = math.Float64bits(area)
		m.used++
		return
	}
	if bits := 64 - int(m.shift); bits < m.maxBits {
		m.grow(bits + 1)
		m.dominated(key, area) // absent, so this inserts
		return
	}
	h := m.slots[home*m.stride : (home+1)*m.stride]
	if !refIsEmpty(h[:m.words]) {
		copy(h, key)
		h[m.words] = math.Float64bits(area)
	}
}

// grow rehashes every entry into a table of 2^bits slots.
func (m *refMemo) grow(bits int) {
	old, stride := m.slots, m.stride
	m.alloc(bits)
	mask := m.size() - 1
	for off := 0; off < len(old); off += stride {
		e := old[off : off+stride]
		if refIsEmpty(e[:m.words]) {
			continue
		}
		p := m.home(e[:m.words])
		for !refIsEmpty(m.slots[p*stride : p*stride+m.words]) {
			p = (p + 1) & mask
		}
		copy(m.slots[p*stride:(p+1)*stride], e)
		m.used++
	}
}

func refIsEmpty(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

func refEqualWords(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
