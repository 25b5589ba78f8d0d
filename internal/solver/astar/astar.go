// Package astar implements the A* exact search the paper discusses as a
// branch-and-bound alternative (§1, §3.3): best-first search over prefix
// states. A state is the *set* of deployed indexes — the objective of any
// completion depends on the prefix only through its set, so states are
// deduplicated by set with the best-known prefix objective (g). The
// heuristic h is the same admissible completion bound used by CP and
// bruteforce, so the first goal expansion is optimal.
//
// A state's children are scored from its subset mask alone: the build
// cost of a child, the runtime of the set and g = parent g + runtime ·
// cost are set-pure. A node carries its set's runtime, so a child's cost
// and g come from the parent's mask and node without any evaluation; only
// a child that survives the cut below needs its own runtime (for h), and
// the expansion then loads the mask into a model.SetEval once to get it.
// No prefix is replayed; a node's prefix is rebuilt from parent links
// once, at the goal, for the result.
//
// With an external bound (the portfolio's incumbent), a child is cut at
// generation when its f exceeds the bound read at its parent's pop, by
// the same 1e-9 slack the pop test uses: it is neither stored nor
// pushed, so it costs no memory (breadth-first heuristic search's
// upper-bound pruning; Zhou & Hansen, AIJ 2006). Most cut children are
// cut by an O(1) floor, MinRuntime times the child's unplaced best-case
// cost sum, scaled down so that it never cuts a child the exact test
// keeps; they skip the runtime and the exact h. When the bound is the
// optimum, every stored state is one that A* expands.
//
// Generated states live in one arena of fixed-size nodes; a node stores
// its subset, g, its runtime, the index deployed last and a link to its
// parent node. The open list is a binary heap of (f, node) pairs, so
// comparisons never load from the arena, and g lives in an
// open-addressing table keyed by the subset mask. Each stored child costs
// a 32-byte node and a 16-byte heap slot, and each distinct subset a
// 16-byte table entry in a table kept at most half full. The arena and
// heap double when full; the table doubles into a buffer of the next
// size. All three are pooled across proofs: a proof that follows a larger
// one allocates only its per-instance state and its result, and it clears
// only the table sizes it grows through (O(min(capacity, 2^(n+1)))), so a
// small fast-path proof never pays to clear the table of an earlier large
// one.
//
// The search is exactly the textbook one with per-child prefix copies, a
// walker Push/Pop per child, a container/heap open list, a Go map and
// the same cut (solveReference in the tests):
// the heap repeats container/heap's sift steps, so ties pop in the same
// order, and g and h are the same floating-point expressions evaluated in
// the same order. Expanded, States (the distinct subsets stored, cut
// children excluded), Proved, the objective bits and Order all match.
//
// Memory grows with the number of reachable subsets (up to 2^n), which is
// precisely why the paper dismisses A* for larger instances; MaxN caps n
// at 24.
package astar

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// MaxN is the largest instance A* accepts (2^24 subsets already strains
// memory).
const MaxN = 24

// Options bounds the search.
type Options struct {
	// NodeLimit aborts after expanding this many states (0 = unlimited).
	NodeLimit int64
	// Context, when non-nil, aborts the search when cancelled (checked
	// every 256 expansions).
	Context context.Context
	// ExternalBound, when non-nil, is polled for the best objective known
	// outside this search (the portfolio's shared incumbent). Because the
	// open list is ordered by an admissible f, the whole search stops —
	// with Proved=true and a nil Order — as soon as the head of the queue
	// can no longer beat the external incumbent: the incumbent is then
	// proved optimal even though A* never reconstructed it.
	ExternalBound func() float64
	// OnSolution, when non-nil, is invoked with the optimal order when
	// the goal state is expanded (portfolio incumbent publishing).
	OnSolution func(order []int, objective float64)
}

// Result reports the search outcome.
type Result struct {
	Order     []int
	Objective float64
	// Proved is true when the search space was exhausted: either Order is
	// the proved optimum, or Order is nil and no order beating
	// Options.ExternalBound exists (the external incumbent is optimal).
	Proved bool
	// Expanded counts expanded states; States counts the distinct subsets
	// stored (memory proxy), which excludes children cut by the external
	// bound.
	Expanded, States int64
}

// node is one generated state in the search arena. Its prefix is its
// parent's prefix followed by last; the root has parent -1.
type node struct {
	mask    uint64
	g       float64 // exact objective of the prefix this node was generated with
	runtime float64 // workload runtime under mask (unset on the goal)
	parent  int32
	last    int32
}

// openEntry is one open-list slot: an arena node with its f = g +
// admissible completion estimate, kept in the slot so heap comparisons
// never load from the arena.
type openEntry struct {
	f    float64
	node int32
}

// search holds the buffers of one proof. Proofs take a search from
// searches and put it back when they end, so a warm proof reuses the
// previous proofs' capacity; reset costs O(n) and the g-table clears only
// the tables it grows into.
type search struct {
	nodes []node
	open  []openEntry // binary min-heap ordered by f
	g     gTable

	// Per-instance scratch: predecessor masks, and per expansion the
	// unplaced indexes in ascending order, their best-case build costs
	// and the prefix and suffix sums of those costs.
	predMask []uint64
	restIdx  []int
	restMC   []float64
	restPre  []float64
	restSuf  []float64
}

var searches = sync.Pool{New: func() any { return new(search) }}

// reset readies s for a proof of c under cs: the open list holds the
// root, whose g is 0 and whose runtime is rootRuntime.
func (s *search) reset(c *model.Compiled, cs *constraint.Set, rootRuntime float64) {
	if s.nodes == nil {
		s.nodes = make([]node, 0, 64)
		s.open = make([]openEntry, 0, 64)
	}
	s.nodes = append(s.nodes[:0], node{runtime: rootRuntime, parent: -1})
	s.open = append(s.open[:0], openEntry{})
	s.g.reset()
	root, _ := s.g.find(0)
	s.g.store(root, 0, 0)

	s.predMask = slices.Grow(s.predMask[:0], c.N)[:c.N]
	for i := range s.predMask {
		s.predMask[i] = 0
		cs.Predecessors(i).ForEach(func(p int) bool {
			s.predMask[i] |= 1 << uint(p)
			return true
		})
	}
	s.restIdx = slices.Grow(s.restIdx[:0], c.N)
	s.restMC = slices.Grow(s.restMC[:0], c.N)
	s.restPre = slices.Grow(s.restPre[:0], c.N+1)
	s.restSuf = slices.Grow(s.restSuf[:0], c.N+1)
}

// Solve runs A*. cs may be nil. The error is non-nil only when the
// instance exceeds MaxN.
func Solve(c *model.Compiled, cs *constraint.Set, opt Options) (Result, error) {
	if c.N > MaxN {
		return Result{}, fmt.Errorf("astar: %d indexes exceeds MaxN=%d", c.N, MaxN)
	}
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	lb := bruteforce.NewLowerBound(c)
	ev := model.NewSetEval(c)
	s := searches.Get().(*search)
	defer searches.Put(s)
	s.reset(c, cs, ev.Runtime())
	goal := uint64(1)<<uint(c.N) - 1
	var floor float64
	if opt.ExternalBound != nil {
		floor = floorScale(c, lb)
	}

	var res Result
	res.Objective = math.Inf(1)

	for len(s.open) > 0 {
		top := s.pop()
		cur := s.nodes[top.node]
		if at, ok := s.g.find(cur.mask); ok && cur.g > s.g.entries[at].g+1e-12 {
			continue // stale entry
		}
		res.Expanded++
		if opt.NodeLimit > 0 && res.Expanded > opt.NodeLimit {
			res.States = int64(s.g.count)
			return res, nil // aborted: Proved stays false
		}
		if opt.Context != nil && res.Expanded%256 == 0 {
			select {
			case <-opt.Context.Done():
				res.States = int64(s.g.count)
				return res, nil // aborted: Proved stays false
			default:
			}
		}
		cut := math.Inf(1)
		if opt.ExternalBound != nil {
			// f is admissible and the queue is ordered by f, so once the
			// head cannot beat the external incumbent, nothing can; a
			// child that cannot is never stored.
			if cut = opt.ExternalBound() + 1e-9; top.f > cut {
				break
			}
		}
		if cur.mask == goal {
			res.Order = s.orderOf(top.node)
			res.Objective = cur.g
			res.Proved = true
			res.States = int64(s.g.count)
			if opt.OnSolution != nil {
				opt.OnSolution(append([]int(nil), res.Order...), cur.g)
			}
			return res, nil
		}

		// h of a child is R·min + MinRuntime·(sum − min) over the costs it
		// leaves unplaced. Those are this node's unplaced costs minus the
		// child's own, so one pass here yields every child's min (from the
		// two smallest) and the head of its left-to-right sum; the suffix
		// sums give the floor its tail in O(1).
		restIdx, restMC, restPre := s.restIdx[:0], s.restMC[:0], append(s.restPre[:0], 0)
		min1, min1At := math.Inf(1), -1
		for j := 0; j < c.N; j++ {
			if cur.mask&(1<<uint(j)) == 0 {
				mc := lb.MinCost(j)
				if mc < min1 {
					min1, min1At = mc, len(restMC)
				}
				restIdx = append(restIdx, j)
				restMC = append(restMC, mc)
				restPre = append(restPre, restPre[len(restPre)-1]+mc)
			}
		}
		min2 := math.Inf(1)
		for r, mc := range restMC {
			if r != min1At && mc < min2 {
				min2 = mc
			}
		}
		restSuf := s.restSuf[:len(restMC)+1]
		if floor > 0 {
			restSuf[len(restMC)] = 0
			for r := len(restMC) - 1; r >= 0; r-- {
				restSuf[r] = restSuf[r+1] + restMC[r]
			}
		}

		// Every child's cost and runtime is a function of this node's set
		// alone: costs come from the mask, runtimes from the set loaded
		// into ev, which only a child that survives the cut needs.
		loaded := false
		for r, i := range restIdx {
			if cur.mask&s.predMask[i] != s.predMask[i] {
				continue
			}
			// Walker.ObjectiveIfPushed's expression on the node's prefix:
			// cur.g is that prefix's objective, cur.runtime its runtime.
			ng := cur.g + float64(cur.runtime*c.MaskBuildCost(i, cur.mask))
			if floor > 0 && ng+floor*(restPre[r]+restSuf[r+1]) > cut {
				continue // h ≥ the floor: the exact test below cuts it too
			}
			nmask := cur.mask | 1<<uint(i)
			at, seen := s.g.find(nmask)
			if seen && !(ng < s.g.entries[at].g-1e-12) {
				continue
			}
			// h: cheapest remaining best-case cost at the child's runtime
			// + the rest at the floor runtime. The goal needs neither.
			restMin := min1
			if r == min1At {
				restMin = min2
			}
			h, runtime := 0.0, 0.0
			if !math.IsInf(restMin, 1) {
				if !loaded {
					ev.Load(cur.mask)
					loaded = true
				}
				runtime = ev.RuntimeWith(i)
				restSum := restPre[r]
				for _, mc := range restMC[r+1:] {
					restSum += mc
				}
				h = runtime*restMin + lb.MinRuntime()*(restSum-restMin)
			}
			if ng+h > cut {
				continue
			}
			s.g.store(at, nmask, ng)
			s.nodes = append(grow(s.nodes), node{mask: nmask, g: ng, runtime: runtime, parent: top.node, last: int32(i)})
			s.push(ng+h, int32(len(s.nodes)-1))
		}
	}
	// Exhausted without reaching the goal: with an external bound this is
	// a proof that the external incumbent cannot be beaten; without one it
	// only happens on contradictory constraints (which Validate rejects).
	res.Proved = opt.ExternalBound != nil
	res.States = int64(s.g.count)
	return res, nil
}

// floorMargin is the relative slack floorScale leaves below MinRuntime.
const floorMargin = 1e-6

// floorScale returns the factor F of the O(1) floor F·S on a child's h,
// S being the child's unplaced best-case cost sum, or 0 when the floor
// must not be used. In exact arithmetic h ≥ MinRuntime·S, because no set
// runs faster than MinRuntime. In floating point the child's runtime and
// MinRuntime are sums over the queries in different orders and S is
// summed in a different order from h's, so F is MinRuntime scaled down
// by floorMargin. That covers both rounding errors with room to spare
// when the costs and MinRuntime are non-negative and MinRuntime is not
// a vanishing remainder of the base runtime (nq·Base ≤ 1e8·MinRuntime);
// otherwise the floor is off.
func floorScale(c *model.Compiled, lb *bruteforce.LowerBound) float64 {
	mr := lb.MinRuntime()
	if !(mr > 0) || float64(len(c.QryRuntime)+1)*c.Base > 1e8*mr {
		return 0
	}
	for i := 0; i < c.N; i++ {
		if !(lb.MinCost(i) >= 0) {
			return 0
		}
	}
	return mr * (1 - floorMargin)
}

// orderOf rebuilds node k's deployment prefix into a new slice.
func (s *search) orderOf(k int32) []int {
	p := make([]int, bits.OnesCount64(s.nodes[k].mask))
	for d := len(p) - 1; d >= 0; d-- {
		p[d] = int(s.nodes[k].last)
		k = s.nodes[k].parent
	}
	return p
}

// grow returns s with room for one more element, doubling its capacity
// when it is full: append grows large slices by only 1.25×, which
// allocates and copies more bytes in total.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, 2*cap(s)), s...)
}

// The open list's push/pop/up/down are container/heap's Push/Pop/up/down
// step for step, so equal-f nodes pop in the same order they would there.

func (s *search) less(i, j int) bool { return s.open[i].f < s.open[j].f }

func (s *search) push(f float64, k int32) {
	s.open = append(grow(s.open), openEntry{f: f, node: k})
	s.up(len(s.open) - 1)
}

func (s *search) pop() openEntry {
	n := len(s.open) - 1
	s.open[0], s.open[n] = s.open[n], s.open[0]
	s.down(0, n)
	top := s.open[n]
	s.open = s.open[:n]
	return top
}

func (s *search) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s.open[i], s.open[j] = s.open[j], s.open[i]
		j = i
	}
}

func (s *search) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s.open[i], s.open[j] = s.open[j], s.open[i]
		i = j
	}
}

// gTable maps a subset mask to its best-known g: open addressing with
// linear probing and Fibonacci hashing. A slot's key is mask+1, so 0
// marks an empty slot. The table doubles before it is half full, into a
// buffer of that size kept from earlier proofs when there is one: a proof
// clears only the sizes it grows through, never the largest table an
// earlier proof needed.
type gTable struct {
	entries []gEntry
	shift   uint // 64 - log2(len(entries))
	count   int
	tables  [][]gEntry // tables[k] is the buffer for 1<<k entries, or nil
}

type gEntry struct {
	key uint64
	g   float64
}

// minTableLog is log2 of a fresh table's size.
const minTableLog = 6

// reset empties the table down to its smallest size.
func (t *gTable) reset() { t.use(minTableLog) }

// use makes the table an empty one of 1<<k entries.
func (t *gTable) use(k int) {
	for len(t.tables) <= k {
		t.tables = append(t.tables, nil)
	}
	if t.tables[k] == nil {
		t.tables[k] = make([]gEntry, 1<<k)
	} else {
		clear(t.tables[k])
	}
	t.entries, t.shift, t.count = t.tables[k], uint(64-k), 0
}

// find returns mask's slot and whether mask is present; when it is not,
// the slot is where store would insert it.
func (t *gTable) find(mask uint64) (int, bool) {
	key := mask + 1
	at := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	for {
		switch t.entries[at].key {
		case key:
			return at, true
		case 0:
			return at, false
		}
		at = (at + 1) & (len(t.entries) - 1)
	}
}

// store sets mask's g in the slot find returned for it; the slot is
// invalid afterwards.
func (t *gTable) store(at int, mask uint64, g float64) {
	if t.entries[at].key == 0 {
		t.entries[at].key = mask + 1
		t.count++
	}
	t.entries[at].g = g
	if 2*t.count > len(t.entries) {
		t.grow()
	}
}

func (t *gTable) grow() {
	old := t.entries
	t.use(bits.Len(uint(len(old))))
	for _, e := range old {
		if e.key != 0 {
			at, _ := t.find(e.key - 1)
			t.entries[at] = e
			t.count++
		}
	}
}
