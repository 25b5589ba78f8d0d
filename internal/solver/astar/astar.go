// Package astar implements the A* exact search the paper discusses as a
// branch-and-bound alternative (§1, §3.3): best-first search over prefix
// states. A state is the *set* of deployed indexes — the objective of any
// completion depends on the prefix only through its set, so states are
// deduplicated by set with the best-known prefix objective (g). The
// heuristic h is the same admissible completion bound used by CP and
// bruteforce, so the first goal expansion is optimal.
//
// A proof allocates only a few growable buffers. Generated states live in
// one arena of fixed-size nodes; a node stores its subset, g, f, the
// index deployed last and a link to its parent node, and its prefix is
// rebuilt into one reused scratch slice by walking those links — once
// per expansion to Sync the walker, and once at the goal for the result.
// The open list is a binary heap of arena indexes and g lives in an
// open-addressing table keyed by the subset mask. Each generated child
// costs a 32-byte node and a 4-byte heap slot, and each distinct subset a
// 16-byte table entry in a table kept at most half full; all three
// buffers double when full. A child's g comes from
// Walker.ObjectiveIfPushed; it is pushed on the walker only when that g
// improves, to read the runtime h needs.
//
// The search is exactly the textbook one with per-child prefix copies, a
// container/heap open list and a Go map (solveReference in the tests):
// the heap repeats container/heap's sift steps, so ties pop in the same
// order, and g and h are the same floating-point expressions evaluated in
// the same order. Expanded, States, Proved, the objective bits and Order
// all match.
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
	// Expanded counts expanded states; States counts distinct subsets
	// seen (memory proxy).
	Expanded, States int64
}

// node is one generated state in the search arena. Its prefix is its
// parent's prefix followed by last; the root has parent -1.
type node struct {
	mask   uint64
	g      float64 // exact objective of the prefix this node was generated with
	f      float64 // g + admissible completion estimate
	parent int32
	last   int32
}

// search holds the buffers of one proof.
type search struct {
	nodes  []node
	open   []int32 // binary min-heap of arena indexes, ordered by f
	g      gTable
	prefix []int // scratch for prefixOf
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

	// Precompute predecessor masks for readiness checks.
	predMask := make([]uint64, c.N)
	for i := 0; i < c.N; i++ {
		cs.Predecessors(i).ForEach(func(p int) bool {
			predMask[i] |= 1 << uint(p)
			return true
		})
	}

	// Per-expansion scratch: the unplaced indexes in ascending order, their
	// best-case build costs and the running sums of those costs.
	restIdx := make([]int, 0, c.N)
	restMC := make([]float64, 0, c.N)
	restPre := make([]float64, 0, c.N+1)

	w := model.NewWalker(c)
	s := &search{
		nodes:  make([]node, 1, 64),
		open:   make([]int32, 1, 64),
		g:      newGTable(64),
		prefix: make([]int, c.N),
	}
	s.nodes[0] = node{parent: -1}
	root, _ := s.g.find(0)
	s.g.store(root, 0, 0)
	goal := uint64(1)<<uint(c.N) - 1

	var res Result
	res.Objective = math.Inf(1)

	for len(s.open) > 0 {
		ci := s.pop()
		cur := s.nodes[ci]
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
		if opt.ExternalBound != nil {
			// f is admissible and the queue is ordered by f, so once the
			// head cannot beat the external incumbent, nothing can.
			if e := opt.ExternalBound(); cur.f > e+1e-9 {
				break
			}
		}
		prefix := s.prefixOf(ci)
		if cur.mask == goal {
			res.Order = append([]int(nil), prefix...)
			res.Objective = cur.g
			res.Proved = true
			res.States = int64(s.g.count)
			if opt.OnSolution != nil {
				opt.OnSolution(append([]int(nil), prefix...), cur.g)
			}
			return res, nil
		}
		// Reposition the walker onto this node's prefix: only the tail
		// diverging from the previous expansion is popped/pushed, so
		// neighboring expansions cost the prefix difference instead of a
		// full replay.
		w.Sync(prefix)

		// h of a child is R·min + MinRuntime·(sum − min) over the costs it
		// leaves unplaced. Those are this node's unplaced costs minus the
		// child's own, so one pass here yields every child's min (from the
		// two smallest) and the head of its left-to-right sum.
		restIdx, restMC, restPre = restIdx[:0], restMC[:0], append(restPre[:0], 0)
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

		for r, i := range restIdx {
			if cur.mask&predMask[i] != predMask[i] {
				continue
			}
			ng := w.ObjectiveIfPushed(i)
			nmask := cur.mask | 1<<uint(i)
			at, seen := s.g.find(nmask)
			if seen && !(ng < s.g.entries[at].g-1e-12) {
				continue
			}
			s.g.store(at, nmask, ng)
			// h: cheapest remaining best-case cost at the child's runtime
			// + the rest at the floor runtime.
			restMin := min1
			if r == min1At {
				restMin = min2
			}
			h := 0.0
			if !math.IsInf(restMin, 1) {
				restSum := restPre[r]
				for _, mc := range restMC[r+1:] {
					restSum += mc
				}
				w.Push(i)
				h = w.Runtime()*restMin + lb.MinRuntime()*(restSum-restMin)
				w.Pop()
			}
			s.nodes = append(grow(s.nodes), node{mask: nmask, g: ng, f: ng + h, parent: ci, last: int32(i)})
			s.push(int32(len(s.nodes) - 1))
		}
	}
	// Exhausted without reaching the goal: with an external bound this is
	// a proof that the external incumbent cannot be beaten; without one it
	// only happens on contradictory constraints (which Validate rejects).
	res.Proved = opt.ExternalBound != nil
	res.States = int64(s.g.count)
	return res, nil
}

// prefixOf rebuilds node k's deployment prefix into the scratch slice,
// which stays valid until the next call.
func (s *search) prefixOf(k int32) []int {
	p := s.prefix[:bits.OnesCount64(s.nodes[k].mask)]
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

func (s *search) less(i, j int) bool { return s.nodes[s.open[i]].f < s.nodes[s.open[j]].f }

func (s *search) push(k int32) {
	s.open = append(grow(s.open), k)
	s.up(len(s.open) - 1)
}

func (s *search) pop() int32 {
	n := len(s.open) - 1
	s.open[0], s.open[n] = s.open[n], s.open[0]
	s.down(0, n)
	k := s.open[n]
	s.open = s.open[:n]
	return k
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
// marks an empty slot. The table doubles before it is half full.
type gTable struct {
	entries []gEntry
	shift   uint // 64 - log2(len(entries))
	count   int
}

type gEntry struct {
	key uint64
	g   float64
}

func newGTable(size int) gTable {
	return gTable{entries: make([]gEntry, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
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
	*t = newGTable(2 * len(old))
	for _, e := range old {
		if e.key != 0 {
			at, _ := t.find(e.key - 1)
			t.entries[at] = e
			t.count++
		}
	}
}
