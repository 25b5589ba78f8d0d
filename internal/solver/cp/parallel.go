// Work-stealing parallel branch-and-bound. The search tree is cut at a
// shallow split depth: whenever a worker expands a node above that depth
// it keeps the most promising branch and donates the sibling branches to
// its own deque as frontier subproblems (a deployment prefix). Idle
// workers steal from the opposite end of victim deques, so the owner
// keeps depth-first locality while thieves take the shallowest —
// largest — subtrees. All workers prune against a single atomic
// incumbent that also bridges to the portfolio (it polls
// Options.ExternalBound and publishes improvements through
// Options.OnSolution), and a global open-subproblem counter certifies
// the optimality proof: when it drains to zero with no abort, every
// branch of the tree was either explored or bounded away.
//
// Subproblem frames are pooled: each worker keeps a private free list
// and recycles every frame it finishes into it, so after a brief warmup
// the steady-state steal/spawn cycle allocates nothing (frames spawned
// by one worker and adopted by another simply migrate free lists; each
// list is only ever touched by its owning goroutine). Free lists rather
// than sync.Pool keep recycling deterministic — allocation counts must
// not depend on GC timing, because alloc_test.go pins them.
package cp

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/bitset"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// subproblem is one frontier node: the search subtree rooted at the
// given deployment prefix. Everything else a thief needs (placed set,
// precedence readiness) is recomputed from the prefix on adoption, so
// the frame itself is just a reusable int buffer.
type subproblem struct {
	prefix []int
}

// getFrame pops a recycled frame from the worker's free list (or
// allocates one of the initial frames during warmup). Only the
// searcher's own goroutine touches its free list.
func (s *searcher) getFrame() *subproblem {
	if n := len(s.freeFrames); n > 0 {
		sp := s.freeFrames[n-1]
		s.freeFrames[n-1] = nil
		s.freeFrames = s.freeFrames[:n-1]
		return sp
	}
	return &subproblem{prefix: make([]int, 0, s.c.N)}
}

// putFrame recycles a finished frame into the worker's own free list —
// including frames spawned by other workers; migration is safe because
// a frame is owned by exactly one goroutine at a time (spawner → deque
// → adopter → adopter's free list).
func (s *searcher) putFrame(sp *subproblem) {
	sp.prefix = sp.prefix[:0]
	s.freeFrames = append(s.freeFrames, sp)
}

// deque is one worker's subproblem store. The owner pushes and pops at
// the back (depth-first locality); thieves steal from the front, taking
// the shallowest subproblem — the largest stolen unit of work, which
// keeps steal traffic rare. A plain per-deque mutex is uncontended in
// the common case (owner-only access) and far simpler to prove correct
// under -race than a Chase-Lev array.
type deque struct {
	mu sync.Mutex
	q  []*subproblem
	// maxDepth is the deque's high-water mark, maintained under the mutex
	// pushBack already holds; solveParallel reads it after the workers
	// join, so no extra synchronization is needed.
	maxDepth int
}

func (d *deque) pushBack(sp *subproblem) {
	d.mu.Lock()
	d.q = append(d.q, sp)
	if len(d.q) > d.maxDepth {
		d.maxDepth = len(d.q)
	}
	d.mu.Unlock()
}

func (d *deque) popBack() *subproblem {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return nil
	}
	sp := d.q[len(d.q)-1]
	d.q[len(d.q)-1] = nil
	d.q = d.q[:len(d.q)-1]
	return sp
}

func (d *deque) stealFront() *subproblem {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return nil
	}
	sp := d.q[0]
	d.q[0] = nil
	d.q = d.q[1:]
	return sp
}

// peekFrontDepth reports the prefix length of the front (shallowest)
// subproblem, for the cross-node exporter's victim choice.
func (d *deque) peekFrontDepth() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return 0, false
	}
	return len(d.q[0].prefix), true
}

// stealFrontNonRoot is stealFront restricted to frames with a non-empty
// prefix: the root frame never leaves the process (see
// ExportHandle.StealSubtree).
func (d *deque) stealFrontNonRoot() *subproblem {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 || len(d.q[0].prefix) == 0 {
		return nil
	}
	sp := d.q[0]
	d.q[0] = nil
	d.q = d.q[1:]
	return sp
}

// incumbent is the shared best-known schedule. The objective is mirrored
// in an atomic word so the per-node prune check never locks; the order
// and the improvement callback are guarded by the mutex, which also
// serializes OnSolution so observers still see strictly decreasing
// objectives.
type incumbent struct {
	bits  atomic.Uint64
	mu    sync.Mutex
	order []int
	// cbBuf is the reusable buffer OnSolution borrows for the duration
	// of each callback (guarded by mu, like order).
	cbBuf []int
	onSol func(order []int, objective float64)
}

func newIncumbent(onSol func([]int, float64)) *incumbent {
	inc := &incumbent{onSol: onSol}
	inc.bits.Store(math.Float64bits(math.Inf(1)))
	return inc
}

func (in *incumbent) objective() float64 {
	return math.Float64frombits(in.bits.Load())
}

// seed installs a starting order without invoking the callback (matching
// the serial engine, which only reports strict improvements over the
// seeded incumbent).
func (in *incumbent) seed(order []int, obj float64) {
	in.order = append(in.order[:0], order...)
	in.bits.Store(math.Float64bits(obj))
}

// offer publishes an improving schedule; order is copied into reusable
// buffers, so the steady-state offer path allocates nothing. The same
// strict-improvement epsilon as the serial engine applies, so a parallel
// proof accepts exactly the objectives a serial one would. OnSolution
// borrows cbBuf only for the duration of the call, per its contract.
func (in *incumbent) offer(order []int, obj float64) bool {
	if obj >= in.objective()-1e-12 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if obj >= in.objective()-1e-12 {
		return false // raced with a better offer
	}
	in.order = append(in.order[:0], order...)
	in.bits.Store(math.Float64bits(obj))
	if in.onSol != nil {
		in.cbBuf = append(in.cbBuf[:0], order...)
		in.onSol(in.cbBuf, obj)
	}
	return true
}

func (in *incumbent) best() ([]int, float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.order == nil {
		return nil, math.Inf(1)
	}
	return append([]int(nil), in.order...), in.objective()
}

// parRun is the state shared by all workers of one parallel solve.
type parRun struct {
	c          *model.Compiled
	cs         *constraint.Set
	opt        Options
	splitDepth int
	deques     []*deque
	inc        *incumbent

	// pending counts open subproblems (created but not fully explored).
	// It starts at 1 for the root; every spawn adds one; every completed
	// adoption subtracts one. Zero with no abort = the whole tree was
	// covered: the optimality proof.
	pending atomic.Int64
	aborted atomic.Bool

	// Global effort counters; workers flush their private counts in on
	// every poll so limits apply to the sum, not per worker.
	nodes     atomic.Int64
	fails     atomic.Int64
	solutions atomic.Int64

	// Merged per-worker Stats. Workers fold their private scratch in
	// exactly once, on exit (stats never gate limits, so unlike
	// nodes/fails they need no mid-solve flushes).
	stMu sync.Mutex
	st   Stats

	// Parking lot for idle workers. workSeq increments on every spawn so
	// a sweep-then-park thief cannot miss a wakeup: it re-checks the
	// sequence under the lock before sleeping.
	mu      sync.Mutex
	cond    *sync.Cond
	workSeq int64
	stopped bool
}

// stop wakes every parked worker; aborted distinguishes a cancelled run
// from a drained frontier.
func (r *parRun) stop(abort bool) {
	if abort {
		r.aborted.Store(true)
	}
	r.mu.Lock()
	r.stopped = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// spawn donates sibling branches of the node at depth k to the worker's
// own deque and wakes thieves. Runs on the worker that owns s; frames
// come from s's free list.
func (r *parRun) spawn(s *searcher, k int, rest []int) {
	d := r.deques[s.wid]
	for _, i := range rest {
		sp := s.getFrame()
		sp.prefix = append(append(sp.prefix, s.order[:k]...), i)
		r.pending.Add(1)
		d.pushBack(sp)
	}
	r.mu.Lock()
	r.workSeq++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// parLimitHit is the parallel counterpart of limitHit: flush private
// effort into the global counters, then check the abort flag, the step
// limits against the global sums, the deadline, and the context.
func (s *searcher) parLimitHit() bool {
	if s.poll--; s.poll > 0 {
		return false
	}
	s.poll = pollStride
	r := s.par
	nodes := r.nodes.Add(s.nodes - s.flushedNodes)
	fails := r.fails.Add(s.fails - s.flushedFails)
	s.flushedNodes, s.flushedFails = s.nodes, s.fails
	if r.aborted.Load() {
		return true
	}
	if r.opt.FailLimit > 0 && fails >= r.opt.FailLimit {
		r.stop(true)
		return true
	}
	if r.opt.NodeLimit > 0 && nodes >= r.opt.NodeLimit {
		r.stop(true)
		return true
	}
	if !r.opt.Deadline.IsZero() && time.Now().After(r.opt.Deadline) {
		r.stop(true)
		return true
	}
	if r.opt.Context != nil {
		select {
		case <-r.opt.Context.Done():
			r.stop(true)
			return true
		default:
		}
	}
	return false
}

// adopt repositions the worker's search state onto a subproblem: the
// walker Syncs to the prefix (paying only the symmetric difference from
// its previous position) and the precedence bookkeeping is recomputed
// from the prefix through the worker's adoptSet scratch bitset.
func (s *searcher) adopt(sp *subproblem) {
	s.w.Sync(sp.prefix)
	for i := range s.placed {
		s.placed[i] = false
	}
	s.adoptSet.Clear()
	for _, i := range sp.prefix {
		s.placed[i] = true
		s.adoptSet.Add(i)
	}
	for i := 0; i < s.c.N; i++ {
		preds := s.cs.Predecessors(i)
		s.predsLeft[i] = preds.Count() - preds.CountAnd(s.adoptSet)
	}
	copy(s.order, sp.prefix)
}

// flushCounters folds the worker's residual private effort into the run
// totals on exit.
func (s *searcher) flushCounters() {
	s.par.nodes.Add(s.nodes - s.flushedNodes)
	s.par.fails.Add(s.fails - s.flushedFails)
	s.par.solutions.Add(int64(s.solutions))
	s.flushedNodes, s.flushedFails = s.nodes, s.fails
	s.par.stMu.Lock()
	s.par.st.add(&s.st)
	s.par.stMu.Unlock()
}

// findWork steals a subproblem for an out-of-work worker, or parks it
// until new work is spawned or the run ends. Returns nil when the run is
// over (frontier drained or aborted). Only the caller's own goroutine
// ever pushes to its deque, so while it is here its deque stays empty —
// stealing from victims is the only source of work.
func (r *parRun) findWork(s *searcher, rng *uint64) *subproblem {
	for {
		r.mu.Lock()
		seq := r.workSeq
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return nil
		}
		// Sweep victims starting from a random offset so thieves spread
		// out instead of all hammering worker 0.
		off := int(xorshift(rng) % uint64(len(r.deques)))
		for t := 0; t < len(r.deques); t++ {
			v := (off + t) % len(r.deques)
			if v == s.wid {
				continue
			}
			s.st.StealAttempts++
			if sp := r.deques[v].stealFront(); sp != nil {
				s.st.Steals++
				return sp
			}
		}
		r.mu.Lock()
		for r.workSeq == seq && !r.stopped {
			r.cond.Wait()
		}
		r.mu.Unlock()
	}
}

// xorshift is a tiny private RNG for victim selection; workers must not
// share math/rand state (lock contention) and need no statistical
// quality here.
func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// worker runs one branch-and-bound goroutine: pop own work, steal when
// dry, explore each adopted subproblem depth-first, recycle its frame,
// and close the run when the last open subproblem finishes.
func (r *parRun) worker(wid int, wg *sync.WaitGroup) {
	defer wg.Done()
	s := newSearcher(r.c, r.cs, r.opt, r.splitDepth)
	s.par = r
	s.wid = wid
	s.adoptSet = bitset.New(r.c.N)
	defer s.flushCounters()
	rng := uint64(r.opt.Seed)*0x9E3779B97F4A7C15 + uint64(wid)*0xBF58476D1CE4E5B9 + 1
	for {
		sp := r.deques[wid].popBack()
		if sp == nil {
			sp = r.findWork(s, &rng)
		}
		if sp == nil {
			return
		}
		s.dfsFrom(sp)
		s.putFrame(sp)
		if r.pending.Add(-1) == 0 {
			r.stop(false) // frontier drained: proof complete
			return
		}
		if r.aborted.Load() {
			return
		}
	}
}

// dfsFrom explores one adopted subproblem to completion (or abort).
func (s *searcher) dfsFrom(sp *subproblem) {
	s.adopt(sp)
	s.dfs(len(sp.prefix))
}

// solveParallel runs the work-stealing search. Callers guarantee
// opt.Workers > 1 and c.N > 1, except SolveSubtree, which may run it
// with a single worker (the loop degenerates to plain depth-first over
// its own deque, which is still correct — findWork can only be reached
// when the frontier is empty and the run about to stop).
func solveParallel(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	workers := opt.Workers
	r := &parRun{
		c:          c,
		cs:         cs,
		opt:        opt,
		splitDepth: splitDepth(opt.SplitDepth, c.N, workers),
		deques:     make([]*deque, workers),
		inc:        newIncumbent(opt.OnSolution),
	}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.deques {
		r.deques[i] = &deque{}
	}
	if opt.Incumbent != nil {
		r.inc.seed(opt.Incumbent, c.Objective(opt.Incumbent))
	}

	// Root subproblem: the RootPrefix (empty outside SolveSubtree).
	// Worker 0 picks it up first and starts splitting; the others steal
	// as soon as siblings appear. (The root frame is heap-built here; it
	// simply joins a worker free list when it completes, like every
	// other frame.)
	root := &subproblem{prefix: make([]int, 0, c.N)}
	root.prefix = append(root.prefix, opt.RootPrefix...)
	r.pending.Store(1)
	r.deques[0].pushBack(root)

	// Cross-node export hookup. With subtrees outstanding on remote
	// helpers the local frontier can drain while pending stays positive,
	// parking every worker — and parked workers poll nothing, so a
	// deadline or cancellation would otherwise never be noticed. The
	// watchdog covers exactly that window.
	var release func()
	if opt.Exporter != nil {
		release = opt.Exporter(&ExportHandle{r: r})
		joined := make(chan struct{})
		defer close(joined)
		go func() {
			var deadline <-chan time.Time
			if !opt.Deadline.IsZero() {
				t := time.NewTimer(time.Until(opt.Deadline))
				defer t.Stop()
				deadline = t.C
			}
			var done <-chan struct{}
			if opt.Context != nil {
				done = opt.Context.Done()
			}
			select {
			case <-joined:
			case <-done:
				r.stop(true)
			case <-deadline:
				r.stop(true)
			}
		}()
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go r.worker(wid, &wg)
	}
	wg.Wait()
	if release != nil {
		// After release the cluster layer stops touching the handle;
		// outstanding exports are requeued or dropped on its side.
		release()
	}

	order, obj := r.inc.best()
	st := r.st // all workers joined: their flushCounters merges are visible
	for _, d := range r.deques {
		if int64(d.maxDepth) > st.MaxDeque {
			st.MaxDeque = int64(d.maxDepth)
		}
	}
	return Result{
		Order:     order,
		Objective: obj,
		Proved:    !r.aborted.Load(),
		Nodes:     r.nodes.Load(),
		Fails:     r.fails.Load(),
		Solutions: int(r.solutions.Load()),
		Workers:   workers,
		Stats:     st,
	}
}

// splitDepth sizes the donation depth: deep enough that the frontier can
// hold roughly 32 subproblems per worker (so late steals still find
// work), shallow enough that donated subtrees stay large.
func splitDepth(explicit, n, workers int) int {
	if explicit > 0 {
		if explicit > n-1 {
			return n - 1
		}
		return explicit
	}
	d, width := 1, n
	for width < 32*workers && d < n-1 {
		d++
		width *= n - d + 1
	}
	return d
}
