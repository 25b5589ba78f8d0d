// Allocation-regression tests: the branch-and-bound descent loop is
// allocation-free in steady state, and these pins make that a CI
// invariant rather than a benchmark anecdote. Budgets cover the fixed
// per-solve setup (searcher arenas, walker, frame-pool warmup) and are
// far below what even one allocation per node would produce on the
// chosen instances, so any per-node slice or closure creeping back into
// dfs/candidates/spawn/offer fails loudly here — not quietly in a
// BENCH_eval.json diff months later.
package cp

import (
	"runtime"
	"sync"
	"testing"

	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// TestAllocSerialDescent pins the per-solve allocation budget of the
// serial engine on an instance whose proof expands thousands of nodes:
// the cost must stay a fixed setup constant, independent of tree size.
func TestAllocSerialDescent(t *testing.T) {
	in, c := inst(5, 12)
	cs := sched.PrecedenceSet(in)
	tb := prune.NewTailBound(c, cs, prune.Options{})
	var res Result
	var published int
	allocs := testing.AllocsPerRun(5, func() {
		res = Solve(c, cs, Options{
			TailBound:  tb,
			OnSolution: func([]int, float64) { published++ },
		})
	})
	if !res.Proved {
		t.Fatal("serial proof did not exhaust")
	}
	if res.Nodes < 1000 {
		t.Fatalf("instance too easy (%d nodes) to witness allocation-freedom", res.Nodes)
	}
	if published == 0 {
		t.Fatal("OnSolution path not exercised")
	}
	t.Logf("serial: %.1f allocs/solve over %d nodes, %d improvements", allocs, res.Nodes, published)
	const serialBudget = 64 // fixed setup; ~0.05/node would already trip it
	if allocs > serialBudget {
		t.Fatalf("serial solve allocates %.1f/op (budget %d): per-node allocations are back", allocs, serialBudget)
	}
}

// TestAllocParallelSolve pins the parallel engine's per-solve budget:
// per-worker setup plus the frame-pool warmup (frames are recycled
// through per-worker free lists, so live frames — not spawns — bound
// the count). The proof expands tens of thousands of nodes and spawns
// thousands of subproblems; one allocation per spawn would blow the
// budget by an order of magnitude.
func TestAllocParallelSolve(t *testing.T) {
	in, c := inst(5, 12)
	cs := sched.PrecedenceSet(in)
	var res Result
	allocs := testing.AllocsPerRun(5, func() {
		res = Solve(c, cs, Options{Workers: 4, Seed: 1})
	})
	if !res.Proved {
		t.Fatal("parallel proof did not exhaust")
	}
	if res.Nodes < 1000 {
		t.Fatalf("instance too easy (%d nodes) to witness allocation-freedom", res.Nodes)
	}
	t.Logf("parallel W=4: %.1f allocs/solve over %d nodes", allocs, res.Nodes)
	const parallelBudget = 600
	if allocs > parallelBudget {
		t.Fatalf("parallel solve allocates %.1f/op (budget %d): the spawn/steal path is allocating again",
			allocs, parallelBudget)
	}
}

// TestAllocLNSShapedSolve pins the bytes one LNS-shaped solve costs:
// all but three positions frozen, once fail-limited as LNS runs it
// (without the memo) and once exhaustive, where the memo is live. LNS calls the engine once per
// relaxation, so the memo table must start small and grow only with
// use; a table sized for 2^n sets up front would allocate megabytes.
func TestAllocLNSShapedSolve(t *testing.T) {
	in, c := inst(5, 20)
	cs := sched.PrecedenceSet(in)
	cur := greedy.Solve(c, cs)
	fixed := append([]int(nil), cur...)
	for _, p := range []int{3, 9, 14} {
		fixed[p] = -1
	}
	for _, failLimit := range []int64{500, 0} {
		opt := Options{FailLimit: failLimit, Incumbent: cur, Fixed: fixed}
		Solve(c, cs, opt) // warm up lazily built model state
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res Result
		for r := 0; r < runs; r++ {
			res = Solve(c, cs, opt)
		}
		runtime.ReadMemStats(&after)
		perSolve := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("n=%d, fail limit %d: %.0f B over %d nodes, %d memo cuts",
			c.N, failLimit, perSolve, res.Nodes, res.Stats.PrunedMemo)
		if failLimit > 0 && res.Stats.PrunedMemo != 0 {
			t.Fatalf("fail-limited solve made %d memo cuts; LNS relaxations run without the memo", res.Stats.PrunedMemo)
		}
		if failLimit == 0 && (!res.Proved || res.Stats.PrunedMemo == 0) {
			t.Fatalf("exhaustive neighbourhood: proved=%v with %d memo cuts; the memo path is not exercised",
				res.Proved, res.Stats.PrunedMemo)
		}
		const budget = 16 << 10
		if perSolve > budget {
			t.Fatalf("fail limit %d: solve allocates %.0f B (budget %d): per-solve tables are sized up front again",
				failLimit, perSolve, budget)
		}
	}
}

// TestAllocIncumbentOffer pins the steady-state incumbent publish path
// at exactly zero: after the first offer has grown the internal
// buffers, improving offers (including the OnSolution callback) must
// not allocate.
func TestAllocIncumbentOffer(t *testing.T) {
	const n = 16
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var published int
	inc := newIncumbent(func([]int, float64) { published++ })
	obj := 1e9
	inc.offer(order, obj) // warmup: sizes order and callback buffers
	allocs := testing.AllocsPerRun(200, func() {
		obj--
		if !inc.offer(order, obj) {
			t.Fatal("offer with improving objective rejected")
		}
	})
	if published == 0 {
		t.Fatal("OnSolution never invoked")
	}
	if allocs != 0 {
		t.Fatalf("steady-state incumbent offer allocates %.1f/op, want 0", allocs)
	}
}

// TestIncumbentConcurrentOffers hammers the shared incumbent from many
// goroutines (run under -race in CI): offers, lock-free objective
// reads, and best() snapshots interleave freely, yet the callback must
// observe a strictly decreasing objective sequence and the final state
// must be the global minimum offered.
func TestIncumbentConcurrentOffers(t *testing.T) {
	const goroutines = 8
	const offersPer = 300
	const n = 12
	var published []float64
	inc := newIncumbent(func(o []int, obj float64) {
		// Serialized under the incumbent lock per the OnSolution contract.
		published = append(published, obj)
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := make([]int, n)
			for i := range order {
				order[i] = (i + g) % n
			}
			for k := 0; k < offersPer; k++ {
				inc.offer(order, float64(10_000_000-g-goroutines*k))
				_ = inc.objective()
				if k%17 == 0 {
					inc.best()
				}
			}
		}(g)
	}
	wg.Wait()

	wantObj := float64(10_000_000 - (goroutines - 1) - goroutines*(offersPer-1))
	order, obj := inc.best()
	if obj != wantObj {
		t.Fatalf("final objective %v, want %v", obj, wantObj)
	}
	wantFirst := (goroutines - 1) % n
	if len(order) != n || order[0] != wantFirst {
		t.Fatalf("final order %v does not match the minimal offer (want first element %d)", order, wantFirst)
	}
	for k := 1; k < len(published); k++ {
		if published[k] >= published[k-1] {
			t.Fatalf("callback objectives not strictly decreasing: %v then %v at %d",
				published[k-1], published[k], k)
		}
	}
}
