// Allocation-regression tests: the branch-and-bound descent loop is
// allocation-free in steady state, and these pins make that a CI
// invariant rather than a benchmark anecdote. Budgets cover the fixed
// per-solve setup (searcher arenas, walker, frame-pool warmup) and are
// far below what even one allocation per node would produce on the
// chosen instances, so any per-node slice or closure creeping back into
// dfs/candidates fails loudly here — not quietly in a benchmark diff
// months later.
package cp

import (
	"math"
	"runtime"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
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

// proofN20Low is the proof pipeline's configuration on reduced TPC-H
// n=20 at low density: §5 analysis constraints, a greedy incumbent and
// the tail bound, built once outside the search as the registry does.
func proofN20Low() (*model.Compiled, *constraint.Set, []int, *prune.TailBound) {
	c := model.MustCompile(datasets.ReducedTPCH(20, datasets.Low))
	cs, _ := prune.Analyze(c, prune.Options{})
	return c, cs, greedy.Solve(c, cs), prune.NewTailBound(c, cs, prune.Options{})
}

// proofAllocCeiling is the allocation ceiling of one complete search on
// the instances below: fixed per-solve setup plus a dozen memo table
// doublings come to well under a hundred, and one allocation per node
// would be thousands to millions.
const proofAllocCeiling = 500

// TestAllocProofN20Low pins the allocations of one complete proof of
// the reduced TPC-H n=20 instance (about 8k nodes).
func TestAllocProofN20Low(t *testing.T) {
	c, cs, init, tb := proofN20Low()
	var res Result
	allocs := testing.AllocsPerRun(3, func() {
		res = Solve(c, cs, Options{Incumbent: init, TailBound: tb})
	})
	if !res.Proved {
		t.Fatal("proof did not exhaust")
	}
	t.Logf("%.0f allocs per proof over %d nodes", allocs, res.Nodes)
	if allocs > proofAllocCeiling {
		t.Fatalf("proof allocates %.0f times (ceiling %d): per-node allocations are back", allocs, proofAllocCeiling)
	}
}

// TestAllocInstrumentedProof runs the same proof the way the portfolio
// embeds it: an OnSolution callback and an ExternalBound polled at
// every node. Neither may add allocations on the descent path.
func TestAllocInstrumentedProof(t *testing.T) {
	c, cs, init, tb := proofN20Low()
	var res Result
	var published int
	onSol := func([]int, float64) { published++ }
	bound := func() float64 { return math.Inf(1) } // polled per node, never prunes
	allocs := testing.AllocsPerRun(3, func() {
		res = Solve(c, cs, Options{Incumbent: init, TailBound: tb, OnSolution: onSol, ExternalBound: bound})
	})
	if !res.Proved {
		t.Fatal("proof did not exhaust")
	}
	if published == 0 {
		t.Fatal("OnSolution path not exercised")
	}
	t.Logf("%.0f allocs per instrumented proof over %d nodes", allocs, res.Nodes)
	if allocs > proofAllocCeiling {
		t.Fatalf("instrumented proof allocates %.0f times (ceiling %d): instrumentation allocates", allocs, proofAllocCeiling)
	}
}

// TestAllocTPCH31Nodes pins the allocations of a 2M-node search on the
// full n=31 TPC-H instance, far from exhausting: a per-node allocation
// would cost millions here.
func TestAllocTPCH31Nodes(t *testing.T) {
	if raceEnabled {
		t.Skip("a 2M-node search is slow under the race detector; the n=20 proofs cover it there")
	}
	c := model.MustCompile(datasets.TPCH())
	cs, _ := prune.Analyze(c, prune.Options{})
	init := greedy.Solve(c, cs)
	tb := prune.NewTailBound(c, cs, prune.Options{})
	const nodeBudget = 2_000_000
	var res Result
	allocs := testing.AllocsPerRun(1, func() {
		res = Solve(c, cs, Options{NodeLimit: nodeBudget, Incumbent: init, TailBound: tb})
	})
	if res.Nodes < nodeBudget {
		t.Fatalf("search ended after %d nodes", res.Nodes)
	}
	t.Logf("%.0f allocs over %d nodes", allocs, res.Nodes)
	if allocs > proofAllocCeiling {
		t.Fatalf("2M-node search allocates %.0f times (ceiling %d): per-node allocations are back", allocs, proofAllocCeiling)
	}
}
