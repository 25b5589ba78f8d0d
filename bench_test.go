// Benchmarks regenerating the paper's evaluation artifacts, one target
// per table/figure (cmd/iddbench runs the same experiments), plus
// micro-benchmarks for the hot paths. Benchmark budgets are step-bounded
// so -bench=. completes in minutes; use cmd/iddbench for full-budget
// runs.
package idd_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/experiments"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/dp"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/local"
	"github.com/evolving-olap/idd/internal/solver/mip"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
	"github.com/evolving-olap/idd/internal/tpch"
)

// --- Table 4: dataset statistics (the advisor/what-if pipeline) ---

func BenchmarkTable4_TPCHPipeline(b *testing.B) {
	s, q := tpch.Schema(), tpch.Queries()
	for i := 0; i < b.N; i++ {
		in, _, err := advisor.BuildInstance("tpch", s, q, advisor.Options{
			MaxIndexes: 32, MaxPlansPerQuery: 20, MinBuildInteraction: 0.22,
		})
		if err != nil {
			b.Fatal(err)
		}
		if in.Stats().Queries != 22 {
			b.Fatal("bad instance")
		}
	}
}

func BenchmarkTable4_Stats(b *testing.B) {
	in := datasets.TPCH()
	for i := 0; i < b.N; i++ {
		if in.Stats().Indexes == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Table 5: exact search ---

func benchCP(b *testing.B, n int, density datasets.Density, analyzed bool) {
	in := datasets.ReducedTPCH(n, density)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	if analyzed {
		cs, _ = prune.Analyze(c, prune.Options{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cp.Solve(c, cs, cp.Options{NodeLimit: 200000})
		if res.Order == nil {
			b.Fatal("no solution")
		}
	}
}

func BenchmarkTable5_CP_N6Low(b *testing.B)   { benchCP(b, 6, datasets.Low, false) }
func BenchmarkTable5_CP_N11Low(b *testing.B)  { benchCP(b, 11, datasets.Low, false) }
func BenchmarkTable5_CPp_N6Low(b *testing.B)  { benchCP(b, 6, datasets.Low, true) }
func BenchmarkTable5_CPp_N13Low(b *testing.B) { benchCP(b, 13, datasets.Low, true) }
func BenchmarkTable5_CPp_N16Mid(b *testing.B) { benchCP(b, 16, datasets.Mid, true) }

func BenchmarkTable5_MIP_N6Low(b *testing.B) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Node-limited: a full proof takes ~10s;
		// the bench measures per-node cost of the time-indexed model.
		if _, err := mip.Solve(c, nil, mip.Options{TimestepsPerIndex: 3, NodeLimit: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_VNS_N31Full(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	init := greedy.Solve(c, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local.VNS(c, nil, local.Options{
			Initial: init, MaxSteps: 20000, Rng: rand.New(rand.NewSource(int64(i))),
		})
	}
}

// --- Table 6: pruning drill-down (analysis cost itself) ---

func benchAnalyze(b *testing.B, props prune.Property) {
	c := model.MustCompile(datasets.ReducedTPCH(13, datasets.Low))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prune.Analyze(c, prune.Options{Properties: props})
	}
}

func BenchmarkTable6_AnalyzeA(b *testing.B)     { benchAnalyze(b, prune.Alliances) }
func BenchmarkTable6_AnalyzeAC(b *testing.B)    { benchAnalyze(b, prune.Alliances|prune.Colonized) }
func BenchmarkTable6_AnalyzeACMDT(b *testing.B) { benchAnalyze(b, prune.All) }

func BenchmarkTable6_CPDrilldown(b *testing.B) {
	c := model.MustCompile(datasets.ReducedTPCH(11, datasets.Low))
	cs, _ := prune.Analyze(c, prune.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Solve(c, cs, cp.Options{NodeLimit: 200000})
	}
}

// --- Table 7: initial solutions ---

func BenchmarkTable7_Greedy_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	for i := 0; i < b.N; i++ {
		greedy.Solve(c, nil)
	}
}

func BenchmarkTable7_Greedy_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy.Solve(c, nil)
	}
}

func BenchmarkTable7_DP_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	for i := 0; i < b.N; i++ {
		dp.Solve(c)
	}
}

func BenchmarkTable7_DP_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.Solve(c)
	}
}

func BenchmarkTable7_Random100_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 100; k++ {
			c.Objective(rng.Perm(c.N))
		}
	}
}

// --- Figures 11/12: anytime local search (step-bounded) ---

func benchLocal(b *testing.B, c *model.Compiled, run func(opt local.Options) local.Result) {
	init := greedy.Solve(c, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(local.Options{Initial: init, MaxSteps: 10000, Rng: rand.New(rand.NewSource(int64(i)))})
	}
}

func BenchmarkFigure11_VNS_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	benchLocal(b, c, func(o local.Options) local.Result { return local.VNS(c, nil, o) })
}

func BenchmarkFigure11_LNS_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	benchLocal(b, c, func(o local.Options) local.Result { return local.LNS(c, nil, o) })
}

func BenchmarkFigure11_TSBSwap_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	benchLocal(b, c, func(o local.Options) local.Result { return local.TabuBSwap(c, nil, o) })
}

func BenchmarkFigure11_TSFSwap_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	benchLocal(b, c, func(o local.Options) local.Result { return local.TabuFSwap(c, nil, o) })
}

func BenchmarkFigure12_VNS_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	benchLocal(b, c, func(o local.Options) local.Result { return local.VNS(c, nil, o) })
}

func BenchmarkFigure12_TSFSwap_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	benchLocal(b, c, func(o local.Options) local.Result { return local.TabuFSwap(c, nil, o) })
}

func BenchmarkFigure13_VNSDecomposed_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	init := greedy.Solve(c, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local.VNS(c, nil, local.Options{
			Initial: init, MaxSteps: 10000, Rng: rand.New(rand.NewSource(int64(i))),
			OnImprove: func(order []int, _ float64) { c.Evaluate(order) },
		})
	}
}

// --- CP proofs: the serial proof pipeline at full size ---
//
// BenchmarkCPProof_N20Low is a complete optimality proof of the reduced
// TPC-H n=20 instance (low density, analyzed constraints, greedy
// incumbent, tail bound — 21.8M nodes without the subset-dominance
// memo, 8,260 with it), reporting nodes/op next to the time.
// BenchmarkCPProof_TPCH31Nodes measures the same engine on the full
// n=31 TPC-H instance under a fixed 2M-node budget: the complete proof
// is beyond reach (>4e8 nodes without exhausting), so node throughput
// at an equal budget is the comparable metric there. Their allocation
// ceilings are pinned in internal/solver/cp/alloc_test.go.

func BenchmarkCPProof_N20Low(b *testing.B) {
	in := datasets.ReducedTPCH(20, datasets.Low)
	c := model.MustCompile(in)
	cs, _ := prune.Analyze(c, prune.Options{})
	init := greedy.Solve(c, cs)
	// Production configuration (registry default): the tail tables are
	// preprocessing, built once per request outside the search.
	tb := prune.NewTailBound(c, cs, prune.Options{})
	var nodes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cp.Solve(c, cs, cp.Options{Incumbent: init, TailBound: tb})
		if !res.Proved {
			b.Fatal("proof did not complete")
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkCPProof_TPCH31Nodes(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	cs, _ := prune.Analyze(c, prune.Options{})
	init := greedy.Solve(c, cs)
	tb := prune.NewTailBound(c, cs, prune.Options{})
	const nodeBudget = 2_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cp.Solve(c, cs, cp.Options{NodeLimit: nodeBudget, Incumbent: init, TailBound: tb})
		if res.Nodes < nodeBudget {
			b.Fatalf("search ended after %d nodes", res.Nodes)
		}
	}
}

// --- Portfolio: concurrent racing with a shared incumbent ---

func benchPortfolio(b *testing.B, workers int) {
	in := datasets.ReducedTPCH(16, datasets.Mid)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := portfolio.Solve(context.Background(), c, cs, portfolio.Options{
			Backends:  []string{"greedy", "cp", "tabu-f", "lns", "vns"},
			Workers:   workers,
			Budget:    200 * time.Millisecond,
			StepLimit: 20000,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Order == nil {
			b.Fatal("no order")
		}
	}
}

func BenchmarkPortfolio_Workers1(b *testing.B) { benchPortfolio(b, 1) }
func BenchmarkPortfolio_Workers4(b *testing.B) { benchPortfolio(b, 4) }

func BenchmarkPortfolio_TPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := portfolio.Solve(context.Background(), c, nil, portfolio.Options{
			Budget:    250 * time.Millisecond,
			StepLimit: 15000,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Order == nil {
			b.Fatal("no order")
		}
	}
}

func BenchmarkMicro_PortfolioStore(b *testing.B) {
	// The incumbent store's hot paths: the lock-free poll every anytime
	// solver issues per iteration, plus an occasional improving offer.
	s := portfolio.NewStore(31, nil)
	order := sched.Identity(31)
	s.Offer("seed", order, 1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BetterThan(0)
		if i%1024 == 0 {
			s.Offer("bench", order, 1e9-float64(i))
		}
	}
}

// --- Micro-benchmarks: evaluation hot paths ---

func BenchmarkMicro_ObjectiveTPCH(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	order := sched.Identity(c.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Objective(order)
	}
}

func BenchmarkMicro_ObjectiveTPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	order := sched.Identity(c.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Objective(order)
	}
}

func BenchmarkMicro_WalkerPushPop(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	w := model.NewWalker(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Push(i % c.N)
		w.Pop()
	}
}

func BenchmarkMicro_SwapDelta(b *testing.B) {
	// The TS-BSwap inner loop: evaluate a neighboring order.
	c := model.MustCompile(datasets.TPCDS())
	order := sched.Identity(c.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, bb := i%c.N, (i*7+1)%c.N
		order[a], order[bb] = order[bb], order[a]
		c.Objective(order)
		order[a], order[bb] = order[bb], order[a]
	}
}

// --- MoveEval: delta move scoring vs the seed's full-replay path ---
//
// BenchmarkMoveEval_Swap/Insert are the acceptance benchmarks for the
// delta-evaluation core: 0 allocs/op in steady state and ≥3× the
// throughput of the seed's full-replay move scoring on the N=31 full
// TPC-H instance (~4.7× measured against the seed commit's own
// benchmark; the seed scored every move by copying the order and
// replaying it through a freshly allocated pre-CSR Walker, ~5.6µs/70
// allocs per move). BenchmarkMoveEval_FullReplay_* below is the same
// replay pattern against today's walker — a conservative same-binary
// comparator (~2.4-3×), smaller only because the delta-evaluation
// rewrite also made full replays themselves ~2× faster.

// moveEvalPairs precomputes a deterministic random move stream so the
// measured loop does no RNG work and both sides score identical moves.
func moveEvalPairs(n, count int) [][2]int {
	rng := rand.New(rand.NewSource(7))
	out := make([][2]int, count)
	for i := range out {
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		out[i] = [2]int{a, b}
	}
	return out
}

func BenchmarkMoveEval_Swap(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	e := model.NewMoveEval(c, sched.Identity(c.N))
	pairs := moveEvalPairs(c.N, 1024)
	for i := 0; i < 1024; i++ { // warm the evaluator's reusable buffers
		e.Swap(pairs[i][0], pairs[i][1])
		e.Reject()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		e.Swap(p[0], p[1])
		e.Reject()
	}
}

func BenchmarkMoveEval_Insert(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	e := model.NewMoveEval(c, sched.Identity(c.N))
	pairs := moveEvalPairs(c.N, 1024)
	for i := 0; i < 1024; i++ {
		e.Insert(pairs[i][0], pairs[i][1])
		e.Reject()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		e.Insert(p[0], p[1])
		e.Reject()
	}
}

func BenchmarkMoveEval_ApplyCommit(b *testing.B) {
	// Accepted-move cost: score + incremental commit (pairs of swaps, so
	// the order returns to its start state every two iterations).
	c := model.MustCompile(datasets.TPCH())
	e := model.NewMoveEval(c, sched.Identity(c.N))
	pairs := moveEvalPairs(c.N, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1022] // even index: each pair applied twice = undone
		e.Swap(p[0], p[1])
		e.Apply()
	}
}

func BenchmarkMoveEval_FullReplay_Swap(b *testing.B) {
	// The seed's move-scoring path, reproduced verbatim: copy the order,
	// apply the swap, evaluate with a freshly allocated Walker.
	c := model.MustCompile(datasets.TPCH())
	order := sched.Identity(c.N)
	cand := make([]int, c.N)
	pairs := moveEvalPairs(c.N, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		copy(cand, order)
		sched.ApplySwap(cand, p[0], p[1])
		w := model.NewWalker(c)
		for _, ix := range cand {
			w.Push(ix)
		}
		_ = w.Objective()
	}
}

func BenchmarkMoveEval_FullReplay_Insert(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	order := sched.Identity(c.N)
	cand := make([]int, c.N)
	pairs := moveEvalPairs(c.N, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		copy(cand, order)
		sched.ApplyInsert(cand, p[0], p[1])
		w := model.NewWalker(c)
		for _, ix := range cand {
			w.Push(ix)
		}
		_ = w.Objective()
	}
}

// Guard: the experiments harness stays runnable end to end with tiny
// budgets (smoke check for iddbench).
func TestHarnessSmoke(t *testing.T) {
	cfg := experiments.Config{
		ExactBudget: 100 * time.Millisecond,
		LocalBudget: 150 * time.Millisecond,
		Seed:        1,
		Points:      3,
	}
	if rows := experiments.RunTable7(cfg); len(rows) != 2 {
		t.Fatalf("table 7 rows: %d", len(rows))
	}
	if s := experiments.RunFigure11(cfg); len(s) == 0 {
		t.Fatal("figure 11 empty")
	}
}

// --- Ablation benches: the CP engine's design choices, one switched off at a time ---

func benchCPAblation(b *testing.B, opt cp.Options) {
	c := model.MustCompile(datasets.ReducedTPCH(11, datasets.Low))
	cs, _ := prune.Analyze(c, prune.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cp.Solve(c, cs, opt)
		if !res.Proved {
			b.Fatal("ablation run did not finish")
		}
	}
}

func BenchmarkAblation_CP_Full(b *testing.B) { benchCPAblation(b, cp.Options{}) }
func BenchmarkAblation_CP_NaiveBranching(b *testing.B) {
	benchCPAblation(b, cp.Options{NaiveBranching: true})
}
func BenchmarkAblation_CP_NoBound(b *testing.B) { benchCPAblation(b, cp.Options{NoBound: true}) }
func BenchmarkAblation_CP_NoMemo(b *testing.B)  { benchCPAblation(b, cp.Options{NoMemo: true}) }

func BenchmarkAblation_PruneProperties(b *testing.B) {
	// Marginal value of the full property set vs alliances alone, as
	// CP search effort (nodes are deterministic; time is the metric).
	c := model.MustCompile(datasets.ReducedTPCH(13, datasets.Low))
	for _, step := range []struct {
		name  string
		props prune.Property
	}{
		{"A", prune.Alliances},
		{"ACMDT", prune.All},
	} {
		b.Run(step.name, func(b *testing.B) {
			cs, _ := prune.Analyze(c, prune.Options{Properties: step.props})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp.Solve(c, cs, cp.Options{NodeLimit: 500000})
			}
		})
	}
}

func BenchmarkAblation_VNSGroupSize(b *testing.B) {
	// VNS adaptation granularity (§7.3 uses groups of 20).
	c := model.MustCompile(datasets.TPCH())
	init := greedy.Solve(c, nil)
	for _, g := range []int{5, 20, 80} {
		b.Run(itob(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				local.VNS(c, nil, local.Options{
					Initial: init, MaxSteps: 8000, GroupSize: g,
					Rng: rand.New(rand.NewSource(int64(i))),
				})
			}
		})
	}
}

func itob(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Scalability: VNS on growing synthetic instances (the paper's
// headline claim is that VNS stays robust into hundreds of indexes) ---

func benchVNSScale(b *testing.B, n int) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = n
	in := randgen.New(rand.New(rand.NewSource(9)), cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	init := greedy.Solve(c, cs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local.VNS(c, cs, local.Options{
			Initial: init, MaxSteps: 5000, Rng: rand.New(rand.NewSource(int64(i))),
		})
	}
}

func BenchmarkScaling_VNS_N50(b *testing.B)  { benchVNSScale(b, 50) }
func BenchmarkScaling_VNS_N100(b *testing.B) { benchVNSScale(b, 100) }
func BenchmarkScaling_VNS_N200(b *testing.B) { benchVNSScale(b, 200) }

func BenchmarkScaling_Greedy_N200(b *testing.B) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 200
	cfg.Queries = 200
	in := randgen.New(rand.New(rand.NewSource(9)), cfg)
	c := model.MustCompile(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy.Solve(c, nil)
	}
}

func BenchmarkScaling_PruneAnalyze_TPCDS(b *testing.B) {
	c := model.MustCompile(datasets.TPCDS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prune.Analyze(c, prune.Options{})
	}
}
