package cp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// searchTrace is everything a search reports: its Result and the
// improving solutions OnSolution saw, in order, with objective bits.
type searchTrace struct {
	res  Result
	sols [][]int
	objs []uint64
}

func traced(solve func(Options) Result, opt Options) searchTrace {
	var tr searchTrace
	opt.OnSolution = func(order []int, obj float64) {
		tr.sols = append(tr.sols, slices.Clone(order))
		tr.objs = append(tr.objs, math.Float64bits(obj))
	}
	tr.res = solve(opt)
	return tr
}

// diffTraces describes the first difference between two traces, or
// returns "" when they are identical bit for bit.
func diffTraces(got, want searchTrace) string {
	g, w := got.res, want.res
	switch {
	case g.Nodes != w.Nodes || g.Fails != w.Fails || g.Solutions != w.Solutions || g.Proved != w.Proved:
		return fmt.Sprintf("nodes/fails/solutions/proved %d/%d/%d/%v, reference %d/%d/%d/%v",
			g.Nodes, g.Fails, g.Solutions, g.Proved, w.Nodes, w.Fails, w.Solutions, w.Proved)
	case g.Stats != w.Stats:
		return fmt.Sprintf("stats %+v, reference %+v", g.Stats, w.Stats)
	case math.Float64bits(g.Objective) != math.Float64bits(w.Objective):
		return fmt.Sprintf("objective %#x, reference %#x", math.Float64bits(g.Objective), math.Float64bits(w.Objective))
	case !slices.Equal(g.Order, w.Order):
		return fmt.Sprintf("order %v, reference %v", g.Order, w.Order)
	case !slices.Equal(got.objs, want.objs):
		return fmt.Sprintf("solution objectives %x, reference %x", got.objs, want.objs)
	}
	for k := range got.sols {
		if !slices.Equal(got.sols[k], want.sols[k]) {
			return fmt.Sprintf("solution %d: %v, reference %v", k, got.sols[k], want.sols[k])
		}
	}
	return ""
}

// refCase is one instance the live searcher is compared on, with the
// constraint set, start order and tail bound its searches draw from.
type refCase struct {
	name string
	c    *model.Compiled
	cs   *constraint.Set
	init []int
	tb   *prune.TailBound
}

func newRefCase(in *model.Instance, cs *constraint.Set, tailLen int) refCase {
	c := model.MustCompile(in)
	if cs == nil {
		cs = sched.PrecedenceSet(in)
	}
	return refCase{name: in.Name, c: c, cs: cs, init: greedy.Solve(c, cs),
		tb: prune.NewTailBound(c, cs, prune.Options{TailLength: tailLen})}
}

// randomOptions draws one search of the kinds LNS, VNS and the proofs
// run: some positions of cur frozen (or of a random permutation, which
// may contradict the constraints), a fail limit of 1 to 2000, a node
// limit, with or without cur as the incumbent — its objective given or
// left to Solve — and the ablation switches, the tail bound and an
// external bound.
func randomOptions(rng *rand.Rand, rc refCase, cur []int, curObj float64, maxNodes int64) Options {
	n := rc.c.N
	var opt Options
	switch rng.Intn(5) {
	case 0: // nothing frozen
	case 4:
		opt.Fixed = rng.Perm(n)
	default:
		opt.Fixed = slices.Clone(cur)
	}
	if opt.Fixed != nil {
		for range 1 + rng.Intn(min(n, 8)) {
			opt.Fixed[rng.Intn(n)] = -1
		}
	}
	if rng.Intn(4) > 0 {
		opt.FailLimit = 1 + rng.Int63n(2000)
	}
	opt.NodeLimit = 1 + rng.Int63n(maxNodes)
	switch rng.Intn(3) {
	case 1:
		opt.Incumbent = cur
	case 2:
		opt.Incumbent, opt.IncumbentObjective = cur, curObj
	}
	opt.NaiveBranching = rng.Intn(6) == 0
	opt.NoBound = rng.Intn(8) == 0
	opt.NoMemo = rng.Intn(8) == 0
	if rng.Intn(3) == 0 {
		opt.TailBound = rc.tb
	}
	if rng.Intn(5) == 0 {
		bound := curObj * (1 + 0.01*rng.Float64())
		opt.ExternalBound = func() float64 { return bound }
	}
	return opt
}

// checkReference runs searches random searches on one live Searcher, the
// way a local-search run reuses it (each improvement becomes the next
// start, as in VNS), and compares each with the reference on a fresh
// reference searcher.
func checkReference(t *testing.T, rc refCase, rng *rand.Rand, searches int, maxNodes int64) {
	t.Helper()
	s := NewSearcher(rc.c, rc.cs)
	cur := rc.init
	curObj := rc.c.Objective(cur)
	for k := 0; k < searches; k++ {
		opt := randomOptions(rng, rc, cur, curObj, maxNodes)
		got := traced(s.Solve, opt)
		want := traced(func(o Options) Result { return refSolve(rc.c, rc.cs, o) }, opt)
		if d := diffTraces(got, want); d != "" {
			t.Fatalf("%s search %d (fixed %v, fail limit %d, node limit %d, incumbent %v, naive %v, no bound %v, tail %v): %s",
				rc.name, k, opt.Fixed, opt.FailLimit, opt.NodeLimit, opt.Incumbent != nil,
				opt.NaiveBranching, opt.NoBound, opt.TailBound != nil, d)
		}
		if got.res.Solutions > 0 && opt.Incumbent != nil && opt.ExternalBound == nil {
			cur, curObj = got.res.Order, got.res.Objective
		}
	}
}

// TestSearcherMatchesReference compares the live searcher with the
// reference copy of the search it replaced, which walks the walker at
// every node and keeps no cache, on the solver test corpus, full TPC-DS
// (n=123) and random instances of 65 to 200 indexes (two- to four-word
// set keys): the full Result and every improving solution, bit for bit.
func TestSearcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, in := range memoCorpus() {
		checkReference(t, newRefCase(in, nil, 3), rng, 12, 20_000)
	}
	if testing.Short() {
		return
	}
	ds := model.MustCompile(datasets.TPCDS())
	dsCS, _ := prune.Analyze(ds, prune.Options{})
	checkReference(t, newRefCase(ds.Inst, dsCS, 2), rng, 150, 20_000)
	for _, n := range []int{65, 100, 130, 200} {
		checkReference(t, newRefCase(randomInstance(int64(n), n, 30), nil, 2), rng, 10, 10_000)
	}
}

func randomInstance(seed int64, n, queries int) *model.Instance {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = queries
	cfg.BuildInteractionProb = 0.05
	cfg.PrecedenceProb = 0.01
	return randgen.New(rand.New(rand.NewSource(seed)), cfg)
}

// FuzzSearcherReference is TestSearcherMatchesReference on random
// instances of 2 to 200 indexes and random search sequences.
func FuzzSearcherReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3))
	f.Add(int64(7), uint8(70), uint8(20))
	f.Add(int64(42), uint8(198), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, queries uint8) {
		in := randomInstance(seed, 2+int(n)%199, 1+int(queries)%40)
		rc := newRefCase(in, nil, 1+int(n)%3)
		checkReference(t, rc, rand.New(rand.NewSource(seed)), 4, 3000)
	})
}

// TestTPCH31NodesMatchesReference compares the 2M-node search of
// BenchmarkCPProof_TPCH31Nodes (full TPC-H n=31, memo and tail bound on)
// with the reference: the node budget ends both runs with the same
// fails, prune causes, improving solutions and objective bits.
func TestTPCH31NodesMatchesReference(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("two 2M-node searches")
	}
	c := model.MustCompile(datasets.TPCH())
	cs, _ := prune.Analyze(c, prune.Options{})
	opt := Options{NodeLimit: 2_000_000, Incumbent: greedy.Solve(c, cs), TailBound: prune.NewTailBound(c, cs, prune.Options{})}
	s := NewSearcher(c, cs)
	got := traced(s.Solve, opt)
	want := traced(func(o Options) Result { return refSolve(c, cs, o) }, opt)
	if d := diffTraces(got, want); d != "" {
		t.Fatal(d)
	}
	t.Logf("%d nodes, %d fails, %d memo cuts, %d walker pushes, objective %#x", got.res.Nodes, got.res.Fails,
		got.res.Stats.PrunedMemo, s.pushes, math.Float64bits(got.res.Objective))
}
