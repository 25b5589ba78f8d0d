package cp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

func inst(seed int64, n int) (*model.Instance, *model.Compiled) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = 6
	cfg.BuildInteractionProb = 0.1
	in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
	return in, model.MustCompile(in)
}

func TestMatchesBruteforceOptimum(t *testing.T) {
	f := func(seed int64) bool {
		_, c := inst(seed, 7)
		bf, err := bruteforce.Solve(c, nil, true)
		if err != nil {
			return false
		}
		res := Solve(c, nil, Options{})
		if !res.Proved {
			return false
		}
		return math.Abs(res.Objective-bf.Objective) < 1e-9*(1+bf.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesBruteforceWithPrecedences(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	cfg.PrecedenceProb = 0.25
	for rep := 0; rep < 8; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		res := Solve(c, cs, Options{})
		if !res.Proved {
			t.Fatal("search not exhausted on a 7-index instance")
		}
		if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("rep %d: cp %v != bf %v", rep, res.Objective, bf.Objective)
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestAnalysisConstraintsSpeedSearch(t *testing.T) {
	// Adding valid constraints (derived from the optimum itself) must not
	// change the objective but must shrink the node count — the §5 story.
	_, c := inst(33, 8)
	base := Solve(c, nil, Options{})
	if !base.Proved {
		t.Fatal("base search not exhausted")
	}
	cs := constraint.NewSet(c.N)
	// Constrain the true optimal order's first element to be first and
	// last to be last (a "tail champion"-style constraint).
	opt := base.Order
	for _, i := range opt[1:] {
		cs.MustAdd(opt[0], i)
	}
	for _, i := range opt[:len(opt)-1] {
		cs.MustAdd(i, opt[len(opt)-1])
	}
	constrained := Solve(c, cs, Options{})
	if !constrained.Proved {
		t.Fatal("constrained search not exhausted")
	}
	if math.Abs(constrained.Objective-base.Objective) > 1e-9*(1+base.Objective) {
		t.Fatalf("constraints changed the optimum: %v vs %v", constrained.Objective, base.Objective)
	}
	if constrained.Nodes >= base.Nodes {
		t.Errorf("constraints did not reduce nodes: %d >= %d", constrained.Nodes, base.Nodes)
	}
}

func TestFailLimitAborts(t *testing.T) {
	_, c := inst(5, 10)
	res := Solve(c, nil, Options{FailLimit: 10})
	if res.Proved {
		t.Fatal("10-fail search claimed an optimality proof on 10 indexes")
	}
	if res.Fails < 10 {
		t.Fatalf("aborted with only %d fails", res.Fails)
	}
}

func TestNodeLimitAborts(t *testing.T) {
	_, c := inst(5, 10)
	res := Solve(c, nil, Options{NodeLimit: 50})
	if res.Proved {
		t.Fatal("node-limited search claimed a proof")
	}
}

func TestDeadlineAborts(t *testing.T) {
	_, c := inst(5, 22) // not provable within seconds
	start := time.Now()
	res := Solve(c, nil, Options{Deadline: start.Add(30 * time.Millisecond)})
	if res.Proved {
		t.Skip("instance solved to optimality before the deadline")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline ignored")
	}
}

// TestContextCancelsPromptly cancels the context from inside the search:
// the ExternalBound callback, polled at every node, cancels after a fixed
// number of polls and returns +Inf, so pruning is unchanged. The search
// must then stop within one context-poll stride, unproved, with the
// incumbent its first dives found.
func TestContextCancelsPromptly(t *testing.T) {
	in, c := inst(5, 20) // far beyond provable in the polls allowed
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5000
	polls := 0
	res := Solve(c, nil, Options{Context: ctx, ExternalBound: func() float64 {
		if polls++; polls == cancelAt {
			cancel()
		}
		return math.Inf(1)
	}})
	if res.Proved {
		t.Fatalf("search proved after %d nodes; it was cancelled at poll %d", res.Nodes, cancelAt)
	}
	if polls < cancelAt || polls > cancelAt+2*pollStride+2 {
		t.Fatalf("search polled the bound %d times; cancelled at %d, the context is polled every %d nodes",
			polls, cancelAt, pollStride)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("cancelled search lost its incumbent: %v", err)
	}
}

// TestExternalBoundProof: an external bound at the optimum prunes every
// subtree; exhausting the tree then proves the external incumbent
// optimal even though this search never produced an order of its own.
func TestExternalBoundProof(t *testing.T) {
	_, c := inst(6, 7)
	opt := Solve(c, nil, Options{})
	polls := 0
	res := Solve(c, nil, Options{ExternalBound: func() float64 {
		polls++
		return opt.Objective
	}})
	if !res.Proved {
		t.Fatal("externally bounded search did not exhaust")
	}
	if res.Order != nil || res.Solutions != 0 {
		t.Fatalf("no order should beat the external optimum, got %v (%d solutions)", res.Order, res.Solutions)
	}
	if polls == 0 {
		t.Fatal("external bound never polled")
	}
	if res.Nodes >= opt.Nodes {
		t.Errorf("external optimum did not shrink the tree: %d nodes vs %d unbounded", res.Nodes, opt.Nodes)
	}
}

// TestDeprecatedOptionsIgnored: Workers no longer selects or perturbs
// anything, so setting it gives the serial search exactly.
func TestDeprecatedOptionsIgnored(t *testing.T) {
	c, cs, init, tb := proofN20Low()
	ref := Solve(c, cs, Options{Incumbent: init, TailBound: tb})
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"workers", Options{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Incumbent, opt.TailBound = init, tb
			res := Solve(c, cs, opt)
			if res.Nodes != ref.Nodes || res.Fails != ref.Fails ||
				res.Solutions != ref.Solutions || res.Stats != ref.Stats || res.Proved != ref.Proved {
				t.Fatalf("search differs from the default options:\n%+v\n%+v", res.Stats, ref.Stats)
			}
			if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
				t.Fatalf("objective %x, want %x", math.Float64bits(res.Objective), math.Float64bits(ref.Objective))
			}
			for k := range ref.Order {
				if res.Order[k] != ref.Order[k] {
					t.Fatalf("order %v, want %v", res.Order, ref.Order)
				}
			}
		})
	}
}

func TestIncumbentOnlyImprovedUpon(t *testing.T) {
	_, c := inst(6, 7)
	opt := Solve(c, nil, Options{})
	// Seeding with the optimum: no improving solution can exist.
	res := Solve(c, nil, Options{Incumbent: opt.Order})
	if res.Solutions != 0 {
		t.Errorf("found %d 'improving' solutions over the optimum", res.Solutions)
	}
	if math.Abs(res.Objective-opt.Objective) > 1e-9 {
		t.Errorf("objective drifted: %v vs %v", res.Objective, opt.Objective)
	}
	if !res.Proved {
		t.Error("seeded search should still prove optimality")
	}
}

func TestFixedPositionsRespected(t *testing.T) {
	_, c := inst(8, 7)
	full := Solve(c, nil, Options{})
	// Freeze everything except positions 2 and 4: the search must keep
	// the frozen entries and only permute the free ones.
	fixed := append([]int(nil), full.Order...)
	free := map[int]bool{2: true, 4: true}
	for p := range fixed {
		if free[p] {
			fixed[p] = -1
		}
	}
	res := Solve(c, nil, Options{Fixed: fixed, Incumbent: full.Order})
	if !res.Proved {
		t.Fatal("tiny LNS neighborhood not exhausted")
	}
	for p, want := range full.Order {
		if free[p] {
			continue
		}
		if res.Order[p] != want {
			t.Errorf("frozen position %d changed: %d -> %d", p, want, res.Order[p])
		}
	}
	if res.Objective > full.Objective+1e-9 {
		t.Errorf("relaxation worsened the incumbent: %v > %v", res.Objective, full.Objective)
	}
}

func TestContradictoryFixedYieldsIncumbent(t *testing.T) {
	in, c := inst(9, 5)
	cs := constraint.NewSet(c.N)
	cs.MustAdd(0, 1)
	// Pin 1 to position 0 and 0 to position 1, contradicting 0<1.
	fixed := []int{1, 0, -1, -1, -1}
	seed := sched.RandomFeasible(rand.New(rand.NewSource(1)), cs)
	res := Solve(c, cs, Options{Fixed: fixed, Incumbent: seed})
	if !res.Proved {
		t.Fatal("contradictory neighborhood should exhaust instantly")
	}
	if res.Solutions != 0 {
		t.Fatal("contradiction produced solutions")
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("incumbent not preserved: %v", err)
	}
}

func TestOnSolutionMonotone(t *testing.T) {
	_, c := inst(10, 8)
	last := math.Inf(1)
	calls := 0
	Solve(c, nil, Options{OnSolution: func(order []int, obj float64) {
		calls++
		if obj >= last {
			t.Errorf("non-improving callback: %v after %v", obj, last)
		}
		last = obj
		if len(order) != c.N {
			t.Errorf("callback order has %d entries", len(order))
		}
	}})
	if calls == 0 {
		t.Fatal("no solutions reported")
	}
}

func TestDensityBranchingFindsGoodFirstSolution(t *testing.T) {
	// The first solution the CP search dives to should already be decent:
	// no worse than 2x the optimum on small instances (density ordering).
	rng := rand.New(rand.NewSource(12))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	for rep := 0; rep < 10; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		var first float64
		got := false
		res := Solve(c, nil, Options{OnSolution: func(_ []int, obj float64) {
			if !got {
				first, got = obj, true
			}
		}})
		if !got {
			t.Fatal("no solution callback")
		}
		if first > 2*res.Objective {
			t.Errorf("rep %d: first dive %v > 2x optimum %v", rep, first, res.Objective)
		}
	}
}

func TestAblationSwitchesStayExact(t *testing.T) {
	// The ablation switches change search effort, never the optimum.
	_, c := inst(44, 7)
	ref := Solve(c, nil, Options{})
	for _, opt := range []Options{
		{NaiveBranching: true},
		{NoBound: true},
		{NaiveBranching: true, NoBound: true},
	} {
		res := Solve(c, nil, opt)
		if !res.Proved {
			t.Fatalf("%+v: not proved", opt)
		}
		if math.Abs(res.Objective-ref.Objective) > 1e-9*(1+ref.Objective) {
			t.Errorf("%+v: objective %v != %v", opt, res.Objective, ref.Objective)
		}
	}
}

func TestBoundReducesNodes(t *testing.T) {
	_, c := inst(45, 8)
	with := Solve(c, nil, Options{})
	without := Solve(c, nil, Options{NoBound: true})
	if !with.Proved || !without.Proved {
		t.Fatal("searches not exhausted")
	}
	if with.Nodes >= without.Nodes {
		t.Errorf("bound did not reduce nodes: %d vs %d", with.Nodes, without.Nodes)
	}
}

// TestSearcherReuseMatchesFresh runs a sequence of differently
// configured searches on one Searcher — LNS-style relaxations with and
// without a fail limit, node-limited aborts, full proofs with the memo
// and the tail bound — and requires each to return exactly what Solve on
// a fresh Searcher returns: work counts, prune causes, order and
// objective bits.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	c, cs, init, tb := proofN20Low()
	rng := rand.New(rand.NewSource(3))
	var opts []Options
	for r := 0; r < 12; r++ {
		fixed := append([]int(nil), init...)
		for _, p := range rng.Perm(c.N)[:2+r%5] {
			fixed[p] = -1
		}
		opts = append(opts, Options{FailLimit: int64(50 * (r % 3)), Incumbent: init, Fixed: fixed})
	}
	opts = append(opts,
		Options{NodeLimit: 300, Incumbent: init, TailBound: tb},
		Options{Incumbent: init, TailBound: tb},
		Options{NodeLimit: 777},
		Options{Incumbent: init},
		Options{FailLimit: 100, Incumbent: init, TailBound: tb},
	)
	s := NewSearcher(c, cs)
	for k, opt := range opts {
		got, want := s.Solve(opt), Solve(c, cs, opt)
		if got.Nodes != want.Nodes || got.Fails != want.Fails || got.Solutions != want.Solutions ||
			got.Stats != want.Stats || got.Proved != want.Proved ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || !slices.Equal(got.Order, want.Order) {
			t.Fatalf("search %d: reused searcher %+v\nfresh %+v", k, got, want)
		}
	}
}
