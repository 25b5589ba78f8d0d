package cp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// workerCounts are the parallelism levels every parallel test sweeps.
var workerCounts = []int{2, 3, 8}

func TestParallelMatchesBruteforce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 8
	cfg.PrecedenceProb = 0.2
	cfg.BuildInteractionProb = 0.1
	for rep := 0; rep < 6; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			res := Solve(c, cs, Options{Workers: w})
			if !res.Proved {
				t.Fatalf("rep %d w=%d: search not exhausted", rep, w)
			}
			if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
				t.Fatalf("rep %d w=%d: cp %v != bf %v", rep, w, res.Objective, bf.Objective)
			}
			if err := in.ValidOrder(res.Order); err != nil {
				t.Fatalf("rep %d w=%d: %v", rep, w, err)
			}
		}
	}
}

func TestParallelObjectiveBitIdenticalToSerial(t *testing.T) {
	// The evaluation core is set-pure (walker state depends only on the
	// deployed set), so every optimal order replays to the same float —
	// the parallel engine must return the serial objective bit for bit
	// regardless of steal timing.
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 5 + int(seed%4)
		cfg.PrecedenceProb = float64(seed%3) * 0.15
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		ref := Solve(c, cs, Options{})
		for _, w := range workerCounts {
			res := Solve(c, cs, Options{Workers: w, Seed: seed})
			if !res.Proved {
				t.Fatalf("seed %d w=%d: not proved", seed, w)
			}
			if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
				t.Fatalf("seed %d w=%d: objective %x differs from serial %x",
					seed, w, math.Float64bits(res.Objective), math.Float64bits(ref.Objective))
			}
		}
	}
}

func TestParallelNodeLimitAborts(t *testing.T) {
	_, c := inst(5, 16) // ~140k nodes to prove at W=4
	res := Solve(c, nil, Options{Workers: 4, NodeLimit: 500})
	if res.Proved {
		t.Fatal("node-limited parallel search claimed a proof on 16 indexes")
	}
	// The limit is polled on a stride per worker; allow that overshoot
	// but nothing unbounded.
	if res.Nodes > 500+4*pollStride {
		t.Fatalf("node limit overshot: %d nodes", res.Nodes)
	}
}

func TestParallelFailLimitAborts(t *testing.T) {
	_, c := inst(5, 16)
	res := Solve(c, nil, Options{Workers: 4, FailLimit: 200})
	if res.Proved {
		t.Fatal("fail-limited parallel search claimed a proof on 16 indexes")
	}
}

func TestParallelContextCancelsPromptly(t *testing.T) {
	_, c := inst(5, 20) // far beyond provable in the test budget
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := Solve(c, nil, Options{Workers: 4, Context: ctx})
	if res.Proved {
		t.Skip("instance unexpectedly proved before cancellation")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

func TestParallelIncumbentOnlyImprovedUpon(t *testing.T) {
	_, c := inst(6, 7)
	opt := Solve(c, nil, Options{})
	res := Solve(c, nil, Options{Workers: 4, Incumbent: opt.Order})
	if res.Solutions != 0 {
		t.Errorf("found %d 'improving' solutions over the optimum", res.Solutions)
	}
	if math.Float64bits(res.Objective) != math.Float64bits(opt.Objective) {
		t.Errorf("objective drifted: %v vs %v", res.Objective, opt.Objective)
	}
	if !res.Proved {
		t.Error("seeded parallel search should still prove optimality")
	}
}

func TestParallelFixedPositionsRespected(t *testing.T) {
	_, c := inst(8, 7)
	full := Solve(c, nil, Options{})
	fixed := append([]int(nil), full.Order...)
	free := map[int]bool{2: true, 4: true}
	for p := range fixed {
		if free[p] {
			fixed[p] = -1
		}
	}
	res := Solve(c, nil, Options{Workers: 3, Fixed: fixed, Incumbent: full.Order})
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
}

func TestParallelOnSolutionMonotone(t *testing.T) {
	// The incumbent lock serializes OnSolution, so even with concurrent
	// workers the observed objectives must be strictly decreasing.
	_, c := inst(10, 9)
	last := math.Inf(1)
	calls := 0
	Solve(c, nil, Options{Workers: 4, OnSolution: func(order []int, obj float64) {
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

func TestParallelExternalBoundProof(t *testing.T) {
	// An external bound at the optimum prunes every subtree; exhausting
	// the frontier then proves the external incumbent optimal even though
	// this search never produced an order of its own.
	_, c := inst(6, 7)
	opt := Solve(c, nil, Options{})
	res := Solve(c, nil, Options{Workers: 4, ExternalBound: func() float64 { return opt.Objective }})
	if !res.Proved {
		t.Fatal("externally bounded search did not exhaust")
	}
	if res.Order != nil {
		t.Fatalf("no order should beat the external optimum, got %v", res.Order)
	}
}

func TestParallelContradictoryFixedYieldsIncumbent(t *testing.T) {
	in, c := inst(9, 5)
	cs := sched.PrecedenceSet(in)
	full := Solve(c, cs, Options{})
	fixed := make([]int, c.N)
	for p := range fixed {
		fixed[p] = -1
	}
	// Pin two indexes to each other's optimal slots in conflict with the
	// frozen remainder semantics: position 0 demands full.Order[1] while
	// full.Order[1] is pinned elsewhere too.
	fixed[0] = full.Order[1]
	fixed[1] = full.Order[1]
	res := Solve(c, cs, Options{Workers: 4, Fixed: fixed, Incumbent: full.Order})
	if !res.Proved {
		t.Fatal("contradictory neighborhood should exhaust")
	}
	if res.Solutions != 0 {
		t.Fatal("contradiction produced solutions")
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("incumbent not preserved: %v", err)
	}
}

func TestSplitDepthAuto(t *testing.T) {
	for _, tc := range []struct {
		explicit, n, workers, want int
	}{
		{0, 31, 8, 2}, // 31*30 = 930 >= 256
		{0, 5, 8, 4},  // tiny trees split all the way down
		{0, 2, 8, 1},  // capped at n-1
		{7, 31, 8, 7}, // explicit passes through
		{99, 5, 2, 4}, // explicit clamped to n-1
	} {
		if got := splitDepth(tc.explicit, tc.n, tc.workers); got != tc.want {
			t.Errorf("splitDepth(%d, n=%d, w=%d) = %d, want %d",
				tc.explicit, tc.n, tc.workers, got, tc.want)
		}
	}
}

func TestParallelDeadlineAborts(t *testing.T) {
	_, c := inst(5, 22) // not provable within seconds
	start := time.Now()
	res := Solve(c, nil, Options{Workers: 4, Deadline: start.Add(30 * time.Millisecond)})
	if res.Proved {
		t.Skip("instance solved to optimality before the deadline")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline ignored")
	}
}
