package portfolio

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

func TestStoreOfferAndBest(t *testing.T) {
	s := NewStore(3, nil)
	if !math.IsInf(s.Objective(), 1) {
		t.Fatal("empty store objective not +Inf")
	}
	if o, _, _ := s.Best(); o != nil {
		t.Fatal("empty store returned an order")
	}
	if !s.Offer("a", []int{0, 1, 2}, 10) {
		t.Fatal("first offer rejected")
	}
	if s.Offer("b", []int{1, 0, 2}, 10) {
		t.Fatal("equal offer accepted")
	}
	if s.Offer("b", []int{1, 0, 2}, 11) {
		t.Fatal("worse offer accepted")
	}
	if !s.Offer("b", []int{2, 1, 0}, 9) {
		t.Fatal("better offer rejected")
	}
	order, obj, owner := s.Best()
	if obj != 9 || owner != "b" || order[0] != 2 {
		t.Fatalf("Best = %v, %v, %q", order, obj, owner)
	}
	// The returned order is a private copy.
	order[0] = 99
	again, _, _ := s.Best()
	if again[0] != 2 {
		t.Fatal("Best leaked internal storage")
	}
}

func TestStoreRejectsInfeasible(t *testing.T) {
	cs := constraint.NewSet(3)
	cs.MustAdd(0, 1) // 0 before 1
	s := NewStore(3, cs)
	for _, bad := range [][]int{
		{0, 1},       // wrong length
		{0, 1, 3},    // out of range
		{0, 0, 1},    // duplicate
		{1, 0, 2},    // precedence violation
		{0, 1, 2, 2}, // too long
		{-1, 1, 2},   // negative
		nil,          // nil
	} {
		if s.Offer("x", bad, 1) {
			t.Errorf("infeasible order accepted: %v", bad)
		}
	}
	if !s.Offer("x", []int{0, 2, 1}, 5) {
		t.Fatal("feasible order rejected")
	}
}

func TestStoreBetterThan(t *testing.T) {
	s := NewStore(2, nil)
	if o, _ := s.BetterThan(100); o != nil {
		t.Fatal("empty store claims an incumbent")
	}
	s.Offer("a", []int{1, 0}, 50)
	if o, _ := s.BetterThan(50); o != nil {
		t.Fatal("BetterThan(50) should be nil at incumbent 50")
	}
	o, obj := s.BetterThan(51)
	if o == nil || obj != 50 {
		t.Fatalf("BetterThan(51) = %v, %v", o, obj)
	}
	// Mutating the copy must not affect the store.
	o[0] = 9
	if again, _ := s.BetterThan(51); again[0] != 1 {
		t.Fatal("BetterThan leaked internal storage")
	}
}

func TestStoreConcurrentOffers(t *testing.T) {
	s := NewStore(4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 500; k++ {
				s.Offer("g", rng.Perm(4), float64(rng.Intn(1000)))
				s.BetterThan(float64(rng.Intn(1000)))
			}
		}(g)
	}
	wg.Wait()
	order, obj, _ := s.Best()
	if order == nil || obj < 0 {
		t.Fatalf("store corrupted: %v %v", order, obj)
	}
}

func TestDefaultBackendSelection(t *testing.T) {
	small := model.MustCompile(datasets.ReducedTPCH(6, datasets.Low))
	names := backend.Default(small)
	want := map[string]bool{"bruteforce": true, "astar": true, "cp": true, "greedy": true}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("Default(n=6) missing %s (got %v)", n, names)
		}
	}

	big := model.MustCompile(datasets.TPCDS())
	for _, n := range backend.Default(big) {
		if n == "bruteforce" {
			t.Errorf("Default(tpcds) includes intractable backend %s", n)
		}
	}
}

func TestNamesCoverRegistry(t *testing.T) {
	names := backend.Names()
	if len(names) < 10 {
		t.Fatalf("Names() lists only %d backends: %v", len(names), names)
	}
	for _, n := range names {
		b, ok := backend.Lookup(n)
		if !ok {
			t.Errorf("Names() lists unregistered backend %q", n)
			continue
		}
		if b.Info().Name != n {
			t.Errorf("backend %q self-describes as %q", n, b.Info().Name)
		}
	}
	// The built-in roster must be present in registry rank order.
	want := []string{"greedy", "dp", "bruteforce", "astar", "cp",
		"tabu-b", "tabu-f", "lns", "vns", "anneal"}
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if _, ok := pos[a]; !ok {
			t.Fatalf("Names() missing built-in %q: %v", a, names)
		}
		if pos[a] >= pos[b] {
			t.Errorf("Names() orders %q after %q: %v", a, b, names)
		}
	}
}

func TestSolveUnknownBackend(t *testing.T) {
	c := model.MustCompile(datasets.ReducedTPCH(6, datasets.Low))
	if _, err := Solve(context.Background(), c, nil, Options{Backends: []string{"nope"}}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestSolveRejectsInfeasibleInitial(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := constraint.NewSet(c.N)
	cs.MustAdd(1, 0) // force 1 before 0; identity violates it
	for _, bad := range [][]int{
		sched.Identity(c.N), // precedence violation
		{0, 1, 2},           // wrong length
		{0, 0, 1, 2, 3, 4},  // duplicate
	} {
		if _, err := Solve(context.Background(), c, cs, Options{
			Backends: []string{"greedy"},
			Initial:  bad,
		}); err == nil {
			t.Errorf("infeasible Initial accepted: %v", bad)
		}
	}
}

// TestSolveTelemetryContributions: BestPublished/Improvements reflect
// only store-accepted publications, and the winner has at least one.
func TestSolveTelemetryContributions(t *testing.T) {
	in := datasets.ReducedTPCH(13, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	res, err := Solve(context.Background(), c, cs, Options{
		Backends: []string{"greedy", "vns", "tabu-f"},
		Budget:   time.Second,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == "seed" {
		t.Skip("nothing improved the seed this run")
	}
	foundWinner := false
	for _, b := range res.Backends {
		if b.Improvements > 0 && b.BestPublished > res.Objective+1e-9 && b.Name == res.Winner {
			t.Errorf("winner %s best-published %.2f above final objective %.2f",
				b.Name, b.BestPublished, res.Objective)
		}
		if b.Improvements == 0 && !math.IsInf(b.BestPublished, 1) {
			t.Errorf("backend %s published nothing but BestPublished=%v", b.Name, b.BestPublished)
		}
		if b.Name == res.Winner {
			foundWinner = true
			if b.Improvements == 0 {
				t.Errorf("winner %s has no accepted publications", b.Name)
			}
		}
	}
	if !foundWinner {
		t.Errorf("winner %q not present in telemetry", res.Winner)
	}
}

// TestSolveProvesTinyInstance: with exact backends in the set, the
// portfolio must return the proved optimum and stop early.
func TestSolveProvesTinyInstance(t *testing.T) {
	in := datasets.ReducedTPCH(8, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	start := time.Now()
	res, err := Solve(context.Background(), c, cs, Options{
		Budget: 30 * time.Second,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Error("tiny instance not proved optimal")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("proof did not short-circuit the budget: took %v", elapsed)
	}
	assertFeasible(t, c.N, cs, res.Order)
	if res.Objective > c.Objective(greedy.Solve(c, cs))+1e-9 {
		t.Errorf("portfolio (%v) worse than greedy", res.Objective)
	}
}

// TestSolveNeverWorseThanSeed: on a larger instance under a small budget,
// the portfolio must return a feasible order at least as good as its
// greedy seed — the incumbent store guarantees it.
func TestSolveNeverWorseThanSeed(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 40
	cfg.Queries = 40
	in := randgen.New(rand.New(rand.NewSource(3)), cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	res, err := Solve(context.Background(), c, cs, Options{
		Budget:  400 * time.Millisecond,
		Workers: 4,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, c.N, cs, res.Order)
	seedObj := c.Objective(greedy.Solve(c, cs))
	if res.Objective > seedObj+1e-9 {
		t.Errorf("portfolio %.2f worse than greedy seed %.2f", res.Objective, seedObj)
	}
	if res.Winner == "" {
		t.Error("no winner attributed")
	}
	if len(res.Backends) == 0 {
		t.Fatal("no backend telemetry")
	}
	ran := 0
	for _, b := range res.Backends {
		if !b.Skipped && b.Err == nil {
			ran++
			if b.Wall <= 0 {
				t.Errorf("backend %s ran but reports no wall time", b.Name)
			}
		}
	}
	if ran == 0 {
		t.Error("no backend ran")
	}
}

// TestSolveStepLimited: StepLimit bounds every backend's search effort so
// runs terminate promptly even with a generous wall budget.
func TestSolveStepLimited(t *testing.T) {
	in := datasets.ReducedTPCH(13, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	start := time.Now()
	res, err := Solve(context.Background(), c, cs, Options{
		Backends:  []string{"greedy", "cp", "vns", "tabu-f"},
		Budget:    time.Minute,
		StepLimit: 2000,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, c.N, cs, res.Order)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("step-limited run took %v", elapsed)
	}
	for _, b := range res.Backends {
		if b.Name == "cp" && b.Iterations > 2100 {
			t.Errorf("cp ignored StepLimit: %d nodes", b.Iterations)
		}
	}
}

// TestSolveCancelledContext: a pre-cancelled context still yields the
// seed incumbent instead of hanging or failing.
func TestSolveCancelledContext(t *testing.T) {
	in := datasets.ReducedTPCH(10, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, c, cs, Options{Budget: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, c.N, cs, res.Order)
	if res.Winner != "seed" {
		t.Errorf("winner %q, want the greedy seed", res.Winner)
	}
}

// TestSolveSingleWorkerSlicesBudget: with one worker the backends run
// sequentially and the whole portfolio must still respect the budget
// within a generous factor.
func TestSolveSingleWorkerSlicesBudget(t *testing.T) {
	in := datasets.ReducedTPCH(16, datasets.Mid)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	start := time.Now()
	res, err := Solve(context.Background(), c, cs, Options{
		Backends: []string{"vns", "lns", "tabu-f", "anneal"},
		Workers:  1,
		Budget:   600 * time.Millisecond,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, c.N, cs, res.Order)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("budget 600ms but ran %v", elapsed)
	}
	started := 0
	for _, b := range res.Backends {
		if !b.Skipped {
			started++
		}
	}
	if started == 0 {
		t.Error("no backend started")
	}
}

// TestSolveOnImproveObserver: every ProgressImproved event beats the seed
// and is attributed to a real backend. (Delivery order between backend
// goroutines is documented as unsynchronized, so monotonicity of the
// stream is deliberately not asserted.)
func TestSolveOnImproveObserver(t *testing.T) {
	in := datasets.ReducedTPCH(13, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	seedObj := c.Objective(greedy.Solve(c, cs))
	var mu sync.Mutex
	violations := 0
	calls := 0
	_, err := Solve(context.Background(), c, cs, Options{
		Budget: 2 * time.Second,
		Seed:   6,
		OnProgress: func(ev ProgressEvent) {
			if ev.Kind != ProgressImproved {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			calls++
			if ev.Objective >= seedObj {
				violations++
			}
			if ev.Backend == "" || ev.Backend == "seed" {
				violations++
			}
			if len(ev.Order) != c.N {
				violations++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if violations > 0 {
		t.Errorf("%d observer violations (no improvement over seed, bad attribution, or bad order)", violations)
	}
	if calls == 0 {
		t.Error("observer never invoked")
	}
}

func assertFeasible(t *testing.T, n int, cs *constraint.Set, order []int) {
	t.Helper()
	solvertest.RequireFeasible(t, n, cs, order)
}

// TestSolveCPProvesConformanceCases: the cp backend alone proves every
// conformance optimum through the portfolio, and its telemetry agrees
// with the store: what it published is never better than the optimum,
// and improvements imply a published objective.
func TestSolveCPProvesConformanceCases(t *testing.T) {
	for _, cse := range solvertest.Cases(t) {
		t.Run(cse.Name, func(t *testing.T) {
			res, err := Solve(context.Background(), cse.C, cse.CS, Options{
				Backends: []string{"cp"},
				Budget:   20 * time.Second,
				Seed:     3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Proved {
				t.Fatal("cp did not prove optimality")
			}
			solvertest.RequireOptimal(t, cse, res.Order)
			cpr := res.Backends[0]
			if cpr.Name != "cp" || !cpr.Proved {
				t.Fatalf("cp telemetry missing the proof: %+v", cpr)
			}
			if cpr.Improvements > 0 && math.IsInf(cpr.BestPublished, 1) {
				t.Fatalf("improvements without a published objective: %+v", cpr)
			}
			if cpr.BestPublished < cse.Optimum-1e-9*(1+cse.Optimum) {
				t.Fatalf("published %v below the optimum %v", cpr.BestPublished, cse.Optimum)
			}
		})
	}
}

// TestRepairInitial: precedence violations are repaired by a stable
// topological reorder (relative order of unconstrained pairs kept);
// shape errors are unrepairable.
func TestRepairInitial(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := constraint.NewSet(c.N)
	cs.MustAdd(4, 0) // 4 before 0

	got, err := RepairInitial(c, cs, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if err := constraint.CheckOrder(c.N, cs, got); err != nil {
		t.Fatalf("repaired order still infeasible: %v (%v)", got, err)
	}
	pos := make([]int, c.N)
	for k, ix := range got {
		pos[ix] = k
	}
	if pos[4] > pos[0] {
		t.Fatalf("repair kept 0 before 4: %v", got)
	}
	// Unconstrained relative order preserved (stable reorder).
	if !(pos[1] < pos[2] && pos[2] < pos[3] && pos[3] < pos[5]) {
		t.Fatalf("repair shuffled unconstrained items: %v", got)
	}

	// Already-feasible orders pass through unchanged.
	same, err := RepairInitial(c, cs, got)
	if err != nil {
		t.Fatal(err)
	}
	for k := range same {
		if same[k] != got[k] {
			t.Fatalf("feasible order changed: %v -> %v", got, same)
		}
	}

	if _, err := RepairInitial(c, cs, []int{0, 1, 2}); err == nil {
		t.Fatal("wrong-length order repaired")
	}
	if _, err := RepairInitial(c, cs, []int{0, 0, 1, 2, 3, 4}); err == nil {
		t.Fatal("duplicate order repaired")
	}
}
