package model

import (
	"fmt"
	"math"
	mrand "math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample builds the competing-interaction example of §4.2:
// i0 = i1(City) gives a 5s speedup, i1 = i2(City,Salary) gives 20s,
// for a single query with 60s runtime. Creation costs 10 and 30.
func paperExample() *Instance {
	return &Instance{
		Name: "paper-4.2",
		Indexes: []Index{
			{Name: "i1_city", Table: "People", Columns: []string{"City"}, CreateCost: 10},
			{Name: "i2_city_salary", Table: "People", Columns: []string{"City", "Salary"}, CreateCost: 30},
		},
		Queries: []Query{{Name: "avg_salary", Runtime: 60}},
		Plans: []Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 5},
			{Query: 0, Indexes: []int{1}, Speedup: 20},
		},
		BuildInteractions: []BuildInteraction{
			// i1 can be built from an index scan of i2, and i2's sort is
			// cheaper when i1 exists.
			{Target: 0, Helper: 1, Speedup: 8},
			{Target: 1, Helper: 0, Speedup: 6},
		},
	}
}

// joinExample builds the query-interaction example of §4.2: two indexes
// that only help together.
func joinExample() *Instance {
	return &Instance{
		Name: "paper-4.2-join",
		Indexes: []Index{
			{Name: "i1_city", CreateCost: 10},
			{Name: "i2_empid", CreateCost: 12},
		},
		Queries: []Query{{Name: "self_join", Runtime: 100}},
		Plans: []Plan{
			{Query: 0, Indexes: []int{0, 1}, Speedup: 80},
		},
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestCompetingInteractionObjective(t *testing.T) {
	c := MustCompile(paperExample())

	// Order i1 -> i2: C1=10, R0=60; after i1 runtime 55.
	// C2 = 30-6 = 24 (helper i1 built); after i2 runtime 40.
	obj, deploy, final := c.Evaluate([]int{0, 1})
	if want := 60*10 + 55*24.0; !approx(obj, want) {
		t.Errorf("obj(i1->i2) = %v, want %v", obj, want)
	}
	if want := 34.0; !approx(deploy, want) {
		t.Errorf("deploy(i1->i2) = %v, want %v", deploy, want)
	}
	if !approx(final, 40) {
		t.Errorf("final runtime = %v, want 40", final)
	}

	// Order i2 -> i1: C1=30, runtime 40 after; C2 = 10-8 = 2; i1 adds no
	// further speedup (competing interaction: optimizer already has the
	// better plan).
	obj2, deploy2, final2 := c.Evaluate([]int{1, 0})
	if want := 60*30 + 40*2.0; !approx(obj2, want) {
		t.Errorf("obj(i2->i1) = %v, want %v", obj2, want)
	}
	if want := 32.0; !approx(deploy2, want) {
		t.Errorf("deploy(i2->i1) = %v, want %v", deploy2, want)
	}
	if !approx(final2, 40) {
		t.Errorf("final runtime = %v, want 40", final2)
	}
}

func TestQueryInteractionNeedsBothIndexes(t *testing.T) {
	c := MustCompile(joinExample())
	curve := c.Curve([]int{0, 1})
	if !approx(curve[0].Runtime, 100) {
		t.Errorf("after first index alone runtime = %v, want 100 (no speedup)", curve[0].Runtime)
	}
	if !approx(curve[1].Runtime, 20) {
		t.Errorf("after both indexes runtime = %v, want 20", curve[1].Runtime)
	}
}

func TestStats(t *testing.T) {
	in := paperExample()
	in.Plans = append(in.Plans, Plan{Query: 0, Indexes: []int{0, 1}, Speedup: 25})
	s := in.Stats()
	if s.Queries != 1 || s.Indexes != 2 || s.Plans != 3 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.LargestPlan != 2 {
		t.Errorf("largest plan = %d, want 2", s.LargestPlan)
	}
	if s.QueryInteractions != 1 {
		t.Errorf("query interactions = %d, want 1", s.QueryInteractions)
	}
	if s.BuildInteractions != 2 {
		t.Errorf("build interactions = %d, want 2", s.BuildInteractions)
	}
	if got := s.String(); !strings.Contains(got, "|I|=2") {
		t.Errorf("String() = %q", got)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"dup name", func(in *Instance) { in.Indexes[1].Name = in.Indexes[0].Name }, "duplicate name"},
		{"empty name", func(in *Instance) { in.Indexes[0].Name = "" }, "empty name"},
		{"non-UTF-8 index name", func(in *Instance) { in.Indexes[0].Name = "\xe2" }, "not valid UTF-8"},
		{"non-UTF-8 query name", func(in *Instance) { in.Queries[0].Name = "q\xff" }, "not valid UTF-8"},
		{"bad cost", func(in *Instance) { in.Indexes[0].CreateCost = 0 }, "must be positive"},
		{"bad runtime", func(in *Instance) { in.Queries[0].Runtime = -1 }, "must be positive"},
		{"neg weight", func(in *Instance) { in.Queries[0].Weight = -2 }, "negative weight"},
		{"plan query oob", func(in *Instance) { in.Plans[0].Query = 5 }, "out of range"},
		{"plan empty", func(in *Instance) { in.Plans[0].Indexes = nil }, "empty index set"},
		{"plan dup index", func(in *Instance) { in.Plans[0].Indexes = []int{0, 0} }, "duplicate index"},
		{"plan index oob", func(in *Instance) { in.Plans[0].Indexes = []int{9} }, "out of range"},
		{"plan speedup", func(in *Instance) { in.Plans[0].Speedup = 0 }, "must be positive"},
		{"plan speedup too big", func(in *Instance) { in.Plans[0].Speedup = 1e9 }, "exceeds query runtime"},
		{"bi target oob", func(in *Instance) { in.BuildInteractions[0].Target = -1 }, "out of range"},
		{"bi helper oob", func(in *Instance) { in.BuildInteractions[0].Helper = 7 }, "out of range"},
		{"bi self", func(in *Instance) { in.BuildInteractions[0].Helper = in.BuildInteractions[0].Target }, "target == helper"},
		{"bi speedup", func(in *Instance) { in.BuildInteractions[0].Speedup = 0 }, "must be positive"},
		{"bi speedup too big", func(in *Instance) { in.BuildInteractions[0].Speedup = 1e9 }, ">= target create cost"},
		{"prec oob", func(in *Instance) { in.Precedences = []Precedence{{Before: 0, After: 9}} }, "out of range"},
		{"prec self", func(in *Instance) { in.Precedences = []Precedence{{Before: 1, After: 1}} }, "self precedence"},
		{"prec cycle", func(in *Instance) {
			in.Precedences = []Precedence{{Before: 0, After: 1}, {Before: 1, After: 0}}
		}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := paperExample()
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken instance")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsGoodInstance(t *testing.T) {
	if err := paperExample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := joinExample().Validate(); err != nil {
		t.Fatalf("Validate join: %v", err)
	}
}

func TestValidOrder(t *testing.T) {
	in := paperExample()
	in.Precedences = []Precedence{{Before: 1, After: 0}}
	if err := in.ValidOrder([]int{1, 0}); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
	if err := in.ValidOrder([]int{0, 1}); err == nil {
		t.Error("precedence-violating order accepted")
	}
	if err := in.ValidOrder([]int{0}); err == nil {
		t.Error("short order accepted")
	}
	if err := in.ValidOrder([]int{0, 0}); err == nil {
		t.Error("repeating order accepted")
	}
	if err := in.ValidOrder([]int{0, 5}); err == nil {
		t.Error("out-of-range order accepted")
	}
}

func TestWalkerPushPopRestoresState(t *testing.T) {
	in := paperExample()
	in.Plans = append(in.Plans, Plan{Query: 0, Indexes: []int{0, 1}, Speedup: 25})
	c := MustCompile(in)
	w := NewWalker(c)

	if w.Runtime() != 60 || w.Objective() != 0 || w.DeployTime() != 0 {
		t.Fatalf("fresh walker state wrong: %v %v %v", w.Runtime(), w.Objective(), w.DeployTime())
	}
	w.Push(0)
	w.Push(1)
	obj := w.Objective()
	w.Pop()
	w.Pop()
	if w.Runtime() != 60 || w.Objective() != 0 || w.DeployTime() != 0 || w.Len() != 0 {
		t.Fatalf("walker not restored: %v %v %v len=%d", w.Runtime(), w.Objective(), w.DeployTime(), w.Len())
	}
	// Replaying must give the same objective.
	w.Push(0)
	w.Push(1)
	if !approx(w.Objective(), obj) {
		t.Errorf("replayed objective %v != %v", w.Objective(), obj)
	}
	if got := w.Order(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Order() = %v", got)
	}
}

func TestWalkerSpeedupIfBuilt(t *testing.T) {
	in := joinExample()
	c := MustCompile(in)
	w := NewWalker(c)
	if got := w.SpeedupIfBuilt(0); got != 0 {
		t.Errorf("speedup of i0 alone = %v, want 0", got)
	}
	w.Push(0)
	if got := w.SpeedupIfBuilt(1); !approx(got, 80) {
		t.Errorf("speedup of i1 after i0 = %v, want 80", got)
	}
}

func TestWalkerBuildCostUsesBestHelper(t *testing.T) {
	c := MustCompile(paperExample())
	w := NewWalker(c)
	if got := w.BuildCost(0); !approx(got, 10) {
		t.Errorf("cost(i0) with nothing built = %v, want 10", got)
	}
	w.Push(1)
	if got := w.BuildCost(0); !approx(got, 2) {
		t.Errorf("cost(i0) with i1 built = %v, want 2", got)
	}
}

func TestWalkerPanics(t *testing.T) {
	c := MustCompile(paperExample())
	w := NewWalker(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Pop on empty walker did not panic")
			}
		}()
		w.Pop()
	}()
	w.Push(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Push did not panic")
			}
		}()
		w.Push(0)
	}()
}

func TestQueryWeightScalesObjective(t *testing.T) {
	in := paperExample()
	in.Queries[0].Weight = 2
	c := MustCompile(in)
	if !approx(c.Base, 120) {
		t.Fatalf("weighted base = %v, want 120", c.Base)
	}
	obj, _, _ := c.Evaluate([]int{0, 1})
	// R0=120, C1=10; R1=110, C2=24.
	if want := 120*10 + 110*24.0; !approx(obj, want) {
		t.Errorf("weighted objective = %v, want %v", obj, want)
	}
}

func TestCurveMonotonicity(t *testing.T) {
	in := paperExample()
	c := MustCompile(in)
	curve := c.Curve([]int{1, 0})
	prevR, prevT := c.Base, 0.0
	for _, pt := range curve {
		if pt.Runtime > prevR+1e-9 {
			t.Errorf("runtime increased along curve: %v -> %v", prevR, pt.Runtime)
		}
		if pt.Elapsed < prevT-1e-9 {
			t.Errorf("elapsed went backwards: %v -> %v", prevT, pt.Elapsed)
		}
		prevR, prevT = pt.Runtime, pt.Elapsed
	}
}

func TestResetEquivalentToNewWalker(t *testing.T) {
	c := MustCompile(paperExample())
	w := NewWalker(c)
	w.Push(1)
	w.Push(0)
	w.Reset()
	w.Push(0)
	w.Push(1)
	want := c.Objective([]int{0, 1})
	if !approx(w.Objective(), want) {
		t.Errorf("after Reset objective = %v, want %v", w.Objective(), want)
	}
}

// Property: the incremental walker objective is bit-identical to a fresh
// replay of the same order, on random instances and random prefixes of
// push/pop traffic beforehand.
func TestQuickWalkerMatchesReplay(t *testing.T) {
	f := func(seed int64) bool {
		rng := randNew(seed)
		in := genInstance(rng)
		c := MustCompile(in)
		w := NewWalker(c)
		// Random push/pop churn.
		perm := rng.Perm(c.N)
		for _, i := range perm {
			w.Push(i)
		}
		for k := 0; k < c.N/2; k++ {
			w.Pop()
		}
		w.Reset()
		// Now evaluate a fresh random order both ways.
		order := rng.Perm(c.N)
		for _, i := range order {
			w.Push(i)
		}
		fresh := NewWalker(c)
		for _, i := range order {
			fresh.Push(i)
		}
		return w.Objective() == fresh.Objective() &&
			w.Runtime() == fresh.Runtime() &&
			w.DeployTime() == fresh.DeployTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: at every prefix of a random order, ObjectiveIfPushed(i) is
// bit-equal to Push(i) followed by Objective() for every unplaced i, and
// leaves the walker exactly as it found it.
func TestQuickObjectiveIfPushedMatchesPush(t *testing.T) {
	f := func(seed int64) bool {
		rng := randNew(seed)
		c := MustCompile(genInstance(rng))
		w := NewWalker(c)
		for _, next := range rng.Perm(c.N) {
			for i := 0; i < c.N; i++ {
				if w.Built(i) {
					continue
				}
				obj, rt, dep, k := w.Objective(), w.Runtime(), w.DeployTime(), w.Len()
				got := w.ObjectiveIfPushed(i)
				if w.Objective() != obj || w.Runtime() != rt || w.DeployTime() != dep ||
					w.Len() != k || w.Built(i) {
					t.Logf("seed %d: ObjectiveIfPushed(%d) changed the walker", seed, i)
					return false
				}
				w.Push(i)
				want := w.Objective()
				w.Pop()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("seed %d, prefix %v: ObjectiveIfPushed(%d) = %v, Push gives %v",
						seed, w.Order(), i, got, want)
					return false
				}
			}
			w.Push(next)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: objective equals the hand-computed sum of R_{k-1}*C_k from
// the improvement curve.
func TestQuickObjectiveMatchesCurve(t *testing.T) {
	f := func(seed int64) bool {
		rng := randNew(seed)
		in := genInstance(rng)
		c := MustCompile(in)
		order := rng.Perm(c.N)
		curve := c.Curve(order)
		prevRuntime := c.Base
		var sum float64
		for _, pt := range curve {
			sum += prevRuntime * pt.Cost
			prevRuntime = pt.Runtime
		}
		obj := c.Objective(order)
		return approx(sum, obj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// genInstance builds a small random instance without importing randgen
// (model must stay dependency-free).
func genInstance(rng *mrand.Rand) *Instance {
	n := 3 + rng.Intn(6)
	q := 2 + rng.Intn(5)
	in := &Instance{Name: "t"}
	for i := 0; i < n; i++ {
		in.Indexes = append(in.Indexes, Index{
			Name:       fmt.Sprintf("i%d", i),
			CreateCost: 5 + 50*rng.Float64(),
		})
	}
	for k := 0; k < q; k++ {
		in.Queries = append(in.Queries, Query{
			Name:    fmt.Sprintf("q%d", k),
			Runtime: 50 + 200*rng.Float64(),
		})
	}
	for p := 0; p < 2*n; p++ {
		qi := rng.Intn(q)
		size := 1 + rng.Intn(3)
		set := rng.Perm(n)[:size]
		in.Plans = append(in.Plans, Plan{
			Query:   qi,
			Indexes: set,
			Speedup: in.Queries[qi].Runtime * (0.1 + 0.8*rng.Float64()),
		})
	}
	for k := 0; k < n/2; k++ {
		t := rng.Intn(n)
		h := rng.Intn(n)
		if t == h {
			continue
		}
		in.BuildInteractions = append(in.BuildInteractions, BuildInteraction{
			Target: t, Helper: h,
			Speedup: in.Indexes[t].CreateCost * (0.1 + 0.5*rng.Float64()),
		})
	}
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

func randNew(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
