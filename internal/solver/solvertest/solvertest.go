// Package solvertest is the cross-solver conformance kit: a shared table
// of tiny hand-crafted instances whose optima are verified by exhaustive
// enumeration, plus the assertion helpers every backend's tests use.
// Exact solvers must reproduce the optimum on every case; heuristics must
// return a precedence-feasible permutation within their stated gap.
//
// The cases are deliberately adversarial in miniature: competing plans,
// multi-index query interactions, build-interaction discounts, precedence
// chains and diamonds, and weighted queries — every model feature a solver
// can mishandle, at sizes where brute force is instant ground truth.
package solvertest

import (
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// Case is one conformance instance with its brute-force-verified optimum.
type Case struct {
	Name string
	C    *model.Compiled
	// CS is the precedence relation from the instance's declared
	// constraints (what every backend must respect).
	CS *constraint.Set
	// Optimum is the objective of an optimal feasible order and OptOrder
	// one order achieving it.
	Optimum  float64
	OptOrder []int
}

// Cases compiles the conformance table and computes each case's optimum
// by exhaustive enumeration.
func Cases(tb testing.TB) []*Case {
	tb.Helper()
	return casesFrom(tb, Instances())
}

// casesFrom compiles instances and verifies their optima by brute force;
// shared by the hand-crafted table and the generated Corpus.
func casesFrom(tb testing.TB, instances []*model.Instance) []*Case {
	tb.Helper()
	var out []*Case
	for _, in := range instances {
		c, err := model.Compile(in)
		if err != nil {
			tb.Fatalf("case %s: compile: %v", in.Name, err)
		}
		cs := sched.PrecedenceSet(in)
		res, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			tb.Fatalf("case %s: bruteforce: %v", in.Name, err)
		}
		out = append(out, &Case{Name: in.Name, C: c, CS: cs, Optimum: res.Objective, OptOrder: res.Order})
	}
	return out
}

// Instances returns the raw conformance instances (all small enough for
// brute force).
func Instances() []*model.Instance {
	return []*model.Instance{
		singleton(),
		plainFiveIndexes(),
		competingPlans(),
		buildDiscountChain(),
		precedenceDiamond(),
		weightedInteractions(),
		kitchenSink(),
	}
}

// ConformanceRequest builds the standard backend.Request the registry
// sweep hands every backend for one case: a greedy seed order, a static
// incumbent hook serving that seed (what anytime backends poll), a
// deterministic RNG seed, and the given effort bounds. Backend authors
// can reuse it to run their own package against the corpus.
func ConformanceRequest(cse *Case, seed, stepLimit int64, budget time.Duration) backend.Request {
	initial := greedy.Solve(cse.C, cse.CS)
	iobj := cse.C.Objective(initial)
	return backend.Request{
		Compiled:    cse.C,
		Constraints: cse.CS,
		Budget:      budget,
		StepLimit:   stepLimit,
		Seed:        seed,
		Initial:     initial,
		Incumbent: func(than float64) ([]int, float64) {
			if iobj < than-1e-12 {
				return append([]int(nil), initial...), iobj
			}
			return nil, 0
		},
	}
}

// RequireFeasible asserts that order is a permutation of 0..n-1 that
// respects cs (the property every solver output must satisfy). cs may be
// nil.
func RequireFeasible(tb testing.TB, n int, cs *constraint.Set, order []int) {
	tb.Helper()
	if err := constraint.CheckOrder(n, cs, order); err != nil {
		tb.Fatalf("%v: %v", err, order)
	}
}

// RequireOptimal asserts feasibility and that order achieves the case's
// brute-force optimum (exact backends).
func RequireOptimal(tb testing.TB, cse *Case, order []int) {
	tb.Helper()
	RequireFeasible(tb, cse.C.N, cse.CS, order)
	obj := cse.C.Objective(order)
	if obj > cse.Optimum*(1+1e-9)+1e-9 {
		tb.Fatalf("objective %.6f, want optimum %.6f (order %v, optimal %v)",
			obj, cse.Optimum, order, cse.OptOrder)
	}
}

// RequireWithinGap asserts feasibility and that order is within the given
// multiplicative gap of the optimum (heuristic backends: gap 1.0 means
// optimal, 1.25 means at most 25% above).
func RequireWithinGap(tb testing.TB, cse *Case, order []int, gap float64) {
	tb.Helper()
	RequireFeasible(tb, cse.C.N, cse.CS, order)
	obj := cse.C.Objective(order)
	if obj > cse.Optimum*gap+1e-9 {
		tb.Fatalf("objective %.6f exceeds gap %.2fx of optimum %.6f (order %v)",
			obj, gap, cse.Optimum, order)
	}
}

func ix(name string, cost float64) model.Index {
	return model.Index{Name: name, CreateCost: cost}
}

// singleton: one index, one query — every solver must handle the trivial
// base case.
func singleton() *model.Instance {
	return &model.Instance{
		Name:    "singleton",
		Indexes: []model.Index{ix("a", 3)},
		Queries: []model.Query{{Name: "q0", Runtime: 10}},
		Plans:   []model.Plan{{Query: 0, Indexes: []int{0}, Speedup: 6}},
	}
}

// plainFiveIndexes: independent single-index plans with skewed
// benefit/cost ratios — the optimum is a pure density ordering.
func plainFiveIndexes() *model.Instance {
	return &model.Instance{
		Name: "plain-five",
		Indexes: []model.Index{
			ix("a", 1), ix("b", 2), ix("c", 4), ix("d", 8), ix("e", 3),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 20}, {Name: "q1", Runtime: 15},
			{Name: "q2", Runtime: 30}, {Name: "q3", Runtime: 12},
			{Name: "q4", Runtime: 9},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 5},
			{Query: 1, Indexes: []int{1}, Speedup: 9},
			{Query: 2, Indexes: []int{2}, Speedup: 21},
			{Query: 3, Indexes: []int{3}, Speedup: 4},
			{Query: 4, Indexes: []int{4}, Speedup: 3},
		},
	}
}

// competingPlans: two plans per query compete (§4.2 "competing
// interaction") — only the best available plan counts.
func competingPlans() *model.Instance {
	return &model.Instance{
		Name: "competing-plans",
		Indexes: []model.Index{
			ix("a", 2), ix("b", 3), ix("c", 5), ix("d", 2),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 25}, {Name: "q1", Runtime: 18},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 8},
			{Query: 0, Indexes: []int{2}, Speedup: 15},
			{Query: 1, Indexes: []int{1}, Speedup: 6},
			{Query: 1, Indexes: []int{3}, Speedup: 10},
			{Query: 1, Indexes: []int{1, 3}, Speedup: 14},
		},
	}
}

// buildDiscountChain: build interactions make the deployment order change
// the build costs themselves (§4.2 "build interactions").
func buildDiscountChain() *model.Instance {
	return &model.Instance{
		Name: "build-discounts",
		Indexes: []model.Index{
			ix("clustered", 6), ix("narrow", 4), ix("covering", 7),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 30}, {Name: "q1", Runtime: 22},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 10},
			{Query: 0, Indexes: []int{2}, Speedup: 18},
			{Query: 1, Indexes: []int{1}, Speedup: 9},
		},
		BuildInteractions: []model.BuildInteraction{
			{Target: 1, Helper: 0, Speedup: 2},
			{Target: 2, Helper: 0, Speedup: 4},
			{Target: 2, Helper: 1, Speedup: 1},
		},
	}
}

// precedenceDiamond: a->b, a->c, b->d, c->d plus a free rider — solvers
// must search only the feasible permutations.
func precedenceDiamond() *model.Instance {
	return &model.Instance{
		Name: "precedence-diamond",
		Indexes: []model.Index{
			ix("a", 3), ix("b", 2), ix("c", 4), ix("d", 2), ix("free", 1),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 40}, {Name: "q1", Runtime: 16},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{1}, Speedup: 12},
			{Query: 0, Indexes: []int{3}, Speedup: 20},
			{Query: 1, Indexes: []int{2}, Speedup: 5},
			{Query: 1, Indexes: []int{4}, Speedup: 7},
		},
		Precedences: []model.Precedence{
			{Before: 0, After: 1}, {Before: 0, After: 2},
			{Before: 1, After: 3}, {Before: 2, After: 3},
		},
	}
}

// weightedInteractions: weighted queries and a three-index query
// interaction — the paper's hardest structural ingredients together.
func weightedInteractions() *model.Instance {
	return &model.Instance{
		Name: "weighted-interactions",
		Indexes: []model.Index{
			ix("a", 2), ix("b", 5), ix("c", 3), ix("d", 4), ix("e", 2), ix("f", 3),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 28, Weight: 2},
			{Name: "q1", Runtime: 35},
			{Name: "q2", Runtime: 14, Weight: 0.5},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0, 1}, Speedup: 16},
			{Query: 0, Indexes: []int{0}, Speedup: 6},
			{Query: 1, Indexes: []int{2, 3, 4}, Speedup: 30},
			{Query: 1, Indexes: []int{2}, Speedup: 8},
			{Query: 2, Indexes: []int{5}, Speedup: 11},
		},
	}
}

// kitchenSink: everything at once — competing multi-index plans, build
// discounts, a precedence chain, and weighted queries on 7 indexes.
func kitchenSink() *model.Instance {
	return &model.Instance{
		Name: "kitchen-sink",
		Indexes: []model.Index{
			ix("a", 3), ix("b", 6), ix("c", 2), ix("d", 5),
			ix("e", 4), ix("f", 2), ix("g", 7),
		},
		Queries: []model.Query{
			{Name: "q0", Runtime: 50, Weight: 1.5},
			{Name: "q1", Runtime: 24},
			{Name: "q2", Runtime: 31},
			{Name: "q3", Runtime: 18, Weight: 3},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 9},
			{Query: 0, Indexes: []int{0, 1}, Speedup: 27},
			{Query: 1, Indexes: []int{2, 5}, Speedup: 17},
			{Query: 1, Indexes: []int{3}, Speedup: 7},
			{Query: 2, Indexes: []int{4}, Speedup: 12},
			{Query: 2, Indexes: []int{4, 6}, Speedup: 25},
			{Query: 3, Indexes: []int{5}, Speedup: 8},
			{Query: 3, Indexes: []int{2, 6}, Speedup: 15},
		},
		BuildInteractions: []model.BuildInteraction{
			{Target: 1, Helper: 0, Speedup: 2},
			{Target: 6, Helper: 4, Speedup: 3},
			{Target: 3, Helper: 2, Speedup: 1},
		},
		Precedences: []model.Precedence{
			{Before: 0, After: 1},
			{Before: 4, After: 6},
		},
	}
}
