package portfolio

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestRouteThreshold pins the routing rule: every instance with at
// most DefaultFastPathMaxN indexes routes to A*, instances above fall
// through to the race.
func TestRouteThreshold(t *testing.T) {
	for n := 1; n <= 12; n++ {
		if name, ok := Route(n); !ok || name != "astar" {
			t.Errorf("Route(%d) = %q, %v; want astar", n, name, ok)
		}
	}
	for _, n := range []int{0, 13, 20} {
		if name, ok := Route(n); ok {
			t.Errorf("Route(%d) routed to %q past the threshold", n, name)
		}
	}
}

// TestRouteConformance is the fast-path correctness contract: for every
// instance size from trivial through both sides of the default routing
// threshold, the routed one-name roster and the full portfolio race
// must return bit-identical objectives, and the routed solve must carry
// a proof. This is what licenses the service to skip the race.
func TestRouteConformance(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 11, 12} {
		in := datasets.ReducedTPCH(n, datasets.Low)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)

		name, ok := Route(c.N)
		if !ok {
			t.Fatalf("n=%d: not routed", n)
		}
		routed, err := Solve(context.Background(), c, cs, Options{
			Backends: []string{name}, Budget: 30 * time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatalf("n=%d: Solve(%s): %v", n, name, err)
		}
		if !routed.Proved {
			t.Errorf("n=%d: routed solve via %s did not prove optimality", n, name)
		}
		solvertest.RequireFeasible(t, c.N, cs, routed.Order)

		raced, err := Solve(context.Background(), c, cs, Options{
			Budget: 30 * time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatalf("n=%d: Solve: %v", n, err)
		}
		if !raced.Proved {
			t.Errorf("n=%d: full race did not prove optimality", n)
		}
		if routed.Objective != raced.Objective {
			t.Errorf("n=%d: routed objective %v != raced objective %v (backend %s)",
				n, routed.Objective, raced.Objective, name)
		}
	}
}

// TestRoutedAstarAfterLargeProof: A* proofs reuse the buffers of earlier
// proofs, so a small routed proof that follows a large one must return
// the bit-identical order and objective it returns first in a process.
func TestRoutedAstarAfterLargeProof(t *testing.T) {
	solve := func(in *model.Instance) Result {
		c := model.MustCompile(in)
		res, err := Solve(context.Background(), c, sched.PrecedenceSet(in), Options{
			Backends: []string{"astar"}, Budget: 30 * time.Second, Seed: 1,
		})
		if err != nil || !res.Proved {
			t.Fatalf("%s: proved %v, err %v", in.Name, res.Proved, err)
		}
		return res
	}
	small := datasets.ReducedTPCH(8, datasets.Low)
	first := solve(small)
	solve(datasets.ReducedTPCH(20, datasets.Low))
	again := solve(small)
	if math.Float64bits(again.Objective) != math.Float64bits(first.Objective) ||
		!slices.Equal(again.Order, first.Order) {
		t.Fatalf("after a large proof: %v %v, first %v %v", again.Objective, again.Order, first.Objective, first.Order)
	}
}

// TestRouteConformanceCorpus runs the routed fast path over the shared
// conformance corpus (known optima) — every routed result must hit the
// recorded optimum exactly.
func TestRouteConformanceCorpus(t *testing.T) {
	for _, cse := range solvertest.Cases(t) {
		if cse.C.N > DefaultFastPathMaxN {
			continue
		}
		name, ok := Route(cse.C.N)
		if !ok {
			t.Fatalf("%s: corpus case (n=%d) not routed", cse.Name, cse.C.N)
		}
		res, err := Solve(context.Background(), cse.C, cse.CS, Options{
			Backends: []string{name}, Budget: 30 * time.Second, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", cse.Name, err)
		}
		if !res.Proved {
			t.Errorf("%s: routed %s solve unproved", cse.Name, name)
		}
		solvertest.RequireOptimal(t, cse, res.Order)
		if len(res.Backends) != 1 || res.Backends[0].Name != name {
			t.Errorf("%s: routed result telemetry %+v, want exactly backend %s",
				cse.Name, res.Backends, name)
		}
	}
}

// TestFeaturesOf pins the feature derivation, including the nil
// constraint set and density edge cases.
func TestFeaturesOf(t *testing.T) {
	in := datasets.ReducedTPCH(8, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	f := FeaturesOf(c, cs)
	if f.N != 8 || f.Plans == 0 {
		t.Errorf("FeaturesOf = %+v", f)
	}
	if f.PrecedenceEdges != cs.Len() {
		t.Errorf("PrecedenceEdges = %d, want %d", f.PrecedenceEdges, cs.Len())
	}
	if f.PrecedenceDensity < 0 || f.PrecedenceDensity > 1 {
		t.Errorf("density %v out of [0,1]", f.PrecedenceDensity)
	}
	if got := FeaturesOf(c, nil); got.PrecedenceEdges != 0 || got.PrecedenceDensity != 0 {
		t.Errorf("nil constraint set features = %+v", got)
	}

	// Class banding: tiny/small/medium/large and sparse/dense.
	for _, tc := range []struct {
		f    Features
		want string
	}{
		{Features{N: 5}, "tiny/sparse"},
		{Features{N: 9, PrecedenceDensity: 0.3}, "small/dense"},
		{Features{N: 14}, "medium/sparse"},
		{Features{N: 30, PrecedenceDensity: 0.2}, "large/dense"},
	} {
		if got := tc.f.Class(); got != tc.want {
			t.Errorf("Class(%+v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}

// TestOneBackendSeedsStore: even a one-name roster whose backend cannot
// improve returns the greedy seed, never an empty result, and rejects an
// infeasible caller-supplied Initial.
func TestOneBackendSeedsStore(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	res, err := Solve(context.Background(), c, cs, Options{
		Backends: []string{"greedy"}, Budget: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	solvertest.RequireFeasible(t, c.N, cs, res.Order)
	if res.Proved {
		t.Error("greedy is not an exact backend but result claims a proof")
	}

	bad := constraint.NewSet(c.N)
	bad.MustAdd(1, 0)
	if _, err := Solve(context.Background(), c, bad, Options{
		Backends: []string{"greedy"}, Initial: []int{0, 1, 2, 3, 4, 5},
	}); err == nil {
		t.Fatal("infeasible Initial accepted")
	}
}

// TestOneBackendProgressEvents: a one-name roster emits the same event
// vocabulary a wider race does — started, improvements, done, and a
// proof for exact backends — so SSE consumers cannot tell the paths
// apart.
func TestOneBackendProgressEvents(t *testing.T) {
	in := datasets.ReducedTPCH(6, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	var kinds []ProgressKind
	res, err := Solve(context.Background(), c, cs, Options{
		Backends: []string{"bruteforce"},
		Budget:   10 * time.Second,
		OnProgress: func(ev ProgressEvent) {
			kinds = append(kinds, ev.Kind)
			if ev.Backend != "bruteforce" {
				t.Errorf("event attributed to %q", ev.Backend)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("bruteforce did not prove a tiny instance")
	}
	seen := map[ProgressKind]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	for _, want := range []ProgressKind{ProgressBackendStarted, ProgressBackendDone, ProgressProved} {
		if !seen[want] {
			t.Errorf("progress stream missing kind %v (got %v)", want, kinds)
		}
	}
}
