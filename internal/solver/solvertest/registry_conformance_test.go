// The registry-driven conformance sweep: every backend registered in
// this process — the built-ins pulled in via the portfolio import and
// anything a test file registers (see toy_backend_test.go) — runs the
// hand-crafted cases AND the generated brute-force-verified corpus
// automatically. Feasibility is asserted for everyone; backends whose
// Info declares the exact kind must reproduce the optimum and certify
// it. A new backend gets all of this for free the moment it calls
// backend.Register.
package solvertest_test

import (
	"context"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// Sweep effort bounds. Exact backends run step-unbounded — every case
// is brute-forceable, so their proofs are fast and mandatory. The rest
// only owe feasibility, so a step cap, not the wall clock, ends them.
// The budget is a generous backstop for every kind; no backend is
// expected to reach it.
const (
	sweepSteps  = 1500
	sweepBudget = 10 * time.Second
)

func TestRegistryConformance(t *testing.T) {
	cases := append(solvertest.Cases(t), solvertest.Corpus(t)...)
	for _, b := range backend.All() {
		info := b.Info()
		t.Run(info.Name, func(t *testing.T) {
			applicable := 0
			for seed, cse := range cases {
				if info.Applicable != nil && !info.Applicable(cse.C) {
					continue
				}
				applicable++
				steps := int64(sweepSteps)
				if info.Kind == backend.KindExact {
					steps = 0
				}
				req := solvertest.ConformanceRequest(cse, int64(seed)+1, steps, sweepBudget)
				ctx, cancel := context.WithTimeout(context.Background(), sweepBudget)
				out := b.Solve(ctx, req)
				cancel()
				if out.Err != nil {
					t.Fatalf("case %s: %v", cse.Name, out.Err)
				}
				if out.Order == nil {
					t.Fatalf("case %s: backend returned no order", cse.Name)
				}
				solvertest.RequireFeasible(t, cse.C.N, cse.CS, out.Order)
				if info.Kind == backend.KindExact {
					if !out.Proved {
						t.Fatalf("case %s: exact backend did not certify optimality", cse.Name)
					}
					solvertest.RequireOptimal(t, cse, out.Order)
				}
			}
			if applicable == 0 {
				t.Errorf("backend %s was applicable to no conformance case — its predicate is likely wrong", info.Name)
			}
		})
	}
}

// TestRegistryRosterSanity pins the minimum roster this sweep must
// cover, so an accidentally dropped registration fails loudly instead
// of silently shrinking coverage.
func TestRegistryRosterSanity(t *testing.T) {
	have := map[string]bool{}
	for _, b := range backend.All() {
		have[b.Info().Name] = true
	}
	for _, want := range []string{"greedy", "dp", "bruteforce", "astar", "cp",
		"tabu-b", "tabu-f", "lns", "vns", "anneal"} {
		if !have[want] {
			t.Errorf("registry lost built-in backend %q", want)
		}
	}
}
