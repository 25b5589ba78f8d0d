package dp_test

import (
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/dp"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestFeasibilityProperty: the DP baseline ignores precedence constraints
// by construction, so its production path (portfolio, conformance) pipes
// the order through Set.Repair — the repaired order must always be a
// feasible permutation.
func TestFeasibilityProperty(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.PrecedenceProb = 0.08
	for seed := int64(0); seed < 25; seed++ {
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		solvertest.RequireFeasible(t, c.N, cs, cs.Repair(dp.Solve(c)))
	}
}
