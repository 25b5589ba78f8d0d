package greedy

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
)

// solveReference is the scorer greedy used before it kept its own plan
// counts: every candidate is pushed onto the walker, its interaction
// shares read off the pushed state, and popped again.
func solveReference(c *model.Compiled, cs *constraint.Set) []int {
	n := c.N
	w := model.NewWalker(c)
	missing := make([]int, len(c.PlanIdx))
	for p, idx := range c.PlanIdx {
		missing[p] = len(idx)
	}
	benefitOf := func(i int) float64 {
		benefit := w.SpeedupIfBuilt(i)
		w.Push(i)
		for _, p := range c.PlansWithIndex[i] {
			m := missing[p] - 1
			if m == 0 {
				continue
			}
			q := c.PlanQuery[p]
			planRuntime := c.QryRuntime[q] - c.PlanSpd[p]
			interaction := w.QueryRuntime(q) - planRuntime
			if interaction > 0 {
				benefit += interaction / float64(m+1)
			}
		}
		w.Pop()
		return benefit
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestDensity, bestCost := -1, -1.0, 0.0
		for i := 0; i < n; i++ {
			if w.Built(i) || !ready(i, w, cs) {
				continue
			}
			cost := w.BuildCost(i)
			density := benefitOf(i) / cost
			if best == -1 || density > bestDensity+1e-12 ||
				(density > bestDensity-1e-12 && cost < bestCost) {
				best, bestDensity, bestCost = i, density, cost
			}
		}
		w.Push(best)
		for _, p := range c.PlansWithIndex[best] {
			missing[p]--
		}
		order = append(order, best)
	}
	return order
}

// TestSolveMatchesReference: scoring from plan counts picks exactly the
// order the push-and-pop scorer picks, on random instances with and
// without precedences and on full TPC-DS under the §5 analysis.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for rep := 0; rep < 60; rep++ {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 2 + rng.Intn(90)
		cfg.Queries = 1 + rng.Intn(30)
		cfg.PrecedenceProb = float64(rep%3) * 0.1
		cfg.BuildInteractionProb = float64(rep%4) * 0.08
		cfg.MultiIndexPlanProb = float64(rep%5) * 0.2
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		if got, want := Solve(c, cs), solveReference(c, cs); !slices.Equal(got, want) {
			t.Fatalf("rep %d (n=%d): order %v, reference %v", rep, c.N, got, want)
		}
	}
	c := model.MustCompile(datasets.TPCDS())
	cs, _ := prune.Analyze(c, prune.Options{})
	if got, want := Solve(c, cs), solveReference(c, cs); !slices.Equal(got, want) {
		t.Fatalf("TPC-DS: order %v, reference %v", got, want)
	}
}
