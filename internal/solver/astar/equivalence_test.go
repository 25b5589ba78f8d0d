package astar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// driftShaped generates a randgen instance shaped like the service's
// session workloads: as many queries as indexes.
func driftShaped(seed int64, n int) *model.Instance {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = n
	return randgen.New(rand.New(rand.NewSource(seed)), cfg)
}

// outcome is everything an A* run reports, OnSolution calls included.
type outcome struct {
	res       Result
	published [][]int
	pubObj    []float64
}

func runBoth(c *model.Compiled, cs *constraint.Set, opt Options) (got, want outcome) {
	run := func(o *outcome, solve func(Options) Result) {
		opt := opt
		opt.OnSolution = func(order []int, obj float64) {
			o.published = append(o.published, order)
			o.pubObj = append(o.pubObj, obj)
		}
		o.res = solve(opt)
	}
	run(&got, func(opt Options) Result {
		res, err := Solve(c, cs, opt)
		if err != nil {
			panic(err)
		}
		return res
	})
	run(&want, func(opt Options) Result { return solveReference(c, cs, opt) })
	return got, want
}

// sameOutcome reports how got differs from want, or "" when the two runs
// are identical: the same counts, objective bits, order and publishes.
func sameOutcome(got, want outcome) string {
	g, w := got.res, want.res
	switch {
	case g.Expanded != w.Expanded:
		return fmt.Sprintf("expanded %d, reference %d", g.Expanded, w.Expanded)
	case g.States != w.States:
		return fmt.Sprintf("states %d, reference %d", g.States, w.States)
	case g.Proved != w.Proved:
		return fmt.Sprintf("proved %v, reference %v", g.Proved, w.Proved)
	case math.Float64bits(g.Objective) != math.Float64bits(w.Objective):
		return fmt.Sprintf("objective %v, reference %v", g.Objective, w.Objective)
	case (g.Order == nil) != (w.Order == nil) || !slices.Equal(g.Order, w.Order):
		return fmt.Sprintf("order %v, reference %v", g.Order, w.Order)
	case !slices.EqualFunc(got.published, want.published, slices.Equal[[]int]) ||
		!slices.Equal(got.pubObj, want.pubObj):
		return fmt.Sprintf("published %v %v, reference %v %v",
			got.published, got.pubObj, want.published, want.pubObj)
	}
	return ""
}

// equivalenceConfigs are the option sets every instance runs under; each
// also runs with and without the prune.Analyze precedences.
func equivalenceConfigs(c *model.Compiled, cs *constraint.Set) map[string]Options {
	bound := c.Objective(greedy.Solve(c, cs))
	ext := func() float64 { return bound }
	return map[string]Options{
		"unlimited":   {},
		"limit500":    {NodeLimit: 500},
		"bound":       {ExternalBound: ext},
		"limit+bound": {NodeLimit: 50_000, ExternalBound: ext},
	}
}

// TestMatchesReference requires Solve to expand exactly what the
// reference A* expands — same Expanded, States, Proved, objective bits,
// Order and OnSolution calls — on the conformance corpora and on
// session-shaped random instances of every size up to 17.
func TestMatchesReference(t *testing.T) {
	instances := append(solvertest.Instances(), solvertest.CorpusInstances()...)
	instances = append(instances, solvertest.TightCorpusInstances()...)
	for n := 4; n <= 17; n++ {
		seeds := int64(2)
		if n > 14 {
			seeds = 1 // unbounded proofs of the reference dominate the run time
		}
		for seed := int64(0); seed < seeds; seed++ {
			in := driftShaped(100*int64(n)+seed, n)
			in.Name = fmt.Sprintf("drift-shaped-n%d-s%d", n, seed)
			instances = append(instances, in)
		}
	}
	for _, in := range instances {
		c := model.MustCompile(in)
		analyzed, _ := prune.Analyze(c, prune.Options{})
		for csName, cs := range map[string]*constraint.Set{"declared": sched.PrecedenceSet(in), "analyzed": analyzed} {
			for optName, opt := range equivalenceConfigs(c, cs) {
				got, want := runBoth(c, cs, opt)
				if diff := sameOutcome(got, want); diff != "" {
					t.Errorf("%s (n=%d) %s/%s: %s", in.Name, c.N, csName, optName, diff)
				}
			}
		}
	}
}

// FuzzAstarReference compares Solve with the reference on random shapes,
// node limits, bounds (the optimum among them, where the cut stores only
// what A* expands) and constraint sets, and checks every proved
// objective against brute force on instances small enough for it.
func FuzzAstarReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(10), uint16(0), uint8(0), true)
	f.Add(int64(7), uint8(9), uint8(9), uint8(30), uint16(500), uint8(1), false)
	f.Add(int64(42), uint8(13), uint8(4), uint8(0), uint16(40), uint8(2), true)
	f.Add(int64(3), uint8(12), uint8(11), uint8(5), uint16(0), uint8(3), true)
	// One query: f ties everywhere, so any drift in h's bits reorders pops.
	f.Add(int64(-35), uint8(9), uint8(0), uint8(23), uint16(418), uint8(48), false)
	f.Fuzz(func(t *testing.T, seed int64, n, queries, precPct uint8, limit uint16, bound uint8, analyze bool) {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 1 + int(n%14) // 1..14
		cfg.Queries = 1 + int(queries%14)
		cfg.PrecedenceProb = float64(precPct%50) / 100
		cfg.BuildInteractionProb = 0.1
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		if analyze {
			cs, _ = prune.Analyze(c, prune.Options{})
		}
		opt := Options{NodeLimit: int64(limit)}
		if bound%4 != 0 { // 0 = no bound; 1 = greedy; 2 = just below greedy; 3 = the optimum
			b := c.Objective(greedy.Solve(c, cs))
			switch bound % 4 {
			case 2:
				b *= 0.999
			case 3:
				best, err := Solve(c, cs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				b = best.Objective
			}
			opt.ExternalBound = func() float64 { return b }
		}
		got, want := runBoth(c, cs, opt)
		if diff := sameOutcome(got, want); diff != "" {
			t.Fatalf("n=%d: %s", c.N, diff)
		}
		if !got.res.Proved || got.res.Order == nil || c.N > 8 {
			return
		}
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("n=%d: astar %v != bruteforce %v", c.N, got.res.Objective, bf.Objective)
		}
		if err := in.ValidOrder(got.res.Order); err != nil {
			t.Fatalf("n=%d: infeasible order: %v", c.N, err)
		}
	})
}
