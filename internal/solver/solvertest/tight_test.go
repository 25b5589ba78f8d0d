// Tight-cost corpus tests: near-uniform costs neutralize the generic
// completion bound, so these instances are where the §5.5 tail bound
// has to earn its keep — and where any unsoundness in it would surface
// as a wrong "optimum". Every instance is proved with the tail bound on
// and off and both objectives must be bit-identical; n <= 12 instances
// are additionally
// anchored to exhaustive enumeration, so the cross-check is not
// self-referential. The node-count assertions pin the bound's two
// contracts: it may only remove subtrees (per-instance <=) and it must
// actually remove some (corpus-wide <).
package solvertest_test

import (
	"math"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestTightCorpusProofs: bit-identical proved optima with the tail bound
// on and off, brute-force anchored where enumeration reaches.
func TestTightCorpusProofs(t *testing.T) {
	var nodesOn, nodesOff int64
	for _, in := range solvertest.TightCorpusInstances() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			c := model.MustCompile(in)
			cs := sched.PrecedenceSet(in)
			tb := prune.NewTailBound(c, cs, prune.Options{})

			var res [2]cp.Result
			for k, tail := range []*prune.TailBound{nil, tb} {
				r := cp.Solve(c, cs, cp.Options{TailBound: tail})
				if !r.Proved {
					t.Fatalf("tail=%v: proof not exhausted", tail != nil)
				}
				solvertest.RequireFeasible(t, c.N, cs, r.Order)
				if got := c.Objective(r.Order); math.Float64bits(got) != math.Float64bits(r.Objective) {
					t.Fatalf("tail=%v: reported objective %v != replayed %v", tail != nil, r.Objective, got)
				}
				res[k] = r
			}
			off, on := res[0], res[1]
			if math.Float64bits(on.Objective) != math.Float64bits(off.Objective) {
				t.Fatalf("objective %x with the tail bound, %x without: not bit-identical",
					math.Float64bits(on.Objective), math.Float64bits(off.Objective))
			}
			// The tail bound only ever removes provably dominated
			// subtrees, so the tree with it on is a subset of the tree
			// with it off.
			if on.Nodes > off.Nodes {
				t.Fatalf("tail bound grew the tree: %d nodes with, %d without", on.Nodes, off.Nodes)
			}
			nodesOn += on.Nodes
			nodesOff += off.Nodes

			if c.N <= bruteforce.MaxN {
				bf, err := bruteforce.Solve(c, cs, true)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(on.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
					t.Fatalf("cp optimum %v != bruteforce %v", on.Objective, bf.Objective)
				}
			}
		})
	}
	if nodesOn >= nodesOff {
		t.Fatalf("tail bound pruned nothing across the corpus: %d nodes with, %d without", nodesOn, nodesOff)
	}
	t.Logf("tail bound: %d serial nodes with vs %d without (%.1f%% pruned)",
		nodesOn, nodesOff, 100*(1-float64(nodesOn)/float64(nodesOff)))
}

// TestTightCorpusSingleWorkerDeterminism: the serial engine with the
// pooled candidate rows and the tail bound enabled must stay the
// reproducibility anchor — two runs walk the exact same tree.
func TestTightCorpusSingleWorkerDeterminism(t *testing.T) {
	for _, in := range solvertest.TightCorpusInstances() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			c := model.MustCompile(in)
			cs := sched.PrecedenceSet(in)
			tb := prune.NewTailBound(c, cs, prune.Options{})
			run := func() ([]float64, cp.Result) {
				var objs []float64
				res := cp.Solve(c, cs, cp.Options{
					TailBound:  tb,
					OnSolution: func(_ []int, obj float64) { objs = append(objs, obj) },
				})
				return objs, res
			}
			aObjs, a := run()
			bObjs, b := run()
			if a.Nodes != b.Nodes || a.Fails != b.Fails || a.Solutions != b.Solutions {
				t.Fatalf("effort diverged: %+v vs %+v", a, b)
			}
			if len(aObjs) != len(bObjs) {
				t.Fatalf("improvement sequences diverged: %d vs %d", len(aObjs), len(bObjs))
			}
			for k := range aObjs {
				if math.Float64bits(aObjs[k]) != math.Float64bits(bObjs[k]) {
					t.Fatalf("improvement %d diverged: %v vs %v", k, aObjs[k], bObjs[k])
				}
			}
			for k := range a.Order {
				if a.Order[k] != b.Order[k] {
					t.Fatalf("orders diverged at %d: %v vs %v", k, a.Order, b.Order)
				}
			}
		})
	}
}

// TestTightCorpusShape guards the generator: ten instances, the n and
// density grid intact, costs genuinely tight (max/min creation cost
// within the 80..90 band), and every instance carrying precedence
// edges.
func TestTightCorpusShape(t *testing.T) {
	instances := solvertest.TightCorpusInstances()
	if len(instances) != 10 {
		t.Fatalf("tight corpus has %d instances, want 10", len(instances))
	}
	for _, in := range instances {
		if in.N() < 10 || in.N() > 14 {
			t.Errorf("%s: n=%d outside the 10..14 grid", in.Name, in.N())
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, ix := range in.Indexes {
			lo = math.Min(lo, ix.CreateCost)
			hi = math.Max(hi, ix.CreateCost)
		}
		if hi/lo > 1.2 {
			t.Errorf("%s: creation costs not tight (%.1f..%.1f)", in.Name, lo, hi)
		}
		if len(in.Precedences) == 0 {
			t.Errorf("%s: no precedence edges", in.Name)
		}
	}
}
