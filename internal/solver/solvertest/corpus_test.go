// Corpus tests: the generated brute-force-verified instances exercise
// the CP engine across canonical relabelings and repeat runs. These are
// the hardening counterpart to the per-feature conformance suite.
package solvertest_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// TestCorpusCP proves every corpus instance: each run must certify
// optimality and return a feasible optimal order.
func TestCorpusCP(t *testing.T) {
	for _, cse := range solvertest.Corpus(t) {
		cse := cse
		t.Run(cse.Name, func(t *testing.T) {
			res := cp.Solve(cse.C, cse.CS, cp.Options{})
			if !res.Proved {
				t.Fatal("search not exhausted")
			}
			solvertest.RequireOptimal(t, cse, res.Order)
		})
	}
}

// relabel writes the same problem down differently: index positions
// permuted by iperm, query positions by qperm, every integer reference
// remapped, and the record slices shuffled.
func relabel(in *model.Instance, iperm, qperm []int, rng *rand.Rand) *model.Instance {
	out := &model.Instance{
		Name:    in.Name + "-relabeled",
		Indexes: make([]model.Index, len(in.Indexes)),
		Queries: make([]model.Query, len(in.Queries)),
	}
	for i, ix := range in.Indexes {
		out.Indexes[iperm[i]] = ix
	}
	for q, qu := range in.Queries {
		out.Queries[qperm[q]] = qu
	}
	for _, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = iperm[i]
		}
		out.Plans = append(out.Plans, model.Plan{Query: qperm[p.Query], Indexes: idx, Speedup: p.Speedup})
	}
	for _, b := range in.BuildInteractions {
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: iperm[b.Target], Helper: iperm[b.Helper], Speedup: b.Speedup,
		})
	}
	for _, pr := range in.Precedences {
		out.Precedences = append(out.Precedences, model.Precedence{
			Before: iperm[pr.Before], After: iperm[pr.After],
		})
	}
	rng.Shuffle(len(out.Plans), func(a, b int) { out.Plans[a], out.Plans[b] = out.Plans[b], out.Plans[a] })
	rng.Shuffle(len(out.BuildInteractions), func(a, b int) {
		out.BuildInteractions[a], out.BuildInteractions[b] = out.BuildInteractions[b], out.BuildInteractions[a]
	})
	rng.Shuffle(len(out.Precedences), func(a, b int) {
		out.Precedences[a], out.Precedences[b] = out.Precedences[b], out.Precedences[a]
	})
	return out
}

// TestCorpusMetamorphicRelabeling: a relabeled and reordered copy of a
// corpus instance is the same problem, so (a) it canonicalizes to the
// same hash and (b) the CP proof on the copy lands on the same
// optimal objective. The tolerance is relative machine epsilon — the
// copy sums the same terms in a different query order, which may move
// the last bits, but nothing beyond.
func TestCorpusMetamorphicRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, cse := range solvertest.Corpus(t) {
		cse := cse
		t.Run(cse.Name, func(t *testing.T) {
			in := cse.C.Inst
			want := codec.CanonicalHash(in)
			for trial := 0; trial < 2; trial++ {
				shuffled := relabel(in, rng.Perm(len(in.Indexes)), rng.Perm(len(in.Queries)), rng)
				if err := shuffled.Validate(); err != nil {
					t.Fatalf("relabel broke the instance: %v", err)
				}
				if got := codec.CanonicalHash(shuffled); got != want {
					t.Fatalf("canonical hash changed under relabeling: %s vs %s", got, want)
				}
				c2 := model.MustCompile(shuffled)
				cs2 := sched.PrecedenceSet(shuffled)
				res := cp.Solve(c2, cs2, cp.Options{})
				if !res.Proved {
					t.Fatal("relabeled proof not exhausted")
				}
				if math.Abs(res.Objective-cse.Optimum) > 1e-9*(1+cse.Optimum) {
					t.Fatalf("relabeled optimum %v != %v", res.Objective, cse.Optimum)
				}
				if err := shuffled.ValidOrder(res.Order); err != nil {
					t.Fatalf("relabeled order infeasible: %v", err)
				}
			}
		})
	}
}

// TestCorpusSingleWorkerDeterminism: the single-worker engine is the
// reproducibility anchor of the stack — two runs must walk the exact
// same tree: identical node/fail/solution counts, identical improving
// sequences (bit for bit), identical final orders.
func TestCorpusSingleWorkerDeterminism(t *testing.T) {
	type trace struct {
		objs   []float64
		result cp.Result
	}
	run := func(cse *solvertest.Case) trace {
		var tr trace
		tr.result = cp.Solve(cse.C, cse.CS, cp.Options{
			OnSolution: func(_ []int, obj float64) { tr.objs = append(tr.objs, obj) },
		})
		return tr
	}
	for _, cse := range solvertest.Corpus(t) {
		cse := cse
		t.Run(cse.Name, func(t *testing.T) {
			a, b := run(cse), run(cse)
			if a.result.Nodes != b.result.Nodes || a.result.Fails != b.result.Fails ||
				a.result.Solutions != b.result.Solutions {
				t.Fatalf("effort diverged: %+v vs %+v", a.result, b.result)
			}
			if len(a.objs) != len(b.objs) {
				t.Fatalf("solution sequences diverged: %d vs %d improvements", len(a.objs), len(b.objs))
			}
			for k := range a.objs {
				if math.Float64bits(a.objs[k]) != math.Float64bits(b.objs[k]) {
					t.Fatalf("improvement %d diverged: %v vs %v", k, a.objs[k], b.objs[k])
				}
			}
			for k := range a.result.Order {
				if a.result.Order[k] != b.result.Order[k] {
					t.Fatalf("orders diverged at %d: %v vs %v", k, a.result.Order, b.result.Order)
				}
			}
		})
	}
}

// TestCorpusIsInteresting guards the generator: the corpus must keep its
// size, stay brute-forceable, and cover the structural axes (precedence
// edges, build interactions, explicit weights including zero).
func TestCorpusIsInteresting(t *testing.T) {
	instances := solvertest.CorpusInstances()
	if len(instances) < 30 {
		t.Fatalf("corpus shrank to %d instances", len(instances))
	}
	var withPrec, withBuild, withZeroWeight, withFracWeight int
	for _, in := range instances {
		if in.N() > 12 {
			t.Errorf("%s: %d indexes is beyond brute force", in.Name, in.N())
		}
		if len(in.Precedences) > 0 {
			withPrec++
		}
		if len(in.BuildInteractions) > 0 {
			withBuild++
		}
		for _, q := range in.Queries {
			if q.Weight == 0 {
				withZeroWeight++
				break
			}
		}
		for _, q := range in.Queries {
			if q.Weight != 0 && q.Weight < 1 {
				withFracWeight++
				break
			}
		}
	}
	if withPrec < 5 || withBuild < 5 || withZeroWeight < 5 || withFracWeight < 5 {
		t.Fatalf("corpus lost coverage: prec=%d build=%d zero-weight=%d frac-weight=%d",
			withPrec, withBuild, withZeroWeight, withFracWeight)
	}
}
