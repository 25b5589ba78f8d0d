package model_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// sameWalker reports the first difference, bit for bit, between the
// watched-plan Walker and the counter-based reference: the accumulators,
// every query's best speedup, and the speedup and build cost of every
// unbuilt index.
func sameWalker(c *model.Compiled, w *model.Walker, ref *model.RefWalker) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if w.Len() != ref.Len() {
		return fmt.Errorf("len %d, reference %d", w.Len(), ref.Len())
	}
	if !same(w.Runtime(), ref.Runtime()) || !same(w.Objective(), ref.Objective()) || !same(w.DeployTime(), ref.DeployTime()) {
		return fmt.Errorf("runtime/objective/deploy %v/%v/%v, reference %v/%v/%v",
			w.Runtime(), w.Objective(), w.DeployTime(), ref.Runtime(), ref.Objective(), ref.DeployTime())
	}
	for q := range c.Inst.Queries {
		if !same(w.QueryBest(q), ref.QueryBest(q)) {
			return fmt.Errorf("query %d best %v, reference %v", q, w.QueryBest(q), ref.QueryBest(q))
		}
	}
	for i := 0; i < c.N; i++ {
		if w.Built(i) != ref.Built(i) {
			return fmt.Errorf("index %d built %v, reference %v", i, w.Built(i), ref.Built(i))
		}
		if w.Built(i) {
			continue
		}
		if got, want := w.SpeedupIfBuilt(i), ref.SpeedupIfBuilt(i); !same(got, want) {
			return fmt.Errorf("SpeedupIfBuilt(%d) %v, reference %v", i, got, want)
		}
		if got, want := w.BuildCost(i), ref.BuildCost(i); !same(got, want) {
			return fmt.Errorf("BuildCost(%d) %v, reference %v", i, got, want)
		}
	}
	return nil
}

// checkWalkerReference drives a Walker and the reference through the
// same ops random Push/Pop/Sync/Reset operations and compares them after
// each one.
func checkWalkerReference(c *model.Compiled, rng *rand.Rand, ops int) error {
	w, ref := model.NewWalker(c), model.NewRefWalker(c)
	if err := sameWalker(c, w, ref); err != nil {
		return fmt.Errorf("empty walker: %v", err)
	}
	unbuilt := func() []int {
		var out []int
		for i := 0; i < c.N; i++ {
			if !w.Built(i) {
				out = append(out, i)
			}
		}
		return out
	}
	for op := 0; op < ops; op++ {
		var what string
		switch r := rng.Intn(20); {
		case r == 0:
			what = "reset"
			w.Reset()
			ref.Reset()
		case r <= 2:
			// Sync onto a prefix sharing a random part of the current one.
			prefix := w.Order()[:rng.Intn(w.Len()+1)]
			rest := unbuiltAfter(c.N, prefix)
			rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
			prefix = append(prefix, rest[:rng.Intn(len(rest)+1)]...)
			what = fmt.Sprintf("sync to %d-step prefix", len(prefix))
			w.Sync(prefix)
			ref.Sync(prefix)
		case r <= 8 && w.Len() > 0:
			what = "pop"
			w.Pop()
			ref.Pop()
		default:
			free := unbuilt()
			if len(free) == 0 {
				continue
			}
			i := free[rng.Intn(len(free))]
			what = fmt.Sprintf("push %d", i)
			w.Push(i)
			ref.Push(i)
		}
		if err := sameWalker(c, w, ref); err != nil {
			return fmt.Errorf("op %d (%s) at %v: %v", op, what, w.Order(), err)
		}
	}
	return nil
}

// unbuiltAfter returns the indexes of 0..n-1 not in prefix.
func unbuiltAfter(n int, prefix []int) []int {
	in := make([]bool, n)
	for _, i := range prefix {
		in[i] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// wideInstance is a random instance above one bitset word (n > 64), where
// plans span several mask words.
func wideInstance(seed int64, n, queries int, density uint8) *model.Compiled {
	rng := rand.New(rand.NewSource(seed))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = queries
	cfg.BuildInteractionProb = float64(density%40) / 100
	cfg.MultiIndexPlanProb = float64(density%90) / 100
	in := randgen.New(rng, cfg)
	for q := range in.Queries {
		if rng.Intn(3) == 0 {
			in.Queries[q].Weight = 0.25 + 3*rng.Float64()
		}
	}
	return model.MustCompile(in)
}

// TestWalkerMatchesReference runs seeded random operation sequences on
// the solvertest instances and corpus, full TPC-DS (n=123, two mask
// words) and random instances of 65 to 130 indexes.
func TestWalkerMatchesReference(t *testing.T) {
	var cases []*model.Compiled
	for _, in := range append(solvertest.Instances(), solvertest.CorpusInstances()...) {
		cases = append(cases, model.MustCompile(in))
	}
	for k, n := range []int{65, 80, 100, 127, 128, 130} {
		cases = append(cases, wideInstance(int64(k), n, 8+5*k, uint8(30+11*k)))
	}
	cases = append(cases, model.MustCompile(datasets.TPCDS()))
	for k, c := range cases {
		if err := checkWalkerReference(c, rand.New(rand.NewSource(int64(k))), 300); err != nil {
			t.Fatalf("case %d (n=%d): %v", k, c.N, err)
		}
	}
}

// FuzzWalkerReference drives the comparison on fuzzer-chosen random
// instances of 1 to 130 indexes
// (go test -fuzz=FuzzWalkerReference ./internal/model).
func FuzzWalkerReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(10))
	f.Add(int64(7), uint8(70), uint8(17), uint8(35))
	f.Add(int64(-3), uint8(129), uint8(30), uint8(89))
	f.Fuzz(func(t *testing.T, seed int64, n, queries, density uint8) {
		c := wideInstance(seed, 1+int(n)%130, 1+int(queries%40), density)
		if err := checkWalkerReference(c, rand.New(rand.NewSource(seed)), 120); err != nil {
			t.Fatal(err)
		}
	})
}
