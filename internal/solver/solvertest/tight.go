package solvertest

import (
	"fmt"
	"math/rand"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
)

// TightCorpusInstances generates the tight-cost hardening corpus: ten
// instances at n=10–14 crossed with two precedence densities, with
// near-uniform creation costs and query runtimes. Near-uniform costs
// are the worst case for the generic completion bound — every
// remaining step pays almost the same deployment area, so the bound
// degenerates and the proof search leans on combinatorial pruning and
// on the §5.5 tail tables, which stay exact regardless of cost spread.
// This is the regime the paper's deployment-window instances live in,
// and the corpus where the tail bound (cp.Options.TailBound) must
// visibly shrink the tree.
//
// Kept separate from CorpusInstances: sizes 13–14 are beyond
// bruteforce.MaxN, so their optima are established by cross-checking
// independent CP configurations (tail bound on/off)
// against each other in the tight corpus tests, with brute force
// anchoring every n <= 12 instance.
func TightCorpusInstances() []*model.Instance {
	var out []*model.Instance
	for n := 10; n <= 14; n++ {
		for _, p := range []float64{0.35, 0.5} {
			cfg := randgen.DefaultConfig()
			cfg.Indexes = n
			cfg.Queries = 8
			cfg.PrecedenceProb = p
			cfg.BuildInteractionProb = 0.08
			cfg.CreateCostLo, cfg.CreateCostHi = 80, 90
			cfg.QueryRuntimeLo, cfg.QueryRuntimeHi = 180, 220
			rng := rand.New(rand.NewSource(int64(5000*n) + int64(100*p)))
			in := randgen.New(rng, cfg)
			in.Name = fmt.Sprintf("tight-n%d-p%02d", n, int(100*p))
			out = append(out, in)
		}
	}
	return out
}
