package astar

import (
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// BenchmarkRaceProof times one pass of race-style proofs — prune.Analyze
// constraints, a 50k-expansion limit and the greedy objective as the
// external bound — over twelve session-shaped instances at n = 15–17,
// for Solve and for the reference implementation:
//
//	go test -run '^$' -bench RaceProof -benchmem ./internal/solver/astar
func BenchmarkRaceProof(b *testing.B) {
	type proof struct {
		c     *model.Compiled
		cs    *constraint.Set
		bound float64
	}
	var proofs []proof
	for k := int64(0); k < 12; k++ {
		c := model.MustCompile(driftShaped(7000+k, 15+int(k%3)))
		cs, _ := prune.Analyze(c, prune.Options{})
		proofs = append(proofs, proof{c, cs, c.Objective(greedy.Solve(c, cs))})
	}
	for _, impl := range []struct {
		name  string
		solve func(*model.Compiled, *constraint.Set, Options) Result
	}{
		{"arena", func(c *model.Compiled, cs *constraint.Set, opt Options) Result {
			res, _ := Solve(c, cs, opt)
			return res
		}},
		{"reference", solveReference},
	} {
		b.Run(impl.name, func(b *testing.B) {
			var expanded int64
			for it := 0; it < b.N; it++ {
				expanded = 0
				for _, p := range proofs {
					bound := p.bound
					res := impl.solve(p.c, p.cs, Options{NodeLimit: 50_000, ExternalBound: func() float64 { return bound }})
					expanded += res.Expanded
				}
			}
			b.ReportMetric(float64(expanded), "expansions/op")
		})
	}
}
