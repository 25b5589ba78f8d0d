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
// for Solve and for the reference implementation. The -optimum variants
// bound each proof by its optimum instead, as a race does when its warm
// seed is already optimal:
//
//	go test -run '^$' -bench RaceProof -benchmem ./internal/solver/astar
func BenchmarkRaceProof(b *testing.B) {
	greedyBound := raceProofs()
	for _, bound := range []struct {
		suffix string
		proofs []raceProof
	}{
		{"", greedyBound},
		{"-optimum", optimumBound(greedyBound)},
	} {
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
			b.Run(impl.name+bound.suffix, func(b *testing.B) {
				var expanded, states int64
				for it := 0; it < b.N; it++ {
					expanded, states = 0, 0
					for _, p := range bound.proofs {
						res := impl.solve(p.c, p.cs, p.options())
						expanded += res.Expanded
						states += res.States
					}
				}
				b.ReportMetric(float64(expanded), "expansions/op")
				b.ReportMetric(float64(states), "states/op")
			})
		}
	}
}

// raceProof is one race-style proof: an instance, its prune.Analyze
// constraints and the greedy objective as the external bound.
type raceProof struct {
	c     *model.Compiled
	cs    *constraint.Set
	bound float64
}

// options is the race's A* configuration: a 50k-expansion limit and
// the greedy objective as the external bound.
func (p raceProof) options() Options {
	return Options{NodeLimit: 50_000, ExternalBound: func() float64 { return p.bound }}
}

// optimumBound returns proofs with each bound lowered to the proof's
// optimum, found by a race proof under the greedy bound.
func optimumBound(proofs []raceProof) []raceProof {
	out := make([]raceProof, len(proofs))
	for k, p := range proofs {
		res, _ := Solve(p.c, p.cs, p.options())
		out[k] = raceProof{p.c, p.cs, res.Objective}
	}
	return out
}

// raceProofs builds BenchmarkRaceProof's twelve session-shaped
// instances at n = 15–17.
func raceProofs() []raceProof {
	var proofs []raceProof
	for k := int64(0); k < 12; k++ {
		c := model.MustCompile(driftShaped(7000+k, 15+int(k%3)))
		cs, _ := prune.Analyze(c, prune.Options{})
		proofs = append(proofs, raceProof{c, cs, c.Objective(greedy.Solve(c, cs))})
	}
	return proofs
}
