package portfolio

import (
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/astar"
)

// Fast-path routing: most production advisor traffic is small instances
// for which racing ten backends is pure overhead — one exact solver
// proves the optimum in milliseconds. Route sends every small instance
// straight to A* (the paper's §4.5 subset search), the fastest exact
// prover at every routed size, instead of the full portfolio race; the
// caller runs it as a one-name Solve roster. Because the routed backend runs to exhaustion and proves optimality,
// the routed objective is bit-identical to what the race would return
// (both are the unique optimum under the shared evaluation core); when
// it fails to prove within budget, the caller falls back to the race,
// so routing can never degrade result quality.

// Features are cheap instance descriptors, bucketed by Class for
// per-class reporting.
type Features struct {
	// N is the index count — the dominant cost driver for every exact
	// backend.
	N int
	// PrecedenceEdges counts explicit precedence constraints.
	PrecedenceEdges int
	// PrecedenceDensity is PrecedenceEdges / (n choose 2), in [0, 1].
	PrecedenceDensity float64
	// Plans counts the instance's query plans (constraint count in the
	// evaluation sense: every plan is one speedup term to maintain).
	Plans int
}

// FeaturesOf derives the features of a compiled instance. cs may be nil
// (no precedence constraints).
func FeaturesOf(c *model.Compiled, cs *constraint.Set) Features {
	f := Features{N: c.N, Plans: len(c.PlanQuery)}
	if cs != nil {
		f.PrecedenceEdges = cs.Len()
	}
	if pairs := c.N * (c.N - 1) / 2; pairs > 0 {
		f.PrecedenceDensity = float64(f.PrecedenceEdges) / float64(pairs)
	}
	return f
}

// Class buckets the features into a coarse key: size band plus
// precedence-density band.
func (f Features) Class() string {
	size := "tiny"
	switch {
	case f.N > 16:
		size = "large"
	case f.N > 10:
		size = "medium"
	case f.N > 7:
		size = "small"
	}
	dens := "sparse"
	if f.PrecedenceDensity > 0.15 {
		dens = "dense"
	}
	return size + "/" + dens
}

// DefaultFastPathMaxN is the routing size threshold: instances this
// small prove in a few milliseconds, so the portfolio race is pure
// overhead for them.
const DefaultFastPathMaxN = 12

// Every size Route sends to A* must be one A* accepts.
var _ = [astar.MaxN - DefaultFastPathMaxN]struct{}{}

// Route picks the backend to fast-path an n-index instance to, or
// reports ok=false when it should run the full portfolio race. Every
// instance with 1 ≤ n ≤ DefaultFastPathMaxN goes to A*.
func Route(n int) (string, bool) {
	if n < 1 || n > DefaultFastPathMaxN {
		return "", false
	}
	return "astar", true
}
