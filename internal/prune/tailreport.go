package prune

import (
	"sort"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// TailPattern is one ordered tail candidate with its tail objective —
// a row of the paper's Figure 9.
type TailPattern struct {
	// Perm is the tail sequence (last Perm[len-1] deployed very last).
	Perm []int
	// Objective is the area the tail steps contribute given that every
	// non-member is already deployed.
	Objective float64
	// Champion marks the best pattern(s) within its tail-set group.
	Champion bool
}

// TailGroup collects the patterns over one tail index set.
type TailGroup struct {
	Set      []int // ascending member positions
	Patterns []TailPattern
}

// TailPatterns enumerates the feasible ordered tails of the given length
// under cs (nil = unconstrained), grouped by tail set, each group sorted
// by tail objective with champions marked — the data behind Figure 9.
// Returns nil when the candidate count would exceed maxPatterns
// (0 = 50000).
func TailPatterns(c *model.Compiled, cs *constraint.Set, length, maxPatterns int) []TailGroup {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	if length <= 0 {
		length = 3
	}
	if length > c.N {
		length = c.N
	}
	if maxPatterns == 0 {
		maxPatterns = 50000
	}
	e := newTailEnum(cs, model.NewWalker(c), length, maxPatterns)
	if e == nil {
		return nil
	}
	var groups []TailGroup
	for e.next() {
		base := e.base()
		g := TailGroup{Set: append([]int(nil), e.set...)}
		e.orders(func(perm []int) {
			g.Patterns = append(g.Patterns, TailPattern{
				Perm:      append([]int(nil), perm...),
				Objective: e.tail(perm, base),
			})
		})
		if len(g.Patterns) == 0 {
			continue
		}
		sort.SliceStable(g.Patterns, func(a, b int) bool {
			return g.Patterns[a].Objective < g.Patterns[b].Objective
		})
		best := g.Patterns[0].Objective
		for i := range g.Patterns {
			g.Patterns[i].Champion = g.Patterns[i].Objective <= best+1e-9
		}
		groups = append(groups, g)
	}
	return groups
}
