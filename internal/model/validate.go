package model

import (
	"fmt"
	"sort"
	"unicode/utf8"
)

// Validate checks structural integrity of the instance: names that are
// valid UTF-8 (a JSON answer could not name the index otherwise),
// references in range, positive costs and runtimes, plan speedups
// within query runtime, duplicate-free plan index sets, build discounts
// smaller than creation costs, and an acyclic precedence relation. It
// returns the first problem found.
func (in *Instance) Validate() error {
	n := len(in.Indexes)
	names := make(map[string]bool, n)
	for i, ix := range in.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("index %d: empty name", i)
		}
		if !utf8.ValidString(ix.Name) {
			return fmt.Errorf("index %d: name %q is not valid UTF-8", i, ix.Name)
		}
		if names[ix.Name] {
			return fmt.Errorf("index %d: duplicate name %q", i, ix.Name)
		}
		names[ix.Name] = true
		if ix.CreateCost <= 0 {
			return fmt.Errorf("index %d (%s): create cost %v must be positive", i, ix.Name, ix.CreateCost)
		}
	}
	for q, qu := range in.Queries {
		if !utf8.ValidString(qu.Name) {
			return fmt.Errorf("query %d: name %q is not valid UTF-8", q, qu.Name)
		}
		if qu.Runtime <= 0 {
			return fmt.Errorf("query %d (%s): runtime %v must be positive", q, qu.Name, qu.Runtime)
		}
		if qu.Weight < 0 {
			return fmt.Errorf("query %d (%s): negative weight %v", q, qu.Name, qu.Weight)
		}
	}
	for pi, p := range in.Plans {
		if p.Query < 0 || p.Query >= len(in.Queries) {
			return fmt.Errorf("plan %d: query %d out of range", pi, p.Query)
		}
		if len(p.Indexes) == 0 {
			return fmt.Errorf("plan %d: empty index set (the no-index plan is implicit)", pi)
		}
		seen := make(map[int]bool, len(p.Indexes))
		for _, ix := range p.Indexes {
			if ix < 0 || ix >= n {
				return fmt.Errorf("plan %d: index %d out of range", pi, ix)
			}
			if seen[ix] {
				return fmt.Errorf("plan %d: duplicate index %d", pi, ix)
			}
			seen[ix] = true
		}
		if p.Speedup <= 0 {
			return fmt.Errorf("plan %d: speedup %v must be positive", pi, p.Speedup)
		}
		if p.Speedup > in.Queries[p.Query].Runtime+1e-9 {
			return fmt.Errorf("plan %d: speedup %v exceeds query runtime %v",
				pi, p.Speedup, in.Queries[p.Query].Runtime)
		}
	}
	for bi, b := range in.BuildInteractions {
		if b.Target < 0 || b.Target >= n {
			return fmt.Errorf("build interaction %d: target %d out of range", bi, b.Target)
		}
		if b.Helper < 0 || b.Helper >= n {
			return fmt.Errorf("build interaction %d: helper %d out of range", bi, b.Helper)
		}
		if b.Target == b.Helper {
			return fmt.Errorf("build interaction %d: target == helper (%d)", bi, b.Target)
		}
		if b.Speedup <= 0 {
			return fmt.Errorf("build interaction %d: speedup %v must be positive", bi, b.Speedup)
		}
		if b.Speedup >= in.Indexes[b.Target].CreateCost {
			return fmt.Errorf("build interaction %d: speedup %v >= target create cost %v",
				bi, b.Speedup, in.Indexes[b.Target].CreateCost)
		}
	}
	for pi, pr := range in.Precedences {
		if pr.Before < 0 || pr.Before >= n || pr.After < 0 || pr.After >= n {
			return fmt.Errorf("precedence %d: reference out of range", pi)
		}
		if pr.Before == pr.After {
			return fmt.Errorf("precedence %d: self precedence on %d", pi, pr.Before)
		}
	}
	if cyc := precedenceCycle(n, in.Precedences); cyc != nil {
		return fmt.Errorf("precedence cycle: %v", cyc)
	}
	return nil
}

// precedenceCycle returns a cycle as a list of index positions, or nil.
func precedenceCycle(n int, precs []Precedence) []int {
	adj := make([][]int, n)
	for _, p := range precs {
		adj[p.Before] = append(adj[p.Before], p.After)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range adj[u] {
			if color[v] == gray {
				// Reconstruct u -> ... -> v cycle.
				cycle = []int{v}
				for w := u; w != v && w != -1; w = parent[w] {
					cycle = append(cycle, w)
				}
				sort.Ints(cycle)
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < n; i++ {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// ValidOrder reports whether order is a permutation of 0..N-1 that
// satisfies every precedence constraint.
func (in *Instance) ValidOrder(order []int) error {
	n := len(in.Indexes)
	if len(order) != n {
		return fmt.Errorf("order has %d entries, want %d", len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for k, ix := range order {
		if ix < 0 || ix >= n {
			return fmt.Errorf("order[%d]=%d out of range", k, ix)
		}
		if pos[ix] != -1 {
			return fmt.Errorf("order repeats index %d", ix)
		}
		pos[ix] = k
	}
	for _, pr := range in.Precedences {
		if pos[pr.Before] > pos[pr.After] {
			return fmt.Errorf("precedence violated: index %d (pos %d) must precede %d (pos %d)",
				pr.Before, pos[pr.Before], pr.After, pos[pr.After])
		}
	}
	return nil
}
