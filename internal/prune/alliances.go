package prune

import (
	"sort"

	"github.com/evolving-olap/idd/internal/sched"
)

// alliances detects allied index groups (§5.1, Appendix D.2): indexes
// whose plan memberships are identical — building a strict subset of the
// group never completes a plan the subset's complement wouldn't, so no
// speedup materializes until the whole group exists. Soundness of the
// consecutive-chaining constraint additionally requires that members are
// interchangeable: no member may help any build (inside or outside the
// group), and no member's build may be helped by another member, so any
// internal order has the same objective. The chaining exchange moves
// earlier members later (adjacent to the group's last member), so no
// member may have a precedence successor outside the group — such a
// member can sit early in every optimal order purely to unblock its
// successor. Members are chained in an order consistent with the
// accumulated constraints.
func (a *analyzer) alliances(rep *Report) {
	c := a.c
	n := c.N
	// Plan-membership signature per index.
	sig := make(map[string][]int)
	for i := 0; i < n; i++ {
		if len(c.PlansWithIndex[i]) == 0 {
			continue // dead index: handled by domination, not alliances
		}
		key := fmtInts(c.PlansWithIndex[i])
		sig[key] = append(sig[key], i)
	}
	keys := make([]string, 0, len(sig))
	for k := range sig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		group := sig[k]
		if len(group) < 2 {
			continue
		}
		if !a.allianceEligible(group) {
			continue
		}
		// Chain the group consistently with the existing constraints
		// (intra-group precedences stay respected); count it once.
		inGroup := map[int]bool{}
		for _, i := range group {
			inGroup[i] = true
		}
		order := make([]int, 0, len(group))
		for _, v := range a.cs.Repair(sched.Identity(n)) {
			if inGroup[v] {
				order = append(order, v)
			}
		}
		added := false
		for x := 0; x+1 < len(order); x++ {
			if a.add(order[x], order[x+1]) {
				added = true
			}
		}
		if added {
			rep.Alliances = append(rep.Alliances, append([]int(nil), group...))
		}
	}
}

// allianceEligible checks the build-interaction conditions that make
// alliance members interchangeable.
func (a *analyzer) allianceEligible(group []int) bool {
	inGroup := map[int]bool{}
	for _, i := range group {
		inGroup[i] = true
	}
	for _, i := range group {
		// A member must not speed up any build (Theorem 1's "no external
		// interactions"; internal helpers would make internal order
		// matter).
		if a.givesBuildHelp[i] {
			return false
		}
		// A member's build must not be helped by another member.
		for _, h := range a.c.Helpers[i] {
			if inGroup[h.Helper] {
				return false
			}
		}
		// A member's precedence successors must stay within the group:
		// chaining moves earlier members later, which would strand an
		// outside successor that has to wait for them.
		ok := true
		a.cs.Successors(i).ForEach(func(s int) bool {
			if !inGroup[s] {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

func fmtInts(xs []int) string {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		for x >= 10 {
			b = append(b, byte('0'+x%10))
			x /= 10
		}
		b = append(b, byte('0'+x), ',')
	}
	return string(b)
}
