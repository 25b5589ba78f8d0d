package prune

import (
	"math"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
)

// tails runs the tail-index analysis of §5.5 / Appendix D.6: enumerate
// every feasible ordered tail of length L, compute each pattern's tail
// objective (the area its L steps contribute, which depends only on the
// preceding *set*), keep the champion(s) of every tail-set group, and
// extract rules that hold in all champions. The rule extracted here is
// suffix agreement: if every champion ends with the same index x, then x
// is last in some optimal solution and everything else precedes it; the
// check repeats inward while the agreed suffix grows. The fixed-point
// driver (§5.6) then re-runs the analysis with the new constraints,
// peeling further indexes.
//
// The rule needs every champion to end with the same index, so the scan
// stops at the first set whose champions end differently from those
// scored before it: the rule then adds nothing, which is what a full scan
// would conclude. Agreement does not depend on the order the sets are
// scored in, so the scan looks for a witness of disagreement first: once
// the first set's champions agree on a last index x, the sets without x
// come next (a champion of one cannot end with x), and the sets holding
// x follow only when none of those has a champion. Within a set, orders
// keep Heap's sequence, because the 1e-9 tie rule that picks the
// champions depends on it.
func (a *analyzer) tails(rep *Report, opt Options) {
	n := a.c.N
	length := opt.TailLength
	if length == 0 {
		length = 3
	}
	if length > n {
		length = n
	}
	maxPatterns := opt.MaxTailPatterns
	if maxPatterns == 0 {
		maxPatterns = 50000
	}
	if a.w == nil {
		a.w = model.NewWalker(a.c)
	}
	e := newTailEnum(a.cs, a.w, length, maxPatterns)
	if e == nil {
		return
	}

	// champs holds the champions found so far, length indexes each; last
	// is the index they all end with (-1 before the first champion).
	var champs []int
	last := -1
	score := func() bool {
		rep.TailSets++
		base := e.base()
		start := len(champs)
		best := math.Inf(1)
		e.orders(func(perm []int) {
			t := e.tail(perm, base)
			const tol = 1e-9
			switch {
			case t < best-tol:
				best = t
				champs = append(champs[:start], perm...)
			case t <= best+tol:
				champs = append(champs, perm...)
			}
		})
		for j := start + length - 1; j < len(champs); j += length {
			if last < 0 {
				last = champs[j]
			} else if champs[j] != last {
				return false
			}
		}
		return true
	}
	// First pass: every set up to the one that yields the first champion,
	// then only the sets without its last index.
	lastRank := -1
	for e.next() {
		if last >= 0 && e.inSet[last] {
			continue
		}
		if !score() {
			return
		}
		if last >= 0 && lastRank < 0 {
			lastRank = e.rank
		}
	}
	// Second pass: the later sets holding that index, which the first
	// pass deferred.
	if last >= 0 {
		for e.next() {
			if e.rank <= lastRank || !e.inSet[last] {
				continue
			}
			if !score() {
				return
			}
		}
	}
	if len(champs) == 0 {
		return
	}

	// Suffix agreement: walk from the last tail position inward while all
	// champions agree on the index at that position.
	inSuffix := make([]bool, n)
	for pos := length - 1; pos >= 0; pos-- {
		x := champs[pos]
		for j := pos + length; j < len(champs); j += length {
			if champs[j] != x {
				return // disagreement ends the suffix
			}
		}
		// x occupies absolute position n-length+pos in some optimal
		// solution: everything not in the agreed suffix precedes it.
		inSuffix[x] = true
		for y := 0; y < n; y++ {
			if !inSuffix[y] {
				a.add(y, x)
			}
		}
		if !containsInt(rep.TailFixed, x) {
			rep.TailFixed = append([]int{x}, rep.TailFixed...)
		}
	}
}

// tailEnum is the one tail enumerator behind tails, NewTailBound and
// TailPatterns. It visits the feasible tail sets of one length k — sets
// of k candidates whose every cs-successor is itself a member, so that
// they can end a schedule — in lex order of the candidate list, and
// scores the orders of the current set on a shared walker.
type tailEnum struct {
	cs    *constraint.Set
	w     *model.Walker
	cands []int  // indexes whose latest feasible position is in the last k
	pos   []int  // positions in cands of the current set's members
	set   []int  // the current set, ascending
	inSet []bool // dense membership of the current set
	rank  int    // 0-based rank of the current set among the feasible ones
	on    bool   // an enumeration is under way
	rest  []int  // scratch: the ascending complement of set
	perm  []int  // scratch: one order of set
}

// newTailEnum returns the enumerator of the feasible tail sets of length
// k, or nil when fewer than k indexes can reach the last k positions or
// when the k-subsets of those candidates have more than maxPatterns
// orders (the pattern budget).
func newTailEnum(cs *constraint.Set, w *model.Walker, k, maxPatterns int) *tailEnum {
	if k <= 0 {
		return nil
	}
	n := cs.N()
	var cands []int
	for i := 0; i < n; i++ {
		if cs.MaxPos(i) >= n-k {
			cands = append(cands, i)
		}
	}
	if len(cands) < k {
		return nil // over-constrained; nothing to enumerate
	}
	// Cost guard: #sets * k! patterns.
	if patterns := binomial(len(cands), k) * factorial(k); patterns <= 0 || patterns > maxPatterns {
		return nil
	}
	return &tailEnum{
		cs: cs, w: w, cands: cands,
		pos: make([]int, k), set: make([]int, k), inSet: make([]bool, n),
		rest: make([]int, 0, n), perm: make([]int, k),
	}
}

// next advances to the next feasible tail set and reports whether there
// is one. After the last set it reports false once, and the next call
// starts the enumeration over.
func (e *tailEnum) next() bool {
	for e.advance() {
		if e.feasible() {
			e.rank++
			return true
		}
	}
	return false
}

// advance moves to the next k-subset of cands in lex order.
func (e *tailEnum) advance() bool {
	k, m := len(e.pos), len(e.cands)
	if e.on {
		for _, i := range e.set {
			e.inSet[i] = false
		}
		j := k - 1
		for j >= 0 && e.pos[j] == m-k+j {
			j--
		}
		if j < 0 {
			e.on = false
			return false
		}
		e.pos[j]++
		for j++; j < k; j++ {
			e.pos[j] = e.pos[j-1] + 1
		}
	} else {
		for j := range e.pos {
			e.pos[j] = j
		}
		e.on, e.rank = true, -1
	}
	for j, p := range e.pos {
		e.set[j] = e.cands[p]
		e.inSet[e.set[j]] = true
	}
	return true
}

// feasible reports whether every cs-successor of a member of the current
// set is itself a member.
func (e *tailEnum) feasible() bool {
	for _, m := range e.set {
		ok := true
		e.cs.Successors(m).ForEach(func(s int) bool {
			ok = e.inSet[s]
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

// base positions the walker on the ascending complement of the current
// set and returns its objective. Sync keeps the prefix this complement
// shares with the previous one, and reaches bitwise the state a fresh
// replay would.
func (e *tailEnum) base() float64 {
	e.rest = e.rest[:0]
	for i, in := range e.inSet {
		if !in {
			e.rest = append(e.rest, i)
		}
	}
	e.w.Sync(e.rest)
	return e.w.Objective()
}

// tail returns the area the steps of perm add on top of the complement
// the walker stands on, whose objective is base. The last step is read
// with ObjectiveIfPushed, bitwise the value pushing it would give.
func (e *tailEnum) tail(perm []int, base float64) float64 {
	last := len(perm) - 1
	for _, m := range perm[:last] {
		e.w.Push(m)
	}
	t := e.w.ObjectiveIfPushed(perm[last]) - base
	for range perm[:last] {
		e.w.Pop()
	}
	return t
}

// orders calls fn with every cs-compatible order of the current set, in
// the sequence of Heap's algorithm (fn must not retain perm).
func (e *tailEnum) orders(fn func(perm []int)) {
	copy(e.perm, e.set)
	e.heap(len(e.perm), fn)
}

func (e *tailEnum) heap(k int, fn func(perm []int)) {
	if k == 1 {
		for x := 0; x < len(e.perm); x++ {
			for y := x + 1; y < len(e.perm); y++ {
				if e.cs.Before(e.perm[y], e.perm[x]) {
					return
				}
			}
		}
		fn(e.perm)
		return
	}
	for i := 0; i < k; i++ {
		e.heap(k-1, fn)
		if k%2 == 0 {
			e.perm[i], e.perm[k-1] = e.perm[k-1], e.perm[i]
		} else {
			e.perm[0], e.perm[k-1] = e.perm[k-1], e.perm[0]
		}
	}
}

// minTail returns the least tail area over the cs-compatible orders of
// the current set (+Inf when none has a comparable area), on top of the
// complement whose objective is base. A depth-first walk pushes each
// order's prefix once for all the orders that share it and reads the
// last step with ObjectiveIfPushed; the minimum does not depend on the
// order the orders are visited in.
func (e *tailEnum) minTail(base float64) float64 {
	best := math.Inf(1)
	e.descend(len(e.set), base, &best)
	return best
}

// descend places the next of the left unplaced members (those not yet
// built on the walker) in every way cs allows.
func (e *tailEnum) descend(left int, base float64, best *float64) {
	for _, m := range e.set {
		if e.w.Built(m) || !e.free(m) {
			continue
		}
		if left == 1 {
			if t := e.w.ObjectiveIfPushed(m) - base; t < *best {
				*best = t
			}
			return
		}
		e.w.Push(m)
		e.descend(left-1, base, best)
		e.w.Pop()
	}
}

// free reports whether m may be placed next: no other unplaced member
// must precede it.
func (e *tailEnum) free(m int) bool {
	for _, u := range e.set {
		if u != m && !e.w.Built(u) && e.cs.Before(u, m) {
			return false
		}
	}
	return true
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func binomial(n, k int) int {
	if k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
		if r > 1<<30 {
			return -1 // overflow guard: treat as "too many"
		}
	}
	return r
}

func factorial(k int) int {
	r := 1
	for i := 2; i <= k; i++ {
		r *= i
	}
	return r
}
