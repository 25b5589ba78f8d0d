package astar

import (
	"container/heap"
	"math"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

// solveReference is the straightforward A* that Solve must reproduce
// expansion for expansion: one heap-allocated node per generated child
// carrying a full copy of its prefix, a container/heap open list, a Go
// map for g, and a walker Push/Pop for every child. A child whose f
// exceeds the external bound read at its parent's pop is cut: neither
// stored in the map nor pushed. The equivalence tests require identical
// Expanded, States, Proved, objective bits and Order from both.
func solveReference(c *model.Compiled, cs *constraint.Set, opt Options) Result {
	if cs == nil {
		cs = constraint.NewSet(c.N)
	}
	lb := bruteforce.NewLowerBound(c)

	// Precompute predecessor masks for readiness checks.
	predMask := make([]uint64, c.N)
	for i := 0; i < c.N; i++ {
		cs.Predecessors(i).ForEach(func(p int) bool {
			predMask[i] |= 1 << uint(p)
			return true
		})
	}

	w := model.NewWalker(c)
	gBest := map[uint64]float64{0: 0}
	open := &refPQ{&refNode{mask: 0, g: 0, f: 0, order: nil}}
	goal := uint64(1)<<uint(c.N) - 1

	var res Result
	res.Objective = math.Inf(1)

	for open.Len() > 0 {
		cur := heap.Pop(open).(*refNode)
		if best, ok := gBest[cur.mask]; ok && cur.g > best+1e-12 {
			continue // stale entry
		}
		res.Expanded++
		if opt.NodeLimit > 0 && res.Expanded > opt.NodeLimit {
			res.States = int64(len(gBest))
			return res // aborted: Proved stays false
		}
		if opt.Context != nil && res.Expanded%256 == 0 {
			select {
			case <-opt.Context.Done():
				res.States = int64(len(gBest))
				return res // aborted: Proved stays false
			default:
			}
		}
		cut := math.Inf(1)
		if opt.ExternalBound != nil {
			if cut = opt.ExternalBound() + 1e-9; cur.f > cut {
				break
			}
		}
		if cur.mask == goal {
			res.Order = cur.order
			res.Objective = cur.g
			res.Proved = true
			res.States = int64(len(gBest))
			if opt.OnSolution != nil {
				opt.OnSolution(append([]int(nil), cur.order...), cur.g)
			}
			return res
		}
		w.Sync(cur.order)
		for i := 0; i < c.N; i++ {
			bit := uint64(1) << uint(i)
			if cur.mask&bit != 0 || cur.mask&predMask[i] != predMask[i] {
				continue
			}
			w.Push(i)
			ng := w.Objective()
			nmask := cur.mask | bit
			if old, ok := gBest[nmask]; !ok || ng < old-1e-12 {
				var restSum, restMin float64
				restMin = math.Inf(1)
				for j := 0; j < c.N; j++ {
					if nmask&(1<<uint(j)) == 0 {
						mc := lb.MinCost(j)
						restSum += mc
						if mc < restMin {
							restMin = mc
						}
					}
				}
				h := 0.0
				if !math.IsInf(restMin, 1) {
					h = w.Runtime()*restMin + lb.MinRuntime()*(restSum-restMin)
				}
				if ng+h <= cut {
					gBest[nmask] = ng
					norder := make([]int, len(cur.order)+1)
					copy(norder, cur.order)
					norder[len(cur.order)] = i
					heap.Push(open, &refNode{mask: nmask, g: ng, f: ng + h, order: norder})
				}
			}
			w.Pop()
		}
	}
	res.Proved = opt.ExternalBound != nil
	res.States = int64(len(gBest))
	return res
}

type refNode struct {
	mask  uint64
	g     float64
	f     float64
	order []int
}

type refPQ []*refNode

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].f < p[j].f }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(*refNode)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}
