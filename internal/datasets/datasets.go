// Package datasets builds the canonical problem instances of the paper's
// experiments (§8, Table 4): the TPC-H instance (31 indexes) and the
// TPC-DS instance (≈150 indexes), plus the reduced-density TPC-H variants
// of §8.1 used by the exact-search experiments (Tables 5 and 6). The
// advisor parameters are calibrated so the instance statistics match
// Table 4 (iddinspect prints them for any instance file).
package datasets

import (
	"sort"
	"sync"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/tpcds"
	"github.com/evolving-olap/idd/internal/tpch"
)

// Density selects the interaction density of a reduced instance (§8.1).
type Density int8

// Density levels. Low removes all suboptimal query plans and all build
// interactions; Mid keeps one suboptimal plan per query and only build
// interactions with at least 15% effect; Full keeps everything.
const (
	Low Density = iota
	Mid
	Full
)

func (d Density) String() string {
	switch d {
	case Low:
		return "low"
	case Mid:
		return "mid"
	default:
		return "full"
	}
}

var (
	tpchOnce  sync.Once
	tpchInst  *model.Instance
	tpcdsOnce sync.Once
	tpcdsInst *model.Instance
)

// TPCH returns the full TPC-H ordering instance (cached; callers must
// not mutate it — use Clone for that).
func TPCH() *model.Instance {
	tpchOnce.Do(func() {
		in, _, err := advisor.BuildInstance("tpch", tpch.Schema(), tpch.Queries(), advisor.Options{
			MaxIndexes:          32,
			MaxPlansPerQuery:    20,
			MinBuildInteraction: 0.22,
		})
		if err != nil {
			panic("datasets: tpch build failed: " + err.Error())
		}
		tpchInst = in
	})
	return tpchInst
}

// TPCDS returns the full TPC-DS ordering instance (cached).
func TPCDS() *model.Instance {
	tpcdsOnce.Do(func() {
		in, _, err := advisor.BuildInstance("tpcds", tpcds.Schema(), tpcds.Queries(), advisor.Options{
			MaxIndexes:          170,
			MaxPlansPerQuery:    33,
			MinBuildInteraction: 0.22,
		})
		if err != nil {
			panic("datasets: tpcds build failed: " + err.Error())
		}
		tpcdsInst = in
	})
	return tpcdsInst
}

// Clone deep-copies an instance so experiments can mutate it.
func Clone(in *model.Instance) *model.Instance {
	out := &model.Instance{Name: in.Name}
	out.Indexes = append([]model.Index(nil), in.Indexes...)
	for i := range out.Indexes {
		out.Indexes[i].Columns = append([]string(nil), in.Indexes[i].Columns...)
		out.Indexes[i].Include = append([]string(nil), in.Indexes[i].Include...)
	}
	out.Queries = append([]model.Query(nil), in.Queries...)
	out.Plans = append([]model.Plan(nil), in.Plans...)
	for i := range out.Plans {
		out.Plans[i].Indexes = append([]int(nil), in.Plans[i].Indexes...)
	}
	out.BuildInteractions = append([]model.BuildInteraction(nil), in.BuildInteractions...)
	out.Precedences = append([]model.Precedence(nil), in.Precedences...)
	return out
}

// ReducedTPCH builds the §8.1 experiment instances: the n most
// plan-relevant indexes of the TPC-H design at the given interaction
// density.
func ReducedTPCH(n int, d Density) *model.Instance {
	return Reduce(TPCH(), n, d)
}

// Reduce restricts an instance to its n most relevant indexes (ranked by
// the total speedup of the plans they participate in, so the reduction
// keeps as much plan structure as possible) and thins interactions to
// the requested density.
func Reduce(src *model.Instance, n int, d Density) *model.Instance {
	if n > src.N() {
		n = src.N()
	}
	// Rank indexes by participation: sum of speedup/|plan| over plans.
	score := make([]float64, src.N())
	for _, p := range src.Plans {
		share := p.Speedup / float64(len(p.Indexes))
		for _, ix := range p.Indexes {
			score[ix] += share
		}
	}
	rank := make([]int, src.N())
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return score[rank[a]] > score[rank[b]] })
	remap := make([]int, src.N())
	for i := range remap {
		remap[i] = -1
	}
	chosen := rank[:n]
	sort.Ints(chosen)
	for newID, oldID := range chosen {
		remap[oldID] = newID
	}

	out := &model.Instance{Name: src.Name + "-" + d.String()}
	for _, oldID := range chosen {
		out.Indexes = append(out.Indexes, src.Indexes[oldID])
	}
	out.Queries = append([]model.Query(nil), src.Queries...)

	inSubset := func(p model.Plan) bool {
		for _, ix := range p.Indexes {
			if remap[ix] < 0 {
				return false
			}
		}
		return true
	}
	// Collect plans per query, sorted by speedup descending.
	perQuery := make([][]model.Plan, len(src.Queries))
	for _, p := range src.Plans {
		if inSubset(p) {
			perQuery[p.Query] = append(perQuery[p.Query], p)
		}
	}
	keep := 0
	switch d {
	case Low:
		keep = 1
	case Mid:
		keep = 2
	default:
		keep = 1 << 30
	}
	for q := range perQuery {
		plans := perQuery[q]
		// Selection sort of the top `keep` by speedup (small lists).
		for k := 0; k < len(plans) && k < keep; k++ {
			best := k
			for j := k + 1; j < len(plans); j++ {
				if plans[j].Speedup > plans[best].Speedup {
					best = j
				}
			}
			plans[k], plans[best] = plans[best], plans[k]
			cp := plans[k]
			mapped := make([]int, len(cp.Indexes))
			for mi, ix := range cp.Indexes {
				mapped[mi] = remap[ix]
			}
			cp.Indexes = mapped
			out.Plans = append(out.Plans, cp)
		}
	}
	for _, b := range src.BuildInteractions {
		if remap[b.Target] < 0 || remap[b.Helper] < 0 {
			continue
		}
		nb := model.BuildInteraction{Target: remap[b.Target], Helper: remap[b.Helper], Speedup: b.Speedup}
		switch d {
		case Low:
			// all build interactions removed
		case Mid:
			if b.Speedup >= 0.15*src.Indexes[b.Target].CreateCost {
				out.BuildInteractions = append(out.BuildInteractions, nb)
			}
		default:
			out.BuildInteractions = append(out.BuildInteractions, nb)
		}
	}
	for _, pr := range src.Precedences {
		if remap[pr.Before] >= 0 && remap[pr.After] >= 0 {
			out.Precedences = append(out.Precedences,
				model.Precedence{Before: remap[pr.Before], After: remap[pr.After]})
		}
	}
	return out
}
