package dbsim

// The what-if optimizer as it was before Prepare: every call rescans the
// whole universe for each plan component. It is kept verbatim (renamed
// with a ref prefix) as the oracle Prepared.BestPlan must match bit for
// bit; see TestPreparedMatchesReference and FuzzPreparedReference.

import (
	"math"
	"sort"

	"github.com/evolving-olap/idd/internal/sql"
)

// ReferenceBestPlan exposes the reference optimizer to the external test
// package, which can import the advisor for realistic universes.
func ReferenceBestPlan(s *Sim, q *sql.Query, universe []IndexDef, avail []bool) Plan {
	return s.refBestPlan(q, universe, avail)
}

// ReferenceNoIndexCost exposes the reference no-index cost.
func ReferenceNoIndexCost(s *Sim, q *sql.Query, universe []IndexDef) float64 {
	return s.refNoIndexCost(q, universe)
}

// refBestPlan runs the what-if optimizer: given the universe of hypothetical
// indexes and an availability mask, it picks the cheapest access path per
// table, the cheapest method per join edge, and a sort-avoidance index if
// one applies, returning the used set and total cost. The model is
// deliberately decomposable (no join reordering) so plans are
// deterministic and the competing/query interactions of §4.2 emerge from
// the index choices alone.
func (s *Sim) refBestPlan(q *sql.Query, universe []IndexDef, avail []bool) Plan {
	used := map[int]bool{}
	var total float64

	outRows := map[string]float64{}
	for _, tn := range q.Tables {
		t := s.Schema.Table(tn)
		sel := 1.0
		for _, p := range q.TablePredicates(tn) {
			sel *= p.Selectivity
		}
		outRows[tn] = float64(t.Rows) * sel
		cost, ix := s.refBestAccessPath(q, tn, universe, avail)
		total += cost
		if ix >= 0 {
			used[ix] = true
		}
	}

	for _, j := range q.Joins {
		cost, ix := s.refBestJoin(j, outRows, universe, avail)
		total += cost
		if ix >= 0 {
			used[ix] = true
		}
	}

	if cols := refGroupOrOrder(q); len(cols) > 0 {
		cost, ix := s.refSortCost(q, cols, outRows, universe, avail)
		total += cost
		if ix >= 0 {
			used[ix] = true
		}
	}

	plan := Plan{Cost: total}
	for ix := range used {
		plan.Used = append(plan.Used, ix)
	}
	sort.Ints(plan.Used)
	return plan
}

func refGroupOrOrder(q *sql.Query) []sql.ColRef {
	if len(q.GroupBy) > 0 {
		return q.GroupBy
	}
	return q.OrderBy
}

// refBestAccessPath picks the cheapest way to read one table.
func (s *Sim) refBestAccessPath(q *sql.Query, table string, universe []IndexDef, avail []bool) (float64, int) {
	t := s.Schema.Table(table)
	best := s.TableScanCost(t)
	bestIx := -1
	needed := q.NeededColumns(table)
	preds := q.TablePredicates(table)

	for ix, d := range universe {
		if !avail[ix] || d.Table != table {
			continue
		}
		if c, ok := s.refIndexScanCost(t, d, preds, needed); ok && c < best {
			best, bestIx = c, ix
		}
	}
	return best, bestIx
}

// refIndexScanCost estimates scanning table t via index d, or ok=false when
// the index is unusable for this query.
func (s *Sim) refIndexScanCost(t *sql.Table, d IndexDef, preds []sql.Predicate, needed []string) (float64, bool) {
	// Longest usable prefix: equality predicates extend it, one range
	// predicate ends it.
	predOn := map[string]*sql.Predicate{}
	for i := range preds {
		predOn[preds[i].Col.Column] = &preds[i]
	}
	sel := 1.0
	matched := 0
	for _, k := range d.Key {
		p := predOn[k]
		if p == nil {
			break
		}
		sel *= p.Selectivity
		matched++
		if p.Kind == sql.Range {
			break
		}
	}
	have := map[string]bool{}
	for _, c := range d.Key {
		have[c] = true
	}
	for _, c := range d.Include {
		have[c] = true
	}
	covering := true
	for _, c := range needed {
		if !have[c] {
			covering = false
			break
		}
	}
	if matched == 0 && !covering {
		return 0, false // neither selective nor covering: useless
	}
	rows := float64(t.Rows)
	matchedRows := rows * sel
	width := s.indexWidth(t, d)
	leaf := pagesOf(int64(matchedRows)+1, width)*seqPageCost + matchedRows*cpuIndexCost
	cost := seekCost + leaf
	if !covering {
		fetch := matchedRows * randPageCost
		// A fetch storm can never sensibly exceed rescanning the table.
		if cap := 2 * s.TableScanCost(t); fetch > cap {
			fetch = cap
		}
		cost += fetch
	}
	return cost, true
}

// refBestJoin prices one equi-join edge: hash join versus index nested
// loops on either side (INL requires an available index whose leading
// key column is the inner join column).
func (s *Sim) refBestJoin(j sql.Join, outRows map[string]float64, universe []IndexDef, avail []bool) (float64, int) {
	lRows, rRows := outRows[j.Left.Table], outRows[j.Right.Table]
	small, large := lRows, rRows
	if small > large {
		small, large = large, small
	}
	best := small*hashBuildCost + large*hashProbeCost
	bestIx := -1
	try := func(inner sql.ColRef, outerRows float64) {
		for ix, d := range universe {
			if !avail[ix] || d.Table != inner.Table || len(d.Key) == 0 || d.Key[0] != inner.Column {
				continue
			}
			c := outerRows * inlProbeCost
			if c < best {
				best, bestIx = c, ix
			}
		}
	}
	try(j.Right, lRows)
	try(j.Left, rRows)
	return best, bestIx
}

// refSortCost prices the final group/order stage: free when an available
// index on the sort table has the sort columns as its key prefix.
func (s *Sim) refSortCost(q *sql.Query, cols []sql.ColRef, outRows map[string]float64, universe []IndexDef, avail []bool) (float64, int) {
	// Result size estimate: the largest filtered input.
	var resRows float64
	for _, r := range outRows {
		if r > resRows {
			resRows = r
		}
	}
	if resRows < 2 {
		resRows = 2
	}
	full := resRows * sortRowCost * math.Log2(resRows)

	// All sort columns must come from one table for index-assisted order.
	table := cols[0].Table
	for _, c := range cols[1:] {
		if c.Table != table {
			return full, -1
		}
	}
	for ix, d := range universe {
		if !avail[ix] || d.Table != table || len(d.Key) < len(cols) {
			continue
		}
		match := true
		for k, c := range cols {
			if d.Key[k] != c.Column {
				match = false
				break
			}
		}
		if match {
			return 0, ix
		}
	}
	return full, -1
}

// refNoIndexCost is the query's cost with no hypothetical indexes — the
// qtime(q) of the problem formulation.
func (s *Sim) refNoIndexCost(q *sql.Query, universe []IndexDef) float64 {
	return s.refBestPlan(q, universe, make([]bool, len(universe))).Cost
}
