package dbsim

import (
	"math"
	"slices"

	"github.com/evolving-olap/idd/internal/sql"
)

// Plan is an atomic configuration in the sense of [Finkelstein et al.]:
// the set of hypothetical indexes the optimizer would use for a query,
// with the resulting cost.
type Plan struct {
	// Used lists positions into the index universe, ascending.
	Used []int
	// Cost is the estimated query cost with exactly these indexes.
	Cost float64
}

// Prepared is one query compiled against one index universe: the cost
// of every plan component without indexes, and every index able to serve
// it at the cost it would give, computed once. BestPlan then answers any
// availability mask from these lists, so a caller that prices many masks
// (selection, plan enumeration) pays for the universe scans once per
// query instead of once per mask. A Prepared holds universe positions,
// not index definitions, and is valid only for the universe it was built
// with.
type Prepared struct {
	n     int         // universe size
	comps []component // per table (q.Tables order), per join, then the sort
}

// component is one independently priced part of the plan.
type component struct {
	base float64  // cost with no index
	opts []choice // indexes that can serve it, in the order they are tried
}

// choice is one index serving a component at the given cost.
type choice struct {
	ix   int
	cost float64
}

// Prepare compiles q against universe. The plan model is deliberately
// decomposable (no join reordering): the cheapest access path per table,
// the cheapest method per join edge, and a sort-avoidance index if one
// applies, so plans are deterministic and the competing/query
// interactions of §4.2 emerge from the index choices alone.
//
// Each component keeps only the options that beat its base cost, in the
// order a scan of the universe would meet them: ascending universe
// position, and for a join edge the right side's indexes before the
// left's. BestPlan takes the first strict minimum over the available
// options, which is the choice a full rescan of the universe makes, so
// costs and used sets match it bit for bit.
func (s *Sim) Prepare(q *sql.Query, universe []IndexDef) Prepared {
	p := Prepared{n: len(universe)}

	outRows := map[string]float64{}
	for _, tn := range q.Tables {
		t := s.Schema.Table(tn)
		preds := q.TablePredicates(tn)
		sel := 1.0
		for _, pr := range preds {
			sel *= pr.Selectivity
		}
		outRows[tn] = float64(t.Rows) * sel

		// Access path: a full scan, or any usable index on the table.
		c := component{base: s.TableScanCost(t)}
		needed := q.NeededColumns(tn)
		for ix, d := range universe {
			if d.Table != tn {
				continue
			}
			if cost, ok := s.indexScanCost(t, d, preds, needed); ok && cost < c.base {
				c.opts = append(c.opts, choice{ix, cost})
			}
		}
		p.comps = append(p.comps, c)
	}

	// Join edges: hash join, or index nested loops with either side as
	// the inner (an index leading with the inner join column), costed per
	// outer row.
	for _, j := range q.Joins {
		lRows, rRows := outRows[j.Left.Table], outRows[j.Right.Table]
		small, large := lRows, rRows
		if small > large {
			small, large = large, small
		}
		c := component{base: small*hashBuildCost + large*hashProbeCost}
		c.opts = appendLeading(c.opts, universe, j.Right, lRows*inlProbeCost, c.base)
		c.opts = appendLeading(c.opts, universe, j.Left, rRows*inlProbeCost, c.base)
		p.comps = append(p.comps, c)
	}

	// Final group/order stage: free when an index on the sort table has
	// the sort columns as its key prefix.
	if cols := groupOrOrder(q); len(cols) > 0 {
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
		c := component{base: resRows * sortRowCost * math.Log2(resRows)}
		if table, ok := oneTable(cols); ok {
			for ix, d := range universe {
				if d.Table == table && keyPrefix(d.Key, cols) {
					c.opts = append(c.opts, choice{ix, 0})
				}
			}
		}
		p.comps = append(p.comps, c)
	}
	return p
}

// appendLeading appends the indexes whose leading key column is col, each
// at cost, unless cost cannot beat base.
func appendLeading(opts []choice, universe []IndexDef, col sql.ColRef, cost, base float64) []choice {
	if !(cost < base) {
		return opts
	}
	for ix, d := range universe {
		if d.Table == col.Table && len(d.Key) > 0 && d.Key[0] == col.Column {
			opts = append(opts, choice{ix, cost})
		}
	}
	return opts
}

// oneTable reports the table all sort columns come from, if there is one;
// only then can an index deliver the order.
func oneTable(cols []sql.ColRef) (string, bool) {
	for _, c := range cols[1:] {
		if c.Table != cols[0].Table {
			return "", false
		}
	}
	return cols[0].Table, true
}

// keyPrefix reports whether the sort columns are a prefix of key.
func keyPrefix(key []string, cols []sql.ColRef) bool {
	if len(key) < len(cols) {
		return false
	}
	for k, c := range cols {
		if key[k] != c.Column {
			return false
		}
	}
	return true
}

func groupOrOrder(q *sql.Query) []sql.ColRef {
	if len(q.GroupBy) > 0 {
		return q.GroupBy
	}
	return q.OrderBy
}

// BestPlan runs the what-if optimizer for one availability mask over the
// prepared universe: per component, the cheapest available option, else
// the base cost. The total is summed over tables, then joins, then the
// sort. Used lists the chosen indexes ascending, each once.
func (p Prepared) BestPlan(avail []bool) Plan {
	var plan Plan
	for _, c := range p.comps {
		best, bestIx := c.base, -1
		for _, o := range c.opts {
			if avail[o.ix] && o.cost < best {
				best, bestIx = o.cost, o.ix
			}
		}
		plan.Cost += best
		if bestIx < 0 {
			continue
		}
		if i, found := slices.BinarySearch(plan.Used, bestIx); !found {
			if plan.Used == nil {
				plan.Used = make([]int, 0, len(p.comps))
			}
			plan.Used = slices.Insert(plan.Used, i, bestIx)
		}
	}
	return plan
}

// NoIndexCost is the query's cost with no hypothetical indexes — the
// qtime(q) of the problem formulation.
func (p Prepared) NoIndexCost() float64 {
	return p.BestPlan(make([]bool, p.n)).Cost
}

// BestPlan prices q under the availability mask; see Prepare.
func (s *Sim) BestPlan(q *sql.Query, universe []IndexDef, avail []bool) Plan {
	return s.Prepare(q, universe).BestPlan(avail)
}

// NoIndexCost is q's cost with none of the universe's indexes.
func (s *Sim) NoIndexCost(q *sql.Query, universe []IndexDef) float64 {
	return s.Prepare(q, universe).NoIndexCost()
}

// indexScanCost estimates scanning table t via index d, or ok=false when
// the index is unusable for this query.
func (s *Sim) indexScanCost(t *sql.Table, d IndexDef, preds []sql.Predicate, needed []string) (float64, bool) {
	// Longest usable prefix: equality predicates extend it, one range
	// predicate ends it. The last predicate on a column is the one that
	// counts.
	sel := 1.0
	matched := 0
	for _, k := range d.Key {
		p := lastPredOn(preds, k)
		if p == nil {
			break
		}
		sel *= p.Selectivity
		matched++
		if p.Kind == sql.Range {
			break
		}
	}
	covering := true
	for _, c := range needed {
		if !slices.Contains(d.Key, c) && !slices.Contains(d.Include, c) {
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

func lastPredOn(preds []sql.Predicate, col string) *sql.Predicate {
	for i := len(preds) - 1; i >= 0; i-- {
		if preds[i].Col.Column == col {
			return &preds[i]
		}
	}
	return nil
}

// EnumeratePlans reproduces the paper's §8 extraction loop: call the
// what-if optimizer, record the atomic configuration, remove one used
// index at a time and recurse, collecting up to maxPlans distinct
// configurations that actually use indexes and beat the no-index cost.
func (p Prepared) EnumeratePlans(maxPlans int) []Plan {
	noIdx := p.NoIndexCost()

	type state struct{ removed []int }
	seenPlan := map[string]bool{}
	seenMask := map[string]bool{}
	var out []Plan
	avail := make([]bool, p.n)
	queue := []state{{}}
	for len(queue) > 0 && len(out) < maxPlans {
		st := queue[0]
		queue = queue[1:]
		for i := range avail {
			avail[i] = true
		}
		for _, r := range st.removed {
			avail[r] = false
		}
		mk := maskKey(avail)
		if seenMask[mk] {
			continue
		}
		seenMask[mk] = true
		plan := p.BestPlan(avail)
		if len(plan.Used) == 0 || plan.Cost >= noIdx-1e-9 {
			continue
		}
		pk := intsKey(plan.Used)
		if !seenPlan[pk] {
			seenPlan[pk] = true
			out = append(out, plan)
		}
		for _, u := range plan.Used {
			nr := append(append([]int(nil), st.removed...), u)
			queue = append(queue, state{removed: nr})
		}
	}
	return out
}

func maskKey(mask []bool) string {
	b := make([]byte, (len(mask)+7)/8)
	for i, m := range mask {
		if m {
			b[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return string(b)
}

func intsKey(xs []int) string {
	b := make([]byte, 0, 2*len(xs))
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8))
	}
	return string(b)
}
