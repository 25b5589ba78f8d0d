// Package advisor reproduces the front half of the paper's pipeline
// (Figure 3): generate candidate indexes from the workload the way a
// physical design tool does, select a design, and then extract the
// "matrix file" — query plans, speedups, creation costs and build
// interactions — by repeatedly calling the what-if optimizer
// (internal/dbsim) with hypothetical indexes, exactly as §8 describes.
//
// Both Select and Extract prepare each query once against their index
// universe (dbsim.Sim.Prepare) and then ask it one configuration at a
// time: Select asks every candidate alone, Extract runs the plan
// enumeration over the selected design. The instances are byte for byte
// those of calling the optimizer from scratch for each configuration.
package advisor

import (
	"fmt"
	"sort"

	"github.com/evolving-olap/idd/internal/dbsim"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sql"
)

// Options tunes candidate generation and extraction.
type Options struct {
	// MaxIndexes caps the selected design (0 = keep all useful
	// candidates). The cap keeps instance sizes comparable to Table 4.
	MaxIndexes int
	// MaxPlansPerQuery caps atomic-configuration enumeration (0 = 12).
	MaxPlansPerQuery int
	// MinBuildInteraction drops build interactions below this fraction
	// of the target's build cost (0 = 0.05). The paper likewise only
	// models interactions "with less than 15% effects" away in its
	// mid-density variant.
	MinBuildInteraction float64
	// CostScale converts simulator cost units into reported "seconds"
	// (0 = 0.001, which puts TPC-H query runtimes in the tens of
	// seconds).
	CostScale float64
	// NoCovering disables covering-index candidates (fewer, weaker
	// candidates; used by tests).
	NoCovering bool
}

func (o Options) withDefaults() Options {
	if o.MaxPlansPerQuery == 0 {
		o.MaxPlansPerQuery = 12
	}
	if o.MinBuildInteraction == 0 {
		o.MinBuildInteraction = 0.05
	}
	if o.CostScale == 0 {
		o.CostScale = 0.001
	}
	return o
}

// Candidates enumerates candidate indexes for the workload: per query
// and table, a predicate index (equality columns by ascending
// selectivity, then one range column), a join-extended variant, a
// join-column index, a sort-avoiding index, and a covering variant.
func Candidates(s *sql.Schema, queries []*sql.Query, opt Options) []dbsim.IndexDef {
	opt = opt.withDefaults()
	var out []dbsim.IndexDef
	seen := map[string]bool{}
	add := func(d dbsim.IndexDef) {
		if len(d.Key) == 0 {
			return
		}
		if err := d.Validate(s); err != nil {
			return
		}
		if n := d.Name(); !seen[n] {
			seen[n] = true
			out = append(out, d)
		}
	}

	for _, q := range queries {
		for _, tn := range q.Tables {
			preds := q.TablePredicates(tn)
			var eqCols, rangeCols []string
			sort.SliceStable(preds, func(a, b int) bool { return preds[a].Selectivity < preds[b].Selectivity })
			for _, p := range preds {
				if p.Kind == sql.Eq {
					eqCols = append(eqCols, p.Col.Column)
				} else {
					rangeCols = append(rangeCols, p.Col.Column)
				}
			}
			key := append([]string{}, eqCols...)
			if len(rangeCols) > 0 {
				key = append(key, rangeCols[0])
			}
			add(dbsim.IndexDef{Table: tn, Key: dedup(key)})

			// Join-column indexes (INL inner side).
			joinCols := q.JoinColumns(tn)
			for _, jc := range joinCols {
				add(dbsim.IndexDef{Table: tn, Key: []string{jc}})
			}
			// Predicate key extended by the first join column.
			if len(key) > 0 && len(joinCols) > 0 {
				add(dbsim.IndexDef{Table: tn, Key: dedup(append(append([]string{}, key...), joinCols[0]))})
			}
			// Composite join index over all of this table's join columns
			// (fact-table star-join support), plus a covering variant
			// with the query's measures.
			if len(joinCols) >= 2 {
				add(dbsim.IndexDef{Table: tn, Key: dedup(joinCols)})
				if !opt.NoCovering {
					var include []string
					inKey := map[string]bool{}
					for _, k := range joinCols {
						inKey[k] = true
					}
					for _, c := range q.NeededColumns(tn) {
						if !inKey[c] {
							include = append(include, c)
						}
					}
					if len(include) > 0 && len(include) <= 6 {
						add(dbsim.IndexDef{Table: tn, Key: dedup(joinCols), Include: include})
					}
				}
			}
			// Sort-avoiding index.
			if cols := sortColsOn(q, tn); len(cols) > 0 {
				add(dbsim.IndexDef{Table: tn, Key: dedup(cols)})
			}
			// Covering variant of the predicate index.
			if !opt.NoCovering && len(key) > 0 {
				needed := q.NeededColumns(tn)
				var include []string
				inKey := map[string]bool{}
				for _, k := range dedup(key) {
					inKey[k] = true
				}
				for _, c := range needed {
					if !inKey[c] {
						include = append(include, c)
					}
				}
				if len(include) > 0 && len(include) <= 6 {
					add(dbsim.IndexDef{Table: tn, Key: dedup(key), Include: include})
				}
			}
		}
	}
	return out
}

func sortColsOn(q *sql.Query, table string) []string {
	cols := q.GroupBy
	if len(cols) == 0 {
		cols = q.OrderBy
	}
	if len(cols) == 0 {
		return nil
	}
	var out []string
	for _, c := range cols {
		if c.Table != table {
			return nil // multi-table sort: no single index helps
		}
		out = append(out, c.Column)
	}
	return out
}

func dedup(cols []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Select keeps the most valuable candidates: each candidate's standalone
// benefit over the workload divided by its build cost (the density
// heuristic commercial tools use), truncated to opt.MaxIndexes.
func Select(sim *dbsim.Sim, queries []*sql.Query, cands []dbsim.IndexDef, opt Options) []dbsim.IndexDef {
	opt = opt.withDefaults()
	type scored struct {
		d       dbsim.IndexDef
		density float64
	}
	prepared := make([]dbsim.Prepared, len(queries))
	noIdx := make([]float64, len(queries))
	for qi, q := range queries {
		prepared[qi] = sim.Prepare(q, cands)
		noIdx[qi] = prepared[qi].NoIndexCost()
	}
	avail := make([]bool, len(cands))
	scoredCands := make([]scored, 0, len(cands))
	for ci, d := range cands {
		var benefit float64
		avail[ci] = true
		for qi, q := range queries {
			no := noIdx[qi]
			with := prepared[qi].BestPlan(avail).Cost
			if with < no {
				benefit += (no - with) * weight(q)
			}
		}
		avail[ci] = false
		if benefit <= 0 {
			continue // the design tool would not suggest it
		}
		scoredCands = append(scoredCands, scored{d: d, density: benefit / sim.BuildCost(d)})
	}
	sort.SliceStable(scoredCands, func(a, b int) bool { return scoredCands[a].density > scoredCands[b].density })
	if opt.MaxIndexes > 0 && len(scoredCands) > opt.MaxIndexes {
		scoredCands = scoredCands[:opt.MaxIndexes]
	}
	out := make([]dbsim.IndexDef, len(scoredCands))
	for i := range scoredCands {
		out[i] = scoredCands[i].d
	}
	return out
}

func weight(q *sql.Query) float64 {
	if q.Weight == 0 {
		return 1
	}
	return q.Weight
}

// BuildInstance runs the full pipeline: candidates → selection → what-if
// extraction, returning the ordering-problem instance plus the selected
// index definitions (parallel to Instance.Indexes).
func BuildInstance(name string, s *sql.Schema, queries []*sql.Query, opt Options) (*model.Instance, []dbsim.IndexDef, error) {
	opt = opt.withDefaults()
	if err := sql.ValidateWorkload(s, queries); err != nil {
		return nil, nil, err
	}
	sim := dbsim.New(s)
	cands := Candidates(s, queries, opt)
	design := Select(sim, queries, cands, opt)
	return Extract(name, sim, queries, design, opt)
}

// Extract produces the matrix file for a fixed design: per-query plan
// enumeration (atomic configurations), build costs and pairwise build
// interactions. Indexes used by no plan are dropped from the instance
// (a design tool would not have suggested them).
func Extract(name string, sim *dbsim.Sim, queries []*sql.Query, design []dbsim.IndexDef, opt Options) (*model.Instance, []dbsim.IndexDef, error) {
	opt = opt.withDefaults()
	scale := opt.CostScale

	type rawPlan struct {
		q    int
		used []int
		spd  float64
	}
	var rawPlans []rawPlan
	usedAnywhere := make([]bool, len(design))
	qtimes := make([]float64, len(queries))
	for qi, q := range queries {
		prepared := sim.Prepare(q, design)
		qtimes[qi] = prepared.NoIndexCost()
		for _, p := range prepared.EnumeratePlans(opt.MaxPlansPerQuery) {
			spd := qtimes[qi] - p.Cost
			if spd <= 1e-9 {
				continue
			}
			rawPlans = append(rawPlans, rawPlan{q: qi, used: p.Used, spd: spd})
			for _, u := range p.Used {
				usedAnywhere[u] = true
			}
		}
	}

	// Drop never-used indexes; remap positions.
	remap := make([]int, len(design))
	var kept []dbsim.IndexDef
	for i, u := range usedAnywhere {
		if u {
			remap[i] = len(kept)
			kept = append(kept, design[i])
		} else {
			remap[i] = -1
		}
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("advisor: no index helps any query")
	}

	in := &model.Instance{Name: name}
	for _, d := range kept {
		in.Indexes = append(in.Indexes, model.Index{
			Name:       d.Name(),
			Table:      d.Table,
			Columns:    d.Key,
			Include:    d.Include,
			CreateCost: sim.BuildCost(d) * scale,
		})
	}
	for qi, q := range queries {
		in.Queries = append(in.Queries, model.Query{
			Name:    q.Name,
			Runtime: qtimes[qi] * scale,
			Weight:  q.Weight,
		})
	}
	for _, rp := range rawPlans {
		idx := make([]int, len(rp.used))
		for k, u := range rp.used {
			idx[k] = remap[u]
		}
		in.Plans = append(in.Plans, model.Plan{Query: rp.q, Indexes: idx, Speedup: rp.spd * scale})
	}
	for ti, td := range kept {
		for hi, hd := range kept {
			if ti == hi {
				continue
			}
			d := sim.BuildDiscount(td, hd)
			if d > opt.MinBuildInteraction*sim.BuildCost(td) {
				in.BuildInteractions = append(in.BuildInteractions, model.BuildInteraction{
					Target: ti, Helper: hi, Speedup: d * scale,
				})
			}
		}
	}
	if err := in.Validate(); err != nil {
		return nil, nil, fmt.Errorf("advisor: extracted instance invalid: %w", err)
	}
	return in, kept, nil
}
