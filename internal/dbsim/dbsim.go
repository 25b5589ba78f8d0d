// Package dbsim simulates the DBMS underneath the paper's pipeline: a
// cost-based query optimizer with a what-if (hypothetical index)
// interface, and an index build-cost model with build interactions. The
// paper ran these steps against a commercial DBMS; dbsim substitutes a
// transparent analytical cost model that produces problem instances with
// the same structure — competing plans per query, multi-index query
// interactions and pairwise build interactions. The ordering problem
// consumes only these estimates, so matching their structure is what
// the substitution has to get right.
//
// The what-if optimizer is asked about many index configurations of the
// same query: the advisor prices every candidate alone, then enumerates
// atomic configurations by removing used indexes one at a time. Prepare
// therefore does the per-query work once, in the manner of INUM
// (Papadomanolakis, Dash and Ailamaki, VLDB 2007): because the plan model
// is decomposable, each plan component (a table's access path, a join
// edge, the final sort) is priced on its own, so Prepare stores each
// component's cost without indexes and the cost each usable index would
// give it. A Prepared answers a configuration by taking each component's
// minimum over its available indexes. It visits them in the order a
// rescan of the universe meets them, compares with the same strict <,
// and sums the components in the same order, so every cost is the same
// float64, bit for bit, as one computed from scratch.
//
// Cost units are abstract "seconds": a sequential page read costs 1 unit
// per page over a 8 KiB page model, random accesses cost a multiple, CPU
// costs are per-row. Only relative magnitudes matter downstream.
package dbsim

import (
	"fmt"
	"math"
	"strings"

	"github.com/evolving-olap/idd/internal/sql"
)

// IndexDef is a (possibly hypothetical) secondary index.
type IndexDef struct {
	Table string
	// Key columns, outermost first.
	Key []string
	// Include columns (covering payload, unordered).
	Include []string
}

// Name renders a deterministic identifier like ix_orders_custkey_date.
func (d IndexDef) Name() string {
	var b strings.Builder
	b.WriteString("ix_")
	b.WriteString(d.Table)
	for _, k := range d.Key {
		b.WriteByte('_')
		b.WriteString(k)
	}
	if len(d.Include) > 0 {
		b.WriteString("_inc")
		for _, k := range d.Include {
			b.WriteByte('_')
			b.WriteString(k)
		}
	}
	return b.String()
}

// Equal reports structural equality.
func (d IndexDef) Equal(o IndexDef) bool {
	if d.Table != o.Table || len(d.Key) != len(o.Key) || len(d.Include) != len(o.Include) {
		return false
	}
	for i := range d.Key {
		if d.Key[i] != o.Key[i] {
			return false
		}
	}
	for i := range d.Include {
		if d.Include[i] != o.Include[i] {
			return false
		}
	}
	return true
}

// Validate checks the definition against the schema.
func (d IndexDef) Validate(s *sql.Schema) error {
	t := s.Table(d.Table)
	if t == nil {
		return fmt.Errorf("dbsim: index on unknown table %q", d.Table)
	}
	if len(d.Key) == 0 {
		return fmt.Errorf("dbsim: index on %s has no key columns", d.Table)
	}
	seen := map[string]bool{}
	for _, c := range append(append([]string{}, d.Key...), d.Include...) {
		if t.Column(c) == nil {
			return fmt.Errorf("dbsim: index on %s references unknown column %q", d.Table, c)
		}
		if seen[c] {
			return fmt.Errorf("dbsim: index on %s repeats column %q", d.Table, c)
		}
		seen[c] = true
	}
	return nil
}

// Cost-model constants. The absolute values are arbitrary; the ratios
// (random vs sequential, CPU vs IO) shape which plans win.
const (
	pageSize      = 8192
	seqPageCost   = 1.0
	randPageCost  = 4.0
	cpuTupleCost  = 0.002
	cpuIndexCost  = 0.0005
	sortRowCost   = 0.004 // per row per log2 factor
	hashBuildCost = 0.004 // per row
	hashProbeCost = 0.002 // per row
	inlProbeCost  = 0.02  // per outer row (seek + fetch)
	seekCost      = 2.0   // one index descent
)

// pagesOf returns the page count of rows at the given width.
func pagesOf(rows int64, width int) float64 {
	perPage := pageSize / width
	if perPage < 1 {
		perPage = 1
	}
	p := float64(rows) / float64(perPage)
	if p < 1 {
		p = 1
	}
	return p
}

// Sim is the simulator bound to one schema.
type Sim struct {
	Schema *sql.Schema
}

// New returns a simulator for the schema.
func New(s *sql.Schema) *Sim { return &Sim{Schema: s} }

// TableScanCost is the cost of a full sequential scan.
func (s *Sim) TableScanCost(t *sql.Table) float64 {
	return pagesOf(t.Rows, t.RowWidth())*seqPageCost + float64(t.Rows)*cpuTupleCost
}

// indexWidth estimates an index entry width (key + include + rowid).
func (s *Sim) indexWidth(t *sql.Table, d IndexDef) int {
	w := 8 // rowid
	for _, c := range d.Key {
		w += t.Column(c).Width
	}
	for _, c := range d.Include {
		w += t.Column(c).Width
	}
	return w
}

// IndexPages is the leaf page count of an index.
func (s *Sim) IndexPages(d IndexDef) float64 {
	t := s.Schema.Table(d.Table)
	return pagesOf(t.Rows, s.indexWidth(t, d))
}

// BuildCost is the cost to create the index from the base table:
// a full scan plus an external sort of the entries.
func (s *Sim) BuildCost(d IndexDef) float64 {
	t := s.Schema.Table(d.Table)
	scan := s.TableScanCost(t)
	sortC := float64(t.Rows) * sortRowCost * math.Log2(float64(t.Rows)+2)
	write := s.IndexPages(d) * seqPageCost
	return scan + sortC + write
}

// BuildDiscount returns how much cheaper building target becomes when
// helper already exists (the paper's build interaction, §4.2), or 0 when
// helper is useless for target. Two effects are modeled:
//
//   - source substitution: when helper's key+include contain every column
//     target needs, target can be built by scanning the (narrower) helper
//     index instead of the base table;
//   - sort avoidance: when target's key is a prefix of helper's key, the
//     entries arrive already ordered and the external sort disappears.
//
// The paper observed discounts up to 80% of the build cost; the same
// magnitude emerges here when both effects combine.
func (s *Sim) BuildDiscount(target, helper IndexDef) float64 {
	if target.Table != helper.Table {
		return 0
	}
	t := s.Schema.Table(target.Table)
	have := map[string]bool{}
	for _, c := range helper.Key {
		have[c] = true
	}
	for _, c := range helper.Include {
		have[c] = true
	}
	covers := true
	for _, c := range append(append([]string{}, target.Key...), target.Include...) {
		if !have[c] {
			covers = false
			break
		}
	}
	var discount float64
	if covers {
		// Scan helper's leaves instead of the table.
		tableScan := s.TableScanCost(t)
		idxScan := s.IndexPages(helper)*seqPageCost + float64(t.Rows)*cpuIndexCost
		if idxScan < tableScan {
			discount += tableScan - idxScan
		}
		// Sorted source: target key a prefix of helper key.
		if len(target.Key) <= len(helper.Key) {
			prefix := true
			for i := range target.Key {
				if helper.Key[i] != target.Key[i] {
					prefix = false
					break
				}
			}
			if prefix {
				discount += float64(t.Rows) * sortRowCost * math.Log2(float64(t.Rows)+2)
			}
		}
	} else if len(target.Key) > 0 && len(helper.Key) > 0 && target.Key[0] == helper.Key[0] {
		// Partial help: a shared leading key column lets the sort run
		// partitioned (cheaper merge passes).
		discount += 0.25 * float64(t.Rows) * sortRowCost * math.Log2(float64(t.Rows)+2)
	}
	// Keep the discounted cost strictly positive.
	if max := 0.9 * s.BuildCost(target); discount > max {
		discount = max
	}
	return discount
}
