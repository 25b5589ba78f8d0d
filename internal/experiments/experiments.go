// Package experiments regenerates every table and figure of the paper's
// evaluation (§8): Table 4 (dataset statistics), Table 5 (exact search),
// Table 6 (pruning drill-down), Table 7 (initial solutions), Figure 11
// (local search on TPC-H), Figure 12 (local search on TPC-DS) and
// Figure 13 (VNS improvement decomposition). Budgets are scaled down
// from the paper's hours to seconds (Config holds them) and every run
// is seeded, so reports are repeatable.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/local"
)

// Config scales the experiment budgets.
type Config struct {
	// ExactBudget bounds each exact-search cell of Tables 5/6
	// (0 = 3s). Cells that cannot prove optimality within it report DF,
	// like the paper's 12-hour timeout.
	ExactBudget time.Duration
	// LocalBudget bounds each anytime curve of Figures 11-13 (0 = 8s for
	// TPC-H, 20s for TPC-DS).
	LocalBudget time.Duration
	// Seed drives all randomized components (0 = 1).
	Seed int64
	// Points is the number of samples on anytime curves (0 = 12).
	Points int
}

func (c Config) withDefaults() Config {
	if c.ExactBudget == 0 {
		c.ExactBudget = 3 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Points == 0 {
		c.Points = 12
	}
	return c
}

func (c Config) localBudget(ds string) time.Duration {
	if c.LocalBudget != 0 {
		return c.LocalBudget
	}
	if ds == "tpcds" {
		return 20 * time.Second
	}
	return 8 * time.Second
}

// objScale makes reported objectives comparable in magnitude to the
// paper's (TPC-H ≈ 44-66 range): objectives are divided by 1e4.
const objScale = 1e4

// greedyStart returns the canonical initial solution for local search.
func greedyStart(c *model.Compiled) []int {
	return greedy.Solve(c, sched.PrecedenceSet(c.Inst))
}

// rngFor derives a deterministic sub-seed.
func rngFor(cfg Config, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed*7919 + salt))
}

// compiled caches the two big instances.
func compiledTPCH() *model.Compiled  { return model.MustCompile(datasets.TPCH()) }
func compiledTPCDS() *model.Compiled { return model.MustCompile(datasets.TPCDS()) }

// CurveSample is one point of an anytime series.
type CurveSample struct {
	Elapsed   time.Duration
	Objective float64 // scaled by objScale; +Inf if no solution yet
}

// sampleTrajectory resamples a trajectory at k geometrically spaced time
// points from budget/512 to budget; anytime searches improve mostly in
// their first moments, so uniform sampling would show flat lines.
func sampleTrajectory(tr local.Trajectory, budget time.Duration, k int) []CurveSample {
	out := make([]CurveSample, 0, k)
	ratio := math.Pow(512, 1/float64(k-1))
	at := float64(budget) / 512
	for i := 0; i < k; i++ {
		d := time.Duration(at)
		if i == k-1 {
			d = budget
		}
		out = append(out, CurveSample{Elapsed: d, Objective: tr.BestAt(d) / objScale})
		at *= ratio
	}
	return out
}

// writeSeries prints aligned anytime series.
func writeSeries(w io.Writer, title string, names []string, series [][]CurveSample) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s", "time[s]")
	for _, n := range names {
		fmt.Fprintf(w, "%12s", n)
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0]) == 0 {
		return
	}
	for pi := range series[0] {
		fmt.Fprintf(w, "%-10.2f", series[0][pi].Elapsed.Seconds())
		for si := range series {
			fmt.Fprintf(w, "%12.3f", series[si][pi].Objective)
		}
		fmt.Fprintln(w)
	}
}

func rule(w io.Writer, n int) { fmt.Fprintln(w, strings.Repeat("-", n)) }
