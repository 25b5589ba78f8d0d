package dbsim_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/dbsim"
	"github.com/evolving-olap/idd/internal/sql"
	"github.com/evolving-olap/idd/internal/tpcds"
	"github.com/evolving-olap/idd/internal/tpch"
)

// whatIfCase is one query against one index universe.
type whatIfCase struct {
	name     string
	sim      *dbsim.Sim
	q        *sql.Query
	universe []dbsim.IndexDef
}

var (
	whatIfOnce  sync.Once
	whatIfCases []whatIfCase
)

// whatIfCorpus returns every TPC-H and TPC-DS query against two
// universes each: the advisor's candidate set and the design it selects
// from it (with the options the datasets package builds its instances
// with).
func whatIfCorpus() []whatIfCase {
	whatIfOnce.Do(func() {
		for _, w := range []struct {
			name    string
			schema  *sql.Schema
			queries []*sql.Query
			opt     advisor.Options
		}{
			{"tpch", tpch.Schema(), tpch.Queries(), advisor.Options{MaxIndexes: 32, MaxPlansPerQuery: 20, MinBuildInteraction: 0.22}},
			{"tpcds", tpcds.Schema(), tpcds.Queries(), advisor.Options{MaxIndexes: 170, MaxPlansPerQuery: 33, MinBuildInteraction: 0.22}},
		} {
			sim := dbsim.New(w.schema)
			cands := advisor.Candidates(w.schema, w.queries, w.opt)
			design := advisor.Select(sim, w.queries, cands, w.opt)
			for _, u := range []struct {
				name string
				defs []dbsim.IndexDef
			}{{"candidates", cands}, {"design", design}} {
				for _, q := range w.queries {
					whatIfCases = append(whatIfCases, whatIfCase{
						name: w.name + "/" + u.name + "/" + q.Name, sim: sim, q: q, universe: u.defs,
					})
				}
			}
		}
	})
	return whatIfCases
}

// checkAgainstReference compares the prepared optimizer with the
// per-call reference on one mask: the same cost bits and the same used
// set.
func checkAgainstReference(t *testing.T, c whatIfCase, p dbsim.Prepared, avail []bool, what string) {
	t.Helper()
	got := p.BestPlan(avail)
	want := dbsim.ReferenceBestPlan(c.sim, c.q, c.universe, avail)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !slices.Equal(got.Used, want.Used) {
		t.Fatalf("%s, %s: prepared plan %v cost %v, reference %v cost %v",
			c.name, what, got.Used, got.Cost, want.Used, want.Cost)
	}
}

func TestPreparedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := whatIfCorpus()
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	for _, c := range cases {
		n := len(c.universe)
		p := c.sim.Prepare(c.q, c.universe)
		if got, want := p.NoIndexCost(), dbsim.ReferenceNoIndexCost(c.sim, c.q, c.universe); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: no-index cost %v, reference %v", c.name, got, want)
		}
		avail := make([]bool, n)
		checkAgainstReference(t, c, p, avail, "empty mask")
		for i := range avail {
			avail[i] = true
			checkAgainstReference(t, c, p, avail, "singleton "+c.universe[i].Name())
			avail[i] = false
		}
		for i := range avail {
			avail[i] = true
		}
		checkAgainstReference(t, c, p, avail, "full mask")
		for k := 0; k < 200; k++ {
			density := rng.Float64()
			for i := range avail {
				avail[i] = rng.Float64() < density
			}
			checkAgainstReference(t, c, p, avail, "random mask")
		}
	}
}

// FuzzPreparedReference picks a corpus case by index and reads the
// availability mask from the bits of mask, repeating its bytes across the
// universe.
func FuzzPreparedReference(f *testing.F) {
	f.Add(uint(0), []byte{})
	f.Add(uint(7), []byte{0xff})
	f.Add(uint(30), []byte{0x5a, 0x01})
	f.Add(uint(150), []byte{0x80, 0x00, 0x13})
	f.Fuzz(func(t *testing.T, pick uint, mask []byte) {
		cases := whatIfCorpus()
		c := cases[pick%uint(len(cases))]
		avail := make([]bool, len(c.universe))
		if len(mask) > 0 {
			for i := range avail {
				avail[i] = mask[(i/8)%len(mask)]>>(i%8)&1 == 1
			}
		}
		checkAgainstReference(t, c, c.sim.Prepare(c.q, c.universe), avail, "fuzzed mask")
	})
}
