package prune

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// tailCase is one instance of the differential corpus with the tail
// length it is analyzed at.
type tailCase struct {
	name string
	c    *model.Compiled
	opt  Options
}

// withDeadWeight appends dead indexes to in: indexes no plan uses, which
// belong at the end of every optimal order, so the tail rule fires.
func withDeadWeight(in *model.Instance, rng *rand.Rand, dead int) *model.Instance {
	for d := 0; d < dead; d++ {
		in.Indexes = append(in.Indexes, model.Index{
			Name:       fmt.Sprintf("dead%d", d),
			CreateCost: 10 + 100*rng.Float64(),
		})
	}
	return in
}

// tailCorpus is the differential corpus: the conformance, generated and
// tight corpora, reduced TPC-H n=4..31 at both densities, and seeded
// random instances with dead-weight indexes, each at tail lengths 3 and 4.
func tailCorpus(tb testing.TB) []tailCase {
	var ins []*model.Instance
	ins = append(ins, solvertest.Instances()...)
	ins = append(ins, solvertest.CorpusInstances()...)
	ins = append(ins, solvertest.TightCorpusInstances()...)
	for n := 4; n <= 31; n++ {
		for _, d := range []datasets.Density{datasets.Low, datasets.Mid} {
			in := datasets.ReducedTPCH(n, d)
			in.Name = fmt.Sprintf("tpch-n%d-%s", n, d)
			ins = append(ins, in)
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 5 + int(seed%8)
		cfg.Queries = 3 + int(seed%5)
		cfg.PrecedenceProb = 0.1 * float64(seed%3)
		in := withDeadWeight(randgen.New(rng, cfg), rng, 1+int(seed%3))
		in.Name = fmt.Sprintf("dead-weight-s%d", seed)
		ins = append(ins, in)
	}
	var cases []tailCase
	for _, in := range ins {
		c, err := model.Compile(in)
		if err != nil {
			tb.Fatalf("%s: %v", in.Name, err)
		}
		for _, l := range []int{3, 4} {
			cases = append(cases, tailCase{name: fmt.Sprintf("%s/L%d", in.Name, l), c: c, opt: Options{TailLength: l}})
		}
	}
	return cases
}

// analyzeDiff reports how Analyze differs from the reference analysis on
// c, or "" when the edges (in order) and the reports are identical.
// Report.TailSets is the new work count and is left out of the match.
func analyzeDiff(c *model.Compiled, opt Options) (string, Report) {
	cs, rep := Analyze(c, opt)
	wantCS, want := analyzeReference(c, opt)
	if !slices.Equal(cs.Edges(), wantCS.Edges()) {
		return fmt.Sprintf("edges %v, reference %v", cs.Edges(), wantCS.Edges()), rep
	}
	got := rep
	got.TailSets = 0
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("report %+v, reference %+v", got, want), rep
	}
	return "", rep
}

// tailBoundDiff reports how NewTailBound and TailPatterns differ from the
// reference enumeration under cs, or "" when every table key and value
// and every pattern is the same, bit for bit.
func tailBoundDiff(c *model.Compiled, cs *constraint.Set, opt Options) string {
	got, want := NewTailBound(c, cs, opt), newTailBoundReference(c, cs, opt)
	if got.maxLen != want.maxLen || len(got.tables) != len(want.tables) {
		return fmt.Sprintf("maxLen %d/%d tables, reference %d/%d", got.maxLen, len(got.tables), want.maxLen, len(want.tables))
	}
	for m := range want.tables {
		g, w := got.tables[m], want.tables[m]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("length %d: %d entries (nil %v), reference %d (nil %v)", m+1, len(g), g == nil, len(w), w == nil)
		}
		for k, v := range w {
			if gv, ok := g[k]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return fmt.Sprintf("length %d key %x: %v (present %v), reference %v", m+1, k, gv, ok, v)
			}
		}
	}
	gp := TailPatterns(c, cs, opt.TailLength, opt.MaxTailPatterns)
	wp := tailPatternsReference(c, cs, opt.TailLength, opt.MaxTailPatterns)
	if (gp == nil) != (wp == nil) || len(gp) != len(wp) {
		return fmt.Sprintf("%d pattern groups, reference %d", len(gp), len(wp))
	}
	for i := range wp {
		g, w := gp[i], wp[i]
		if !slices.Equal(g.Set, w.Set) || len(g.Patterns) != len(w.Patterns) {
			return fmt.Sprintf("group %d: set %v with %d patterns, reference %v with %d", i, g.Set, len(g.Patterns), w.Set, len(w.Patterns))
		}
		for j := range w.Patterns {
			a, b := g.Patterns[j], w.Patterns[j]
			if !slices.Equal(a.Perm, b.Perm) || a.Champion != b.Champion ||
				math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
				return fmt.Sprintf("group %v pattern %d: %+v, reference %+v", w.Set, j, a, b)
			}
		}
	}
	return ""
}

// TestAnalyzeMatchesReference: the tail analysis that stops at its first
// disagreement and scores a witness early adds the same edges, in the
// same order, with the same report as the full enumeration it replaced.
// The corpus must exercise the rule firing, not only its early stop.
func TestAnalyzeMatchesReference(t *testing.T) {
	cases := tailCorpus(t)
	fixed := 0
	for _, tc := range cases {
		diff, rep := analyzeDiff(tc.c, tc.opt)
		if diff != "" {
			t.Fatalf("%s: %s", tc.name, diff)
		}
		if len(rep.TailFixed) > 0 {
			fixed++
		}
	}
	if 20*fixed < len(cases) {
		t.Fatalf("only %d of %d cases end with a non-empty TailFixed; want at least 5%%", fixed, len(cases))
	}
	t.Logf("%d cases, %d with a non-empty TailFixed", len(cases), fixed)
}

// TestTailBoundMatchesReference: the tail tables (and the Figure 9
// patterns) from the shared enumerator equal the reference's key for key
// and bit for bit, under the instance's own precedences and under the
// full analysis.
func TestTailBoundMatchesReference(t *testing.T) {
	for _, tc := range tailCorpus(t) {
		analyzed, _ := Analyze(tc.c, tc.opt)
		for _, cs := range []*constraint.Set{sched.PrecedenceSet(tc.c.Inst), analyzed} {
			if diff := tailBoundDiff(tc.c, cs, tc.opt); diff != "" {
				t.Fatalf("%s: %s", tc.name, diff)
			}
		}
	}
}

// FuzzTailsReference drives the same comparisons as the two tests above
// over random instances: sizes 3..10, up to two dead indexes, tail
// lengths 1..5, random precedences, and integral costs that make the
// 1e-9 tie rule matter.
func FuzzTailsReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(2), uint8(0), false)
	f.Add(int64(7), uint8(8), uint8(2), uint8(3), uint8(40), true)
	f.Add(int64(42), uint8(3), uint8(0), uint8(0), uint8(90), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, deadRaw, lenRaw, precRaw uint8, ties bool) {
		rng := rand.New(rand.NewSource(seed))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 3 + int(nRaw)%8
		cfg.Queries = 2 + int(nRaw)%6
		cfg.PrecedenceProb = float64(precRaw%100) / 300
		cfg.BuildInteractionProb = 0.1
		in := withDeadWeight(randgen.New(rng, cfg), rng, int(deadRaw)%3)
		if ties {
			// Coarse grids: rounding costs up keeps every build
			// interaction below its target's cost, and rounding speedups
			// down keeps every plan within its query's runtime.
			for i := range in.Indexes {
				in.Indexes[i].CreateCost = 20 * math.Ceil(in.Indexes[i].CreateCost/20)
			}
			for p := range in.Plans {
				in.Plans[p].Speedup = max(25, 25*math.Floor(in.Plans[p].Speedup/25))
			}
		}
		c, err := model.Compile(in)
		if err != nil {
			t.Skip(err)
		}
		opt := Options{TailLength: 1 + int(lenRaw)%5}
		if diff, _ := analyzeDiff(c, opt); diff != "" {
			t.Fatal(diff)
		}
		analyzed, _ := Analyze(c, opt)
		for _, cs := range []*constraint.Set{sched.PrecedenceSet(in), analyzed} {
			if diff := tailBoundDiff(c, cs, opt); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}

// TestTailSetsPinned pins the exact tail-analysis work on the proof-tpch
// cycle instances: the sets scored, summed over the fixed-point rounds.
// On each, the first set's tied champions already end differently, so
// every round scores one set.
func TestTailSetsPinned(t *testing.T) {
	for _, tc := range []struct {
		n            int
		d            datasets.Density
		sets, rounds int
	}{
		{13, datasets.Mid, 2, 2},
		{16, datasets.Low, 2, 2},
		{18, datasets.Low, 2, 2},
	} {
		c := model.MustCompile(datasets.ReducedTPCH(tc.n, tc.d))
		_, rep := Analyze(c, Options{})
		if rep.TailSets != tc.sets || rep.Rounds != tc.rounds {
			t.Errorf("tpch-n%d-%s: %d tail sets over %d rounds, want %d over %d",
				tc.n, tc.d, rep.TailSets, rep.Rounds, tc.sets, tc.rounds)
		}
	}
}

// TestTailSetsDriftShaped bounds the tail-analysis work on instances
// shaped like the service's session workloads (as many queries as
// indexes, n=14..18): the 99th percentile of sets scored per Analyze is
// at most 4, where the full enumeration scored every feasible set.
func TestTailSetsDriftShaped(t *testing.T) {
	const count = 400
	sets := make([]int, 0, count)
	for k := int64(0); k < count; k++ {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 14 + int(k%5)
		cfg.Queries = cfg.Indexes
		in := randgen.New(rand.New(rand.NewSource(9000+k)), cfg)
		_, rep := Analyze(model.MustCompile(in), Options{})
		sets = append(sets, rep.TailSets)
	}
	sort.Ints(sets)
	p50, p99 := sets[count/2], sets[count*99/100-1]
	t.Logf("tail sets per Analyze over %d instances: p50 %d, p99 %d, max %d", count, p50, p99, sets[count-1])
	if p99 > 4 {
		t.Errorf("p99 %d tail sets per Analyze, want at most 4", p99)
	}
}

// TestNegativeTailLength: a negative tail length (iddinspect -taillen -1)
// analyzes no tail instead of panicking, as the full enumeration did.
func TestNegativeTailLength(t *testing.T) {
	c := model.MustCompile(datasets.ReducedTPCH(13, datasets.Mid))
	_, rep := Analyze(c, Options{TailLength: -1})
	if rep.TailSets != 0 || len(rep.TailFixed) != 0 {
		t.Errorf("TailLength -1: %v, want no tail work", rep)
	}
}
