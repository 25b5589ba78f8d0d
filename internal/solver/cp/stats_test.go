package cp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// checkStats asserts the structural invariants of a solve's effort
// breakdown against its headline counters.
func checkStats(t *testing.T, tag string, res Result) {
	t.Helper()
	st := res.Stats
	if got := st.PrunedBound + st.PrunedTail + st.PrunedMemo + st.Infeasible; got != res.Fails {
		t.Errorf("%s: prune causes %d+%d+%d+%d = %d != fails %d",
			tag, st.PrunedBound, st.PrunedTail, st.PrunedMemo, st.Infeasible, got, res.Fails)
	}
	if st.Accepts > st.Offers {
		t.Errorf("%s: accepts %d > offers %d", tag, st.Accepts, st.Offers)
	}
	if st.Accepts != int64(res.Solutions) {
		t.Errorf("%s: accepts %d != solutions %d", tag, st.Accepts, res.Solutions)
	}
}

// TestStatsPruneCausesSumToFails is the acceptance-criterion check on a
// real corpus instance: every recorded dead end has exactly one cause,
// tail bound on and off.
func TestStatsPruneCausesSumToFails(t *testing.T) {
	for ci, in := range solvertest.CorpusInstances()[:6] {
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		tb := prune.NewTailBound(c, cs, prune.Options{})
		for _, tail := range []*prune.TailBound{nil, tb} {
			res := Solve(c, cs, Options{TailBound: tail})
			if !res.Proved {
				t.Fatalf("corpus %d: not proved", ci)
			}
			checkStats(t, "corpus", res)
			if res.Fails > 0 && res.Stats.PrunedBound == 0 && res.Stats.Infeasible == 0 &&
				res.Stats.PrunedTail == 0 && res.Stats.PrunedMemo == 0 {
				t.Errorf("corpus %d: fails %d but no causes recorded", ci, res.Fails)
			}
			if tail == nil && res.Stats.PrunedTail != 0 {
				t.Errorf("corpus %d: tail prunes %d without a tail bound", ci, res.Stats.PrunedTail)
			}
		}
	}
}

func TestStatsSerialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 9
	cfg.PrecedenceProb = 0.2
	in := randgen.New(rng, cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	a := Solve(c, cs, Options{})
	b := Solve(c, cs, Options{})
	if a.Stats != b.Stats {
		t.Fatalf("serial stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	checkStats(t, "serial", a)
	if a.Solutions > 0 && a.Stats.Offers != a.Stats.Accepts {
		t.Fatalf("serial offers %d != accepts %d", a.Stats.Offers, a.Stats.Accepts)
	}
}

// TestSerialProofN20LowPinned pins the serial search's work exactly on
// the proof pipeline's configuration: reduced TPC-H n=20 at low density,
// §5 analysis constraints, a greedy incumbent and the tail bound. Node,
// fail and solution counts, the prune-cause split and the objective bits
// are all hardware-independent, so any change to how the serial search
// branches, bounds or memoizes shows up here as an exact mismatch.
func TestSerialProofN20LowPinned(t *testing.T) {
	c, cs, init, tb := proofN20Low()
	res := Solve(c, cs, Options{Incumbent: init, TailBound: tb})
	if !res.Proved {
		t.Fatal("proof did not exhaust")
	}
	checkStats(t, "n20", res)
	got := [...]int64{res.Nodes, res.Fails, int64(res.Solutions),
		res.Stats.PrunedBound, res.Stats.PrunedTail, res.Stats.PrunedMemo, res.Stats.Infeasible}
	want := [...]int64{8260, 6145, 18, 1420, 75, 4650, 0}
	if got != want {
		t.Fatalf("nodes/fails/solutions/pruned bound/tail/memo/infeasible = %v, want %v", got, want)
	}
	if bits := math.Float64bits(res.Objective); bits != 0x415acb73f40eef4c {
		t.Fatalf("objective bits %#x, want 0x415acb73f40eef4c", bits)
	}
}
