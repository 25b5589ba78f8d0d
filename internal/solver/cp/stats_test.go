package cp

import (
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
	if st.Steals > st.StealAttempts {
		t.Errorf("%s: steals %d > attempts %d", tag, st.Steals, st.StealAttempts)
	}
	if st.MaxDeque < 0 {
		t.Errorf("%s: negative max deque %d", tag, st.MaxDeque)
	}
}

// TestStatsPruneCausesSumToFails is the acceptance-criterion check on a
// real corpus instance: every recorded dead end has exactly one cause,
// serial and parallel, tail bound on and off.
func TestStatsPruneCausesSumToFails(t *testing.T) {
	for ci, in := range solvertest.CorpusInstances()[:6] {
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		tb := prune.NewTailBound(c, cs, prune.Options{})
		for _, workers := range []int{1, 4} {
			for _, tail := range []*prune.TailBound{nil, tb} {
				res := Solve(c, cs, Options{Workers: workers, TailBound: tail})
				if !res.Proved {
					t.Fatalf("corpus %d w=%d: not proved", ci, workers)
				}
				checkStats(t, "corpus", res)
				if res.Fails > 0 && res.Stats.PrunedBound == 0 && res.Stats.Infeasible == 0 &&
					res.Stats.PrunedTail == 0 && res.Stats.PrunedMemo == 0 {
					t.Errorf("corpus %d w=%d: fails %d but no causes recorded", ci, workers, res.Fails)
				}
				if tail == nil && res.Stats.PrunedTail != 0 {
					t.Errorf("corpus %d w=%d: tail prunes %d without a tail bound", ci, workers, res.Stats.PrunedTail)
				}
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
	if a.Stats.StealAttempts != 0 || a.Stats.Steals != 0 || a.Stats.MaxDeque != 0 {
		t.Fatalf("serial run recorded parallel stats: %+v", a.Stats)
	}
	if a.Solutions > 0 && a.Stats.Offers != a.Stats.Accepts {
		t.Fatalf("serial offers %d != accepts %d", a.Stats.Offers, a.Stats.Accepts)
	}
}

func TestStatsParallelStealsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 11
	in := randgen.New(rng, cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	res := Solve(c, cs, Options{Workers: 4})
	if !res.Proved {
		t.Fatal("not proved")
	}
	checkStats(t, "parallel", res)
	// Thieves must have probed at least once (the root starts on worker
	// 0's deque, so workers 1-3 begin by stealing), and the frontier must
	// have held at least one donated subproblem.
	if res.Stats.StealAttempts == 0 {
		t.Error("no steal attempts recorded in a 4-worker solve")
	}
	if res.Stats.MaxDeque == 0 {
		t.Error("zero max deque depth in a solve that split its root")
	}
}
