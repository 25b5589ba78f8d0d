package astar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
)

func inst(seed int64, n int) (*model.Instance, *model.Compiled) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = 5
	in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
	return in, model.MustCompile(in)
}

func TestMatchesBruteforce(t *testing.T) {
	f := func(seed int64) bool {
		_, c := inst(seed, 7)
		bf, err := bruteforce.Solve(c, nil, true)
		if err != nil {
			return false
		}
		res, err := Solve(c, nil, Options{})
		if err != nil || !res.Proved {
			return false
		}
		return math.Abs(res.Objective-bf.Objective) < 1e-9*(1+bf.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRespectsPrecedences(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 8
	cfg.PrecedenceProb = 0.25
	for rep := 0; rep < 5; rep++ {
		in := randgen.New(rng, cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		res, err := Solve(c, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proved {
			t.Fatal("not proved on 8 indexes")
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("rep %d: astar %v != bf %v", rep, res.Objective, bf.Objective)
		}
	}
}

func TestRejectsOversized(t *testing.T) {
	_, c := inst(1, 10)
	_ = c
	cfg := randgen.DefaultConfig()
	cfg.Indexes = MaxN + 1
	big := model.MustCompile(randgen.New(rand.New(rand.NewSource(2)), cfg))
	if _, err := Solve(big, nil, Options{}); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestNodeLimitAborts(t *testing.T) {
	_, c := inst(3, 12)
	res, err := Solve(c, nil, Options{NodeLimit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proved {
		t.Fatal("20-expansion search claimed a proof on 12 indexes")
	}
	if res.States == 0 {
		t.Fatal("aborted search reports no states; every exit reports the g-table size")
	}
}

func TestSubsetDeduplicationBoundsStates(t *testing.T) {
	// A* must see at most 2^n distinct subsets, far below n! prefixes.
	_, c := inst(4, 9)
	res, err := Solve(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("not proved")
	}
	if res.States > 1<<9 {
		t.Errorf("states = %d exceeds 2^9", res.States)
	}
	if res.Expanded > res.States {
		t.Errorf("expanded %d > states %d: dedup is broken", res.Expanded, res.States)
	}
}
