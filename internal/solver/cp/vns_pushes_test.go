package cp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// TestVNSWalkerPushesTPCDS runs the 200k-step VNS search of §7.3 on full
// TPC-DS (n=123) relaxation by relaxation on one Searcher — the loop of
// local.VNS with seed 0, which must land on that run's pinned steps,
// accepted moves and objective bits — and bounds the walker pushes the
// run costs at 35% of its CP nodes. A search that walked the walker at
// every node would push once per node; most nodes of a relaxation
// revisit a placed set, which the set-value cache answers without the
// walker.
func TestVNSWalkerPushesTPCDS(t *testing.T) {
	if raceEnabled {
		t.Skip("a 200k-node TPC-DS run is slow under the race detector")
	}
	c := model.MustCompile(datasets.TPCDS())
	cs, _ := prune.Analyze(c, prune.Options{})
	cur := greedy.Solve(c, cs)
	curObj := c.Objective(cur)
	n := c.N
	const maxSteps = 200_000
	rng := rand.New(rand.NewSource(0))
	s := NewSearcher(c, cs)
	relaxed, fixed := make([]bool, n), make([]int, n)
	failLimit, size, grow := int64(100), max(2, n/50), max(1, n/100)
	var steps, accepted int64
	proofs, tried := 0, 0
	for steps < maxSteps {
		clear(relaxed)
		for picked := 0; picked < size; {
			if p := rng.Intn(n); !relaxed[p] {
				relaxed[p] = true
				picked++
			}
		}
		for p, ix := range cur {
			fixed[p] = ix
			if relaxed[p] {
				fixed[p] = -1
			}
		}
		res := s.Solve(Options{FailLimit: failLimit, NodeLimit: maxSteps - steps,
			Incumbent: cur, IncumbentObjective: curObj, Fixed: fixed})
		steps += res.Nodes
		tried++
		if res.Proved {
			proofs++
		}
		if res.Solutions > 0 && res.Objective < curObj-1e-12 {
			cur, curObj = res.Order, res.Objective
			accepted++
		}
		if tried >= 20 {
			if float64(proofs) > 0.75*float64(tried) {
				size = min(size+grow, n)
			} else {
				failLimit += failLimit / 5
			}
			proofs, tried = 0, 0
		}
	}
	if runtime.GOARCH == "amd64" {
		const wantAccepted, wantBits = 66, 0x41928ac41859bc47
		if steps != maxSteps || accepted != wantAccepted || math.Float64bits(curObj) != wantBits {
			t.Fatalf("steps/accepted/objective bits %d/%d/%#x, want %d/%d/%#x: not the pinned VNS run",
				steps, accepted, math.Float64bits(curObj), maxSteps, wantAccepted, uint64(wantBits))
		}
	}
	share := float64(s.pushes) / float64(steps)
	t.Logf("%d walker pushes over %d nodes (%.1f%%); cache %d slots, %d row entries",
		s.pushes, steps, 100*share, s.cache.size(), cap(s.cache.rows))
	if share > 0.35 {
		t.Fatalf("walker pushes are %.1f%% of CP nodes, above 35%%: revisited sets walk the walker again", 100*share)
	}
}
