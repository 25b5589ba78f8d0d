package astar

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
)

// pinnedProof is the hardware-independent work of one A* run.
type pinnedProof struct {
	expanded, states int64
	objBits          uint64
}

// exactPins reports whether the pinned values apply. They were recorded
// on amd64, where the compiler never fuses x*y+z into one FMA
// instruction; arm64, ppc64 and s390x do, which rounds differently and
// can move an objective bit or an expansion, so there only the
// proved-with-an-order checks run.
const exactPins = runtime.GOARCH == "amd64"

// TestRaceProofsPinned pins the work of BenchmarkRaceProof's twelve
// race-style proofs exactly: expansions, distinct states and the
// objective bits of each. Every proof beats the greedy bound, so each
// also returns an order. The counts depend only on the search, never
// on the host's speed, so a change to any of them is a change to the expansion
// order, the heuristic or the pruning — TestMatchesReference says
// whether the reference agrees, this test says the work moved.
func TestRaceProofsPinned(t *testing.T) {
	want := []pinnedProof{
		{4966, 14097, 0x4142caa012e6f381},
		{3470, 11954, 0x41395bd29f07761e},
		{5437, 18650, 0x4142085630f3274c},
		{4927, 9977, 0x4140b7d7e01dacc4},
		{2263, 10844, 0x4146cebce34b493e},
		{4127, 14646, 0x413c44442b85dea2},
		{1754, 4236, 0x41446b37c1ef0600},
		{3054, 11716, 0x4140648644486538},
		{1408, 8420, 0x413c6f627c4e1da8},
		{3169, 11456, 0x413f9f62fe6cb419},
		{6171, 16983, 0x4145a1a816b11241},
		{7357, 29266, 0x4143970bf7384dd9},
	}
	proofs := raceProofs()
	if len(proofs) != len(want) {
		t.Fatalf("%d race proofs, %d pinned", len(proofs), len(want))
	}
	var total int64
	for k, p := range proofs {
		res, err := Solve(p.c, p.cs, p.options())
		if err != nil {
			t.Fatal(err)
		}
		total += res.Expanded
		got := pinnedProof{res.Expanded, res.States, math.Float64bits(res.Objective)}
		if !res.Proved || res.Order == nil || (exactPins && got != want[k]) {
			t.Errorf("proof %d (n=%d): proved %v, order %v, expanded/states/objective bits %d/%d/%#x; want proved, an order, %d/%d/%#x",
				k, p.c.N, res.Proved, res.Order != nil, got.expanded, got.states, got.objBits,
				want[k].expanded, want[k].states, want[k].objBits)
		}
	}
	if exactPins && total != 48103 {
		t.Errorf("%d expansions over the race proofs, want 48103", total)
	}
}

// TestReducedTPCHProofPinned pins an unbounded A* proof of reduced
// TPC-H (n=16, low density) under prune.Analyze constraints: its
// expansions, states, objective bits and the optimal order.
func TestReducedTPCHProofPinned(t *testing.T) {
	c := model.MustCompile(datasets.ReducedTPCH(16, datasets.Low))
	cs, _ := prune.Analyze(c, prune.Options{})
	res, err := Solve(c, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("unbounded proof did not exhaust")
	}
	if !exactPins {
		return
	}
	got := pinnedProof{res.Expanded, res.States, math.Float64bits(res.Objective)}
	if want := (pinnedProof{331, 772, 0x414f64c9d35c7180}); got != want {
		t.Errorf("expanded/states/objective bits %d/%d/%#x, want %d/%d/%#x",
			got.expanded, got.states, got.objBits, want.expanded, want.states, want.objBits)
	}
	if want := []int{10, 3, 12, 8, 4, 0, 6, 7, 5, 13, 11, 14, 1, 2, 9, 15}; !slices.Equal(res.Order, want) {
		t.Errorf("order %v, want %v", res.Order, want)
	}
}
