package local

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// exactPins reports whether the pinned values apply. They were recorded
// on amd64, where the compiler never fuses x*y+z into one FMA
// instruction; other architectures may round differently and move an
// objective bit, which would then change which moves are accepted.
const exactPins = runtime.GOARCH == "amd64"

// tpcdsStart is the anytime configuration on full TPC-DS (n=123): the
// §5 analysis constraints and a greedy start.
func tpcdsStart() (*model.Compiled, *constraint.Set, []int) {
	c := model.MustCompile(datasets.TPCDS())
	cs, _ := prune.Analyze(c, prune.Options{})
	return c, cs, greedy.Solve(c, cs)
}

type pinnedRun struct {
	steps, accepted int64
	objBits         uint64
}

func pinOf(res Result) pinnedRun {
	return pinnedRun{res.Steps, res.Accepted, math.Float64bits(res.Objective)}
}

// TestLocalSearchTPCDSPinned pins step-limited VNS, TS-FSwap and TS-BSwap
// runs on full TPC-DS exactly: steps, accepted moves and objective bits.
// Every value depends only on the search, never on the host's speed, so
// a change to any of them is a change to what the searches evaluate — a
// faster evaluation core must leave them all in place.
func TestLocalSearchTPCDSPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("seven TPC-DS searches are slow under the race detector")
	}
	if !exactPins {
		t.Skip("pins were recorded on amd64")
	}
	c, cs, init := tpcdsStart()
	for seed, want := range []pinnedRun{
		{200000, 66, 0x41928ac41859bc47},
		{200000, 73, 0x4191bf50de9f8575},
		{200000, 60, 0x4192af2f47bf0c60},
		{200000, 65, 0x4191e6d4ffa6fcc8},
	} {
		res := VNS(c, cs, Options{Initial: init, MaxSteps: 200_000, Rng: rand.New(rand.NewSource(int64(seed)))})
		if got := pinOf(res); got != want {
			t.Errorf("VNS seed %d: steps/accepted/objective bits %d/%d/%#x, want %d/%d/%#x",
				seed, got.steps, got.accepted, got.objBits, want.steps, want.accepted, want.objBits)
		}
	}
	for _, tc := range []struct {
		name  string
		run   func(*model.Compiled, *constraint.Set, Options) Result
		steps int64
		want  pinnedRun
	}{
		{"TS-FSwap", TabuFSwap, 2_000, pinnedRun{2000, 13, 0x41967845f3a224f6}},
		{"TS-BSwap", TabuBSwap, 20_000, pinnedRun{20000, 3, 0x41934788d4c99d53}},
	} {
		if got := pinOf(tc.run(c, cs, Options{Initial: init, MaxSteps: tc.steps})); got != tc.want {
			t.Errorf("%s: steps/accepted/objective bits %d/%d/%#x, want %d/%d/%#x",
				tc.name, got.steps, got.accepted, got.objBits, tc.want.steps, tc.want.accepted, tc.want.objBits)
		}
	}
}

// TestLNSTPCDSPinned pins step-limited LNS runs on full TPC-DS exactly,
// as TestLocalSearchTPCDSPinned does for VNS. LNS solves a relaxation
// of another shape (6 free positions, fail limit 500), so the CP
// search's set-value cache and lazily walked walker meet other paths.
func TestLNSTPCDSPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("two TPC-DS searches are slow under the race detector")
	}
	if !exactPins {
		t.Skip("pins were recorded on amd64")
	}
	c, cs, init := tpcdsStart()
	for seed, want := range []pinnedRun{
		{100000, 6, 0x41998f9ef7aa00a6},
		{100000, 9, 0x4194df0713002cb2},
	} {
		res := LNS(c, cs, Options{Initial: init, MaxSteps: 100_000, Rng: rand.New(rand.NewSource(int64(seed)))})
		if got := pinOf(res); got != want {
			t.Errorf("LNS seed %d: steps/accepted/objective bits %d/%d/%#x, want %d/%d/%#x",
				seed, got.steps, got.accepted, got.objBits, want.steps, want.accepted, want.objBits)
		}
	}
}

// TestRelaxationObjectiveExact checks the objective LNS and VNS hand the
// CP search with every relaxation's incumbent, which the search takes
// without replaying the order: on a pinned run, each value the run's
// current objective takes (the start and every accepted move, all of
// which OnImprove sees when nothing is adopted) is bit for bit what
// Compiled.Objective computes for the order.
func TestRelaxationObjectiveExact(t *testing.T) {
	if raceEnabled {
		t.Skip("TPC-DS searches are slow under the race detector")
	}
	c, cs, init := tpcdsStart()
	for _, tc := range []struct {
		name string
		run  func(*model.Compiled, *constraint.Set, Options) Result
	}{{"VNS", VNS}, {"LNS", LNS}} {
		var values int64
		onImprove := func(order []int, obj float64) {
			values++
			if want := c.Objective(order); math.Float64bits(obj) != math.Float64bits(want) {
				t.Fatalf("%s: current objective %#x, Compiled.Objective %#x", tc.name, math.Float64bits(obj), math.Float64bits(want))
			}
		}
		res := tc.run(c, cs, Options{Initial: init, MaxSteps: 100_000, Rng: rand.New(rand.NewSource(1)), OnImprove: onImprove})
		if values != res.Accepted+1 {
			t.Fatalf("%s: OnImprove saw %d values for %d accepted moves", tc.name, values, res.Accepted)
		}
		if res.Accepted == 0 {
			t.Fatalf("%s: no move accepted; nothing was checked", tc.name)
		}
	}
}
