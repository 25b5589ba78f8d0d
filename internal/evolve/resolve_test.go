package evolve_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/local"
)

// TestWarmResolveUnderDrift is the warm-versus-cold re-solve claim, the
// scenario the session API serves: a seeded random workload drifts for
// eight rounds, alternating weight-only rescaling and structural index
// churn. Each round is solved twice by the same step-limited VNS — cold
// from the greedy order, and warm from the previous round's best order
// repaired against the drift (evolve.RepairOrder, the same repair a
// session delta applies). Per round, the warm run must never end worse
// than its repaired seed and must reach the cold run's final objective
// in fewer steps than cold did. On weight-only drift the repaired seed
// already is the answer (0 steps).
//
// The step counts are pinned exactly: they depend only on the seed and
// the search, never on the host's speed, so any change to them is a
// change to the repair, the drift or VNS. They were recorded on amd64,
// where the compiler never fuses x*y+z into one FMA instruction; arm64,
// ppc64 and s390x do, which rounds differently and can move a step
// count, so there only the never-worse and warm-fewer checks run.
func TestWarmResolveUnderDrift(t *testing.T) {
	const (
		seed     = 1
		maxSteps = 12000
	)
	want := []struct {
		drift      string
		cold, warm int64
	}{
		{"weights", 8969, 0},
		{"structural", 5813, 1874},
		{"weights", 3633, 0},
		{"structural", 4136, 0},
		{"weights", 11848, 0},
		{"structural", 5191, 603},
		{"weights", 2867, 0},
		{"structural", 4397, 3433},
	}

	exactPins := runtime.GOARCH == "amd64"

	rng := rand.New(rand.NewSource(seed))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 14
	cfg.Queries = 12
	inst := randgen.New(rng, cfg)

	var prior []string // previous round's best plan, by index name
	addSerial := 0
	for r := 0; r <= len(want); r++ {
		drift := "initial"
		if r > 0 {
			if r%2 == 1 {
				drift = "weights"
				driftWeights(rng, inst)
			} else {
				drift = "structural"
				addSerial++
				driftStructure(rng, inst, addSerial)
			}
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("round %d: drifted instance invalid: %v", r, err)
		}
		c := model.MustCompile(inst)
		cs := sched.PrecedenceSet(inst)
		vns := func(initial []int) local.Result {
			return local.VNS(c, cs, local.Options{
				Initial: initial, MaxSteps: maxSteps,
				Rng: rand.New(rand.NewSource(seed + int64(r)*1000)),
			})
		}

		// Cold: greedy seed, full step limit. Its final objective is the
		// round's target.
		coldSeed := greedy.Solve(c, cs)
		cold := vns(coldSeed)
		target := cold.Objective
		coldSteps := stepsToTarget(c.Objective(coldSeed), cold.Traj, target)
		best := namesOf(inst, cold.Order)

		if r > 0 {
			w := want[r-1]
			warmNames, err := evolve.RepairOrder(inst, prior)
			if err != nil {
				t.Fatalf("round %d: repair: %v", r, err)
			}
			warmSeed := orderOf(inst, warmNames)
			seedObj := c.Objective(warmSeed)
			warm := vns(warmSeed)
			warmSteps := stepsToTarget(seedObj, warm.Traj, target)
			t.Logf("round %d (%s, n=%d): target=%.2f cold steps=%d warm(seed=%.2f) steps=%d",
				r, drift, inst.N(), target, coldSteps, seedObj, warmSteps)

			if drift != w.drift {
				t.Fatalf("round %d: drift %s, want %s", r, drift, w.drift)
			}
			if warm.Objective > seedObj+1e-9 {
				t.Errorf("round %d: warm run ended at %v, worse than its repaired seed %v", r, warm.Objective, seedObj)
			}
			if warmSteps < 0 || warmSteps >= coldSteps {
				t.Errorf("round %d: warm reached the cold target in %d steps, cold in %d; want warm fewer", r, warmSteps, coldSteps)
			}
			if exactPins && (coldSteps != w.cold || warmSteps != w.warm) {
				t.Errorf("round %d: steps to target cold %d warm %d, pinned cold %d warm %d",
					r, coldSteps, warmSteps, w.cold, w.warm)
			}
			if warm.Objective < target {
				// The warm run ended strictly better; its plan seeds the
				// next round.
				best = namesOf(inst, warm.Order)
			}
		}
		prior = best
	}
}

// stepsToTarget returns the step count at which the trajectory first
// reached the target (0 when the seed itself already had), -1 if never.
func stepsToTarget(seedObj float64, traj local.Trajectory, target float64) int64 {
	eps := 1e-9 * math.Max(1, math.Abs(target))
	if seedObj <= target+eps {
		return 0
	}
	for _, p := range traj {
		if p.Objective <= target+eps {
			return p.Steps
		}
	}
	return -1
}

// driftWeights rescales about a third of the query weights — float-only
// drift: the structural hash (and any deployed plan) stays valid.
func driftWeights(rng *rand.Rand, in *model.Instance) {
	for q := range in.Queries {
		if rng.Float64() > 1.0/3 {
			continue
		}
		w := in.Queries[q].Weight
		if w == 0 {
			w = 1
		}
		in.Queries[q].Weight = w * (0.7 + 0.6*rng.Float64())
	}
}

// driftStructure drops one random index (with everything referencing
// it) and adds a fresh one with a plan for a random query.
func driftStructure(rng *rand.Rand, in *model.Instance, serial int) {
	drop := rng.Intn(in.N())
	remap := make([]int, in.N())
	kept := in.Indexes[:0:0]
	for i, ix := range in.Indexes {
		if i == drop {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, ix)
	}
	in.Indexes = kept
	plans := in.Plans[:0:0]
	for _, p := range in.Plans {
		ok := true
		for k, ix := range p.Indexes {
			if remap[ix] < 0 {
				ok = false
				break
			}
			p.Indexes[k] = remap[ix]
		}
		if ok {
			plans = append(plans, p)
		}
	}
	in.Plans = plans
	builds := in.BuildInteractions[:0:0]
	for _, b := range in.BuildInteractions {
		if remap[b.Target] < 0 || remap[b.Helper] < 0 {
			continue
		}
		b.Target, b.Helper = remap[b.Target], remap[b.Helper]
		builds = append(builds, b)
	}
	in.BuildInteractions = builds
	precs := in.Precedences[:0:0]
	for _, pr := range in.Precedences {
		if remap[pr.Before] < 0 || remap[pr.After] < 0 {
			continue
		}
		pr.Before, pr.After = remap[pr.Before], remap[pr.After]
		precs = append(precs, pr)
	}
	in.Precedences = precs

	ix := len(in.Indexes)
	in.Indexes = append(in.Indexes, model.Index{
		Name:       fmt.Sprintf("drift_ix_%d", serial),
		CreateCost: 10 + 110*rng.Float64(),
	})
	q := rng.Intn(len(in.Queries))
	maxSpeedup := in.Queries[q].Runtime * 0.8
	in.Plans = append(in.Plans, model.Plan{
		Query: q, Indexes: []int{ix}, Speedup: maxSpeedup * (0.3 + 0.6*rng.Float64()),
	})
}

func namesOf(in *model.Instance, order []int) []string {
	out := make([]string, len(order))
	for k, ix := range order {
		out[k] = in.Indexes[ix].Name
	}
	return out
}

func orderOf(in *model.Instance, names []string) []int {
	pos := make(map[string]int, in.N())
	for i, ix := range in.Indexes {
		pos[ix.Name] = i
	}
	out := make([]int, len(names))
	for k, name := range names {
		out[k] = pos[name]
	}
	return out
}
