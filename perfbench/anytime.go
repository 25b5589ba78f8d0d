package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/local"
	"github.com/evolving-olap/idd/internal/tpcds"
)

// Step limits of the anytime ops: a VNS run takes about 0.25 s and a
// tabu run about 0.13 s on a 2 GHz class core. At 200k steps VNS has
// mostly converged, so its final objective depends little on its seed.
// The wall budget is only a safety cap; an op that reaches it counts as
// failed.
const (
	vnsSteps      = 200_000
	tabuSteps     = 2_000
	anytimeBudget = 20 * time.Second
	// anytimeVNSRuns is how many seeded VNS runs a cycle holds.
	anytimeVNSRuns = 6
)

// anytimeOp is one slot of the cycle: a searcher and, for VNS, the seed
// of its random stream.
type anytimeOp struct {
	tabu bool
	seed int64
	// ref is the slot's first result; every later run must repeat it.
	ref *local.Result
}

// anytimeCounts accumulates work counts and times over a phase; like
// proofCounts, it keeps objective timings for traced ops only.
type anytimeCounts struct {
	ops             int
	steps, accepted int64
	wall            time.Duration
	objectiveUS     []float64
}

type anytimeTPCDS struct {
	in        *model.Instance
	c         *model.Compiled
	cs        *constraint.Set
	initial   []int
	greedyObj float64
	buildS    float64
	cycle     []anytimeOp
	req       atomic.Int64
	ratioSum  float64
	ratioN    int
	counts    anytimeCounts
}

func newAnytimeTPCDS(seed int64) (workload, error) {
	start := time.Now()
	in, _, err := advisor.BuildInstance("tpcds", tpcds.Schema(), tpcds.Queries(), tpcdsOptions)
	if err != nil {
		return nil, err
	}
	w := &anytimeTPCDS{in: in, buildS: time.Since(start).Seconds()}
	if w.c, err = model.Compile(in); err != nil {
		return nil, err
	}
	w.cs, _ = prune.Analyze(w.c, prune.Options{})
	w.initial = greedy.Solve(w.c, w.cs)
	w.greedyObj = w.c.Objective(w.initial)
	// Six VNS runs on their own seeded streams and one tabu run (tabu
	// is deterministic) per cycle; the median lands among the VNS runs,
	// and obj_ratio averages over six random streams.
	w.cycle = []anytimeOp{{tabu: true}}
	for k := int64(0); k < anytimeVNSRuns; k++ {
		w.cycle = append(w.cycle, anytimeOp{seed: splitmix(seed, k)})
	}
	return w, nil
}

// tailPct is 75: a run holds about 80 ops, too few for p90.
func (w *anytimeTPCDS) tailPct() float64  { return 75 }
func (w *anytimeTPCDS) close()            {}
func (w *anytimeTPCDS) objRatio() float64 { return w.ratioSum / float64(w.ratioN) }

// run searches whole cycles until the deadline.
func (w *anytimeTPCDS) run(ph *phase) {
	w.counts = anytimeCounts{}
	for done := 0; ph.more(done); done++ {
		tr, log := ph.pick(done)
		for i := range w.cycle {
			w.search(tr, log, &w.cycle[i])
		}
	}
}

// search is one op: a step-limited local search from the greedy order.
func (w *anytimeTPCDS) search(tr *tracer, log *opLog, op *anytimeOp) {
	req := w.req.Add(1)
	root := tr.begin(req, 0, "op")
	start := time.Now()
	var res local.Result
	if op.tabu {
		tr.timed(req, root, "local.tabu", func() {
			res = local.TabuFSwap(w.c, w.cs, local.Options{Initial: w.initial, MaxSteps: tabuSteps, Budget: anytimeBudget})
		})
	} else {
		tr.timed(req, root, "local.vns", func() {
			res = local.VNS(w.c, w.cs, local.Options{Initial: w.initial, MaxSteps: vnsSteps, Budget: anytimeBudget,
				Rng: rand.New(rand.NewSource(op.seed))})
		})
	}
	d := time.Since(start)
	tr.end(root)
	label := fmt.Sprintf("vns seed %d", op.seed)
	if op.tabu {
		label = "tabu-f"
	}
	if d >= anytimeBudget {
		log.fail("%s: hit the %v safety budget", label, anytimeBudget)
		return
	}
	objStart := time.Now()
	recomputed := w.c.Objective(res.Order)
	objUS := float64(time.Since(objStart)) / 1e3
	if msg := checkOrder(w.in, res.Order, res.Objective, recomputed); msg != "" {
		log.wrongOutput("%s: %s", label, msg)
		return
	}
	if op.ref == nil {
		op.ref = &res
	} else if res.Steps != op.ref.Steps || res.Accepted != op.ref.Accepted ||
		math.Float64bits(res.Objective) != math.Float64bits(op.ref.Objective) {
		log.wrongOutput("%s: steps %d accepted %d objective %v differ from the first cycle's %d %d %v",
			label, res.Steps, res.Accepted, res.Objective, op.ref.Steps, op.ref.Accepted, op.ref.Objective)
		return
	}
	w.ratioSum += res.Objective / w.greedyObj
	w.ratioN++
	log.ok(d)
	k := &w.counts
	k.ops++
	k.steps += res.Steps
	k.accepted += res.Accepted
	k.wall += d
	if tr.on {
		k.objectiveUS = append(k.objectiveUS, objUS)
	}
}

func (w *anytimeTPCDS) layers(a attribution, m map[string]float64) {
	k := w.counts
	m["model.objective_us"] = median(k.objectiveUS)
	m["local.steps"] = float64(k.steps) * float64(len(w.cycle)) / float64(k.ops)
	m["local.accepted"] = float64(k.accepted) * float64(len(w.cycle)) / float64(k.ops)
	m["local.accept_ratio"] = float64(k.accepted) / float64(k.steps)
	m["local.ksteps_per_s"] = float64(k.steps) / k.wall.Seconds() / 1e3
	m["local.vns_ms"] = a.SelfMedianMS["local.vns"]
	m["local.tabu_ms"] = a.SelfMedianMS["local.tabu"]
	m["advisor.tpcds_build_s"] = w.buildS
}
