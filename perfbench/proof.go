package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/tpch"
)

// tpchOptions and tpcdsOptions are the advisor settings behind
// datasets.TPCH and datasets.TPCDS. The benchmark builds the instances
// itself because the datasets package caches them once per process, and
// set-up is timed on every repetition.
var (
	tpchOptions  = advisor.Options{MaxIndexes: 32, MaxPlansPerQuery: 20, MinBuildInteraction: 0.22}
	tpcdsOptions = advisor.Options{MaxIndexes: 170, MaxPlansPerQuery: 33, MinBuildInteraction: 0.22}
)

// proofCycle is the fixed set of reduced TPC-H instances proved serially
// in every cycle: 0.6 to 0.9M CP nodes each. An odd count keeps the
// median inside one instance's proofs instead of on the gap between two.
var proofCycle = []struct {
	n int
	d datasets.Density
}{{13, datasets.Mid}, {16, datasets.Low}, {18, datasets.Low}}

// proofNodeCap is the safety cap on one proof, about 20 times the
// largest proof in the cycle; a proof that reaches it counts as failed.
const proofNodeCap = 20_000_000

// proofRef is the work and answer of an instance's first proof; every
// later proof of it must repeat them exactly.
type proofRef struct {
	objBits       uint64
	nodes, fails  int64
	prunedBound   int64
	prunedTail    int64
	infeasible    int64
	solutionCount int
}

type proofInst struct {
	label string
	in    *model.Instance
	ref   *proofRef
}

// proofCounts accumulates work counts and times over a phase. The
// objective timings are kept for traced ops only, so an untraced run's
// heap does not grow with its op count.
type proofCounts struct {
	ops                                      int
	nodes, fails, pruned, tailPruned, infeas int64
	addedEdges                               int64
	cpWall                                   time.Duration
	objectiveUS                              []float64
}

type proofTPCH struct {
	cycle    []proofInst
	buildS   float64
	req      atomic.Int64
	ratioSum float64
	ratioN   int
	counts   proofCounts
}

func newProofTPCH(seed int64) (workload, error) {
	start := time.Now()
	full, _, err := advisor.BuildInstance("tpch", tpch.Schema(), tpch.Queries(), tpchOptions)
	if err != nil {
		return nil, err
	}
	w := &proofTPCH{buildS: time.Since(start).Seconds()}
	for _, p := range proofCycle {
		in := datasets.Reduce(full, p.n, p.d)
		if err := in.Validate(); err != nil {
			return nil, err
		}
		w.cycle = append(w.cycle, proofInst{label: fmt.Sprintf("tpch-n%d-%s", p.n, p.d), in: in})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.cycle), func(i, j int) { w.cycle[i], w.cycle[j] = w.cycle[j], w.cycle[i] })
	return w, nil
}

func (w *proofTPCH) tailPct() float64 { return 90 }
func (w *proofTPCH) close()           {}

func (w *proofTPCH) objRatio() float64 { return w.ratioSum / float64(w.ratioN) }

// run proves whole cycles until the deadline, so every phase does a
// whole number of cycles of fixed work.
func (w *proofTPCH) run(ph *phase) {
	w.counts = proofCounts{}
	for done := 0; ph.more(done); done++ {
		tr, log := ph.pick(done)
		for i := range w.cycle {
			w.prove(tr, log, &w.cycle[i])
		}
	}
}

// prove is one op: the full serial proof pipeline on one instance.
func (w *proofTPCH) prove(tr *tracer, log *opLog, p *proofInst) {
	req := w.req.Add(1)
	root := tr.begin(req, 0, "op")
	start := time.Now()
	var (
		c    *model.Compiled
		cerr error
		cs   *constraint.Set
		seed []int
		tb   *prune.TailBound
		res  cp.Result
	)
	tr.timed(req, root, "model.compile", func() { c, cerr = model.Compile(p.in) })
	if cerr != nil {
		tr.end(root)
		log.wrongOutput("%s: compile: %v", p.label, cerr)
		return
	}
	tr.timed(req, root, "prune.analyze", func() { cs, _ = prune.Analyze(c, prune.Options{}) })
	tr.timed(req, root, "greedy", func() { seed = greedy.Solve(c, cs) })
	tr.timed(req, root, "prune.tailbound", func() { tb = prune.NewTailBound(c, cs, prune.Options{}) })
	cpStart := time.Now()
	tr.timed(req, root, "cp.solve", func() {
		res = cp.Solve(c, cs, cp.Options{Incumbent: seed, TailBound: tb, Workers: 1, NodeLimit: proofNodeCap})
	})
	cpWall := time.Since(cpStart)
	d := time.Since(start)
	tr.end(root)

	if !res.Proved {
		log.fail("%s: no proof within %d nodes", p.label, proofNodeCap)
		return
	}
	objStart := time.Now()
	recomputed := c.Objective(res.Order)
	objUS := float64(time.Since(objStart)) / 1e3
	if msg := checkOrder(p.in, res.Order, res.Objective, recomputed); msg != "" {
		log.wrongOutput("%s: %s", p.label, msg)
		return
	}
	got := proofRef{
		objBits: math.Float64bits(res.Objective), nodes: res.Nodes, fails: res.Fails,
		prunedBound: res.Stats.PrunedBound, prunedTail: res.Stats.PrunedTail,
		infeasible: res.Stats.Infeasible, solutionCount: res.Solutions,
	}
	if p.ref == nil {
		p.ref = &got
	} else if *p.ref != got {
		log.wrongOutput("%s: proof differs from the first cycle: got %+v, want %+v", p.label, got, *p.ref)
		return
	}
	w.ratioSum += res.Objective / c.Objective(seed)
	w.ratioN++
	log.ok(d)

	k := &w.counts
	k.ops++
	k.nodes += res.Nodes
	k.fails += res.Fails
	k.pruned += res.Stats.PrunedBound
	k.tailPruned += res.Stats.PrunedTail
	k.infeas += res.Stats.Infeasible
	k.addedEdges += int64(cs.Len() - len(p.in.Precedences))
	k.cpWall += cpWall
	if tr.on {
		k.objectiveUS = append(k.objectiveUS, objUS)
	}
}

func (w *proofTPCH) layers(a attribution, m map[string]float64) {
	k := w.counts
	perCycle := float64(len(w.cycle)) / float64(k.ops)
	m["model.compile_ms"] = a.SelfMedianMS["model.compile"]
	m["model.objective_us"] = median(k.objectiveUS)
	m["prune.analyze_ms"] = a.SelfMedianMS["prune.analyze"]
	m["prune.tailbound_ms"] = a.SelfMedianMS["prune.tailbound"]
	m["prune.added_edges"] = float64(k.addedEdges) * perCycle
	m["greedy.ms"] = a.SelfMedianMS["greedy"]
	m["cp.nodes"] = float64(k.nodes) * perCycle
	m["cp.fails"] = float64(k.fails) * perCycle
	m["cp.fail_ratio"] = float64(k.fails) / float64(k.nodes)
	m["cp.pruned_incumbent"] = float64(k.pruned) * perCycle
	m["cp.pruned_tail"] = float64(k.tailPruned) * perCycle
	m["cp.infeasible"] = float64(k.infeas) * perCycle
	m["cp.solve_ms"] = a.SelfMedianMS["cp.solve"]
	m["cp.knodes_per_s"] = float64(k.nodes) / k.cpWall.Seconds() / 1e3
	m["advisor.tpch_build_s"] = w.buildS
}
