package main

import (
	"math"
	"testing"
)

// runRounds builds a workload and runs a fixed number of rounds of it
// (whole cycles, or requests per connection), untimed.
func runRounds(t *testing.T, name string, seed int64, rounds int) (workload, *phase) {
	t.Helper()
	w, err := workloads[name](seed)
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	t.Cleanup(w.close)
	ph := newPhase(false)
	ph.limit = rounds
	w.run(ph)
	if ph.log.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, ph.log.failed, ph.log.attempted, ph.log.failures)
	}
	return w, ph
}

// TestProofWorkIsExact repeats a proof cycle in two separate set-ups at
// one seed: every proof's objective bits and CP counts must match.
func TestProofWorkIsExact(t *testing.T) {
	a, _ := runRounds(t, "proof-tpch", 7, 2)
	b, _ := runRounds(t, "proof-tpch", 7, 1)
	pa, pb := a.(*proofTPCH), b.(*proofTPCH)
	for i := range pa.cycle {
		if pa.cycle[i].label != pb.cycle[i].label || *pa.cycle[i].ref != *pb.cycle[i].ref {
			t.Errorf("%s: first run %+v, second run %s %+v",
				pa.cycle[i].label, *pa.cycle[i].ref, pb.cycle[i].label, *pb.cycle[i].ref)
		}
	}
	if pa.counts.nodes != 2*pb.counts.nodes || pa.counts.fails != 2*pb.counts.fails {
		t.Errorf("nodes/fails over two cycles %d/%d, over one %d/%d",
			pa.counts.nodes, pa.counts.fails, pb.counts.nodes, pb.counts.fails)
	}
	// The mean over two cycles sums in another order than over one.
	if math.Abs(a.objRatio()-b.objRatio()) > 1e-12 {
		t.Errorf("obj_ratio %v then %v", a.objRatio(), b.objRatio())
	}
}

// TestAnytimeWorkIsExact does the same for the step-limited local
// searches: steps, accepted moves and final objectives repeat exactly.
func TestAnytimeWorkIsExact(t *testing.T) {
	a, _ := runRounds(t, "anytime-tpcds", 7, 1)
	b, _ := runRounds(t, "anytime-tpcds", 7, 1)
	wa, wb := a.(*anytimeTPCDS), b.(*anytimeTPCDS)
	for i := range wa.cycle {
		ra, rb := wa.cycle[i].ref, wb.cycle[i].ref
		if ra.Steps != rb.Steps || ra.Accepted != rb.Accepted ||
			math.Float64bits(ra.Objective) != math.Float64bits(rb.Objective) {
			t.Errorf("slot %d: steps/accepted/objective %d/%d/%v then %d/%d/%v",
				i, ra.Steps, ra.Accepted, ra.Objective, rb.Steps, rb.Accepted, rb.Objective)
		}
	}
	if wa.counts.steps != wb.counts.steps {
		t.Errorf("local.steps %d then %d", wa.counts.steps, wb.counts.steps)
	}
	if math.Float64bits(a.objRatio()) != math.Float64bits(b.objRatio()) {
		t.Errorf("obj_ratio %v then %v", a.objRatio(), b.objRatio())
	}
}

// TestServeFreshIsRepeatable sends one block per connection twice at one
// seed. Every request is a distinct instance, so every one is a cache
// miss, and every answer is a proved optimum, so obj_ratio repeats.
func TestServeFreshIsRepeatable(t *testing.T) {
	var ratios [2]float64
	for run := range ratios {
		w, ph := runRounds(t, "serve-fresh", 7, freshBlock)
		st := w.(*serveFresh).stats
		c := st.final.minus(st.start)
		if ops := int64(ph.log.attempted); c.hits != 0 || c.misses != ops {
			t.Errorf("run %d: %d cache hits and %d misses over %d distinct requests", run, c.hits, c.misses, ops)
		}
		ratios[run] = w.objRatio()
	}
	if ratios[0] != ratios[1] {
		t.Errorf("obj_ratio %v then %v", ratios[0], ratios[1])
	}
}

// TestServeDriftIsRepeatable runs a session generation per slot twice at
// one seed: each delta is either warm-started or served from the cache,
// and the counts of both repeat.
func TestServeDriftIsRepeatable(t *testing.T) {
	type counts struct{ hits, seeded, ops int64 }
	var got [2]counts
	for run := range got {
		w, ph := runRounds(t, "serve-drift", 7, driftSlots*driftDeltas)
		st := w.(*serveDrift).stats
		c := st.final.minus(st.start)
		got[run] = counts{c.hits, c.seeded, int64(ph.log.attempted)}
	}
	if got[0] != got[1] {
		t.Errorf("cache hits, warm starts, ops %+v then %+v", got[0], got[1])
	}
}

// TestSecondSeedPassesChecks runs every workload briefly at another
// seed; runRounds fails the test on any failed op or output check.
func TestSecondSeedPassesChecks(t *testing.T) {
	for name, rounds := range map[string]int{
		"proof-tpch": 1, "anytime-tpcds": 1, "serve-fresh": freshBlock, "serve-drift": driftDeltas,
	} {
		t.Run(name, func(t *testing.T) { runRounds(t, name, 11, rounds) })
	}
}

// TestTracedRoundsAccount runs every workload traced for a few rounds:
// every other round is traced, and the traced ops' layer self times
// must pass the attribution check.
func TestTracedRoundsAccount(t *testing.T) {
	for name, rounds := range map[string]int{
		"proof-tpch": 2, "anytime-tpcds": 2, "serve-fresh": 24 * freshBlock, "serve-drift": 16 * driftDeltas,
	} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads[name](3)
			if err != nil {
				t.Fatalf("set-up: %v", err)
			}
			t.Cleanup(w.close)
			ph := newPhase(true)
			ph.limit = rounds
			w.run(ph)
			if ph.after != nil {
				ph.after()
			}
			if ph.log.failed+ph.tlog.failed != 0 {
				t.Fatalf("failed ops: %v %v", ph.log.failures, ph.tlog.failures)
			}
			if ph.log.attempted == 0 || ph.tlog.attempted == 0 {
				t.Fatalf("%d untraced and %d traced ops; want both", ph.log.attempted, ph.tlog.attempted)
			}
			if a := ph.tr.attribute(); !a.OK {
				t.Errorf("attribution: layers sum to %.3f, smallest layer %.4f ms: %v", a.SumFrac, a.MinSelfMS, a.BandMeanMS)
			}
		})
	}
}
