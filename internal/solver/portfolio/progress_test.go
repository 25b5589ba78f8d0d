package portfolio

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// trapInstance is a small instance on which the greedy seed is ~12%
// above the optimum (verified against bruteforce), so exact backends
// must improve the shared incumbent before proving optimality.
func trapInstance() *model.Instance {
	rng := rand.New(rand.NewSource(2))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	cfg.Queries = 6
	return randgen.New(rng, cfg)
}

func TestSolveOnProgressStream(t *testing.T) {
	c := model.MustCompile(trapInstance())
	var (
		mu     sync.Mutex
		events []ProgressEvent
	)
	res, err := Solve(context.Background(), c, nil, Options{
		Backends: []string{"greedy", "cp"},
		Workers:  1,
		Budget:   5 * time.Second,
		OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("cp failed to prove the trap instance: %+v", res)
	}
	seedObj := c.Objective(greedy.Solve(c, nil))
	if res.Objective >= seedObj {
		t.Fatalf("objective %v did not improve on the greedy seed %v", res.Objective, seedObj)
	}

	var improved, done, proved int
	var lastObj = math.Inf(1)
	doneBackends := map[string]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case ProgressImproved:
			improved++
			if ev.Objective >= lastObj {
				t.Errorf("non-improving Improved event: %v after %v", ev.Objective, lastObj)
			}
			lastObj = ev.Objective
			if len(ev.Order) != c.N {
				t.Errorf("Improved event order has %d entries", len(ev.Order))
			}
		case ProgressBackendDone:
			done++
			doneBackends[ev.Backend] = true
		case ProgressProved:
			proved++
			if ev.Backend != "cp" {
				t.Errorf("proof attributed to %q", ev.Backend)
			}
			if math.Abs(ev.Objective-res.Objective) > 1e-9 {
				t.Errorf("proved objective = %v, want %v", ev.Objective, res.Objective)
			}
		}
	}
	// Workers:1 serializes the backends, so the improvement that beats
	// the greedy seed must be observed, both backends must report done,
	// and exactly one proof must land.
	if improved == 0 {
		t.Error("no Improved events despite a suboptimal seed")
	}
	if !doneBackends["greedy"] || !doneBackends["cp"] {
		t.Errorf("BackendDone coverage: %v", doneBackends)
	}
	if proved != 1 {
		t.Errorf("proved events = %d, want 1", proved)
	}
	// The last event for this single-worker run is the proof (the proving
	// backend emits BackendDone first, then Proved; no backend follows).
	if last := events[len(events)-1]; last.Kind != ProgressProved {
		t.Errorf("final event kind = %v, want proved", last.Kind)
	}
}

// TestSolveOnProgressSingleProof: with several exact backends racing on
// separate workers, at most one ProgressProved event may be emitted
// (the CAS elects a single prover), no matter who proves first.
func TestSolveOnProgressSingleProof(t *testing.T) {
	c := model.MustCompile(trapInstance())
	for trial := 0; trial < 10; trial++ {
		var proved atomic.Int64
		res, err := Solve(context.Background(), c, nil, Options{
			Backends: []string{"bruteforce", "astar", "cp"},
			Workers:  3,
			Budget:   5 * time.Second,
			OnProgress: func(ev ProgressEvent) {
				if ev.Kind == ProgressProved {
					proved.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proved {
			t.Fatal("no proof on trap instance")
		}
		if n := proved.Load(); n != 1 {
			t.Fatalf("trial %d: %d proved events, want exactly 1", trial, n)
		}
	}
}

// TestSolveOnProgressOrderIsPrivate checks the Improved event's order is
// a copy the consumer may retain.
func TestSolveOnProgressOrderIsPrivate(t *testing.T) {
	c := model.MustCompile(trapInstance())
	var kept [][]int
	var mu sync.Mutex
	res, err := Solve(context.Background(), c, nil, Options{
		Backends: []string{"cp"},
		Budget:   5 * time.Second,
		OnProgress: func(ev ProgressEvent) {
			if ev.Kind == ProgressImproved {
				mu.Lock()
				kept = append(kept, ev.Order)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range kept {
		if err := c.Inst.ValidOrder(order); err != nil {
			t.Fatalf("retained event order corrupted: %v", err)
		}
	}
	if len(kept) > 0 {
		final := kept[len(kept)-1]
		for k := range final {
			if final[k] != res.Order[k] {
				t.Fatalf("last improvement %v != result order %v", final, res.Order)
			}
		}
	}
}

// TestRecordSpan pins the progress → flight-recorder mapping shared by
// the service's job traces and iddsolve's -trace output: one span per
// event, for every ProgressKind and every backend-done variant.
func TestRecordSpan(t *testing.T) {
	obj := 12.5
	for _, c := range []struct {
		name   string
		ev     ProgressEvent
		kind   string
		obj    *float64
		detail string
	}{
		{"backend-start", ProgressEvent{Kind: ProgressBackendStarted, Backend: "cp", Objective: math.Inf(1)}, obs.SpanBackendStart, nil, ""},
		{"improved", ProgressEvent{Kind: ProgressImproved, Backend: "vns", Order: []int{1, 0}, Objective: obj}, obs.SpanIncumbent, &obj, ""},
		{"proved", ProgressEvent{Kind: ProgressProved, Backend: "astar", Order: []int{0, 1}, Objective: obj}, obs.SpanProved, &obj, ""},
		{"done", ProgressEvent{Kind: ProgressBackendDone, Backend: "tabu-f", Objective: obj}, obs.SpanBackendDone, &obj, ""},
		{"done skipped", ProgressEvent{Kind: ProgressBackendDone, Backend: "lns", Skipped: true, Objective: math.Inf(1)}, obs.SpanBackendDone, nil, "skipped"},
		{"done error", ProgressEvent{Kind: ProgressBackendDone, Backend: "panicky", Err: errors.New("backend panicky panicked: boom"), Objective: math.Inf(1)}, obs.SpanBackendDone, nil, "backend panicky panicked: boom"},
		{"done error with objective", ProgressEvent{Kind: ProgressBackendDone, Backend: "cp", Err: context.Canceled, Objective: obj}, obs.SpanBackendDone, &obj, context.Canceled.Error()},
	} {
		tr := obs.NewTrace()
		RecordSpan(tr, c.ev)
		spans := tr.Snapshot().Spans
		if len(spans) != 1 {
			t.Fatalf("%s: %d spans, want 1", c.name, len(spans))
		}
		s := spans[0]
		if s.Kind != c.kind || s.Backend != c.ev.Backend || s.Detail != c.detail {
			t.Errorf("%s: span %q backend %q detail %q, want %q %q %q",
				c.name, s.Kind, s.Backend, s.Detail, c.kind, c.ev.Backend, c.detail)
		}
		switch {
		case c.obj == nil && s.Objective != nil:
			t.Errorf("%s: span carries objective %v, want none", c.name, *s.Objective)
		case c.obj != nil && (s.Objective == nil || *s.Objective != *c.obj):
			t.Errorf("%s: span objective %v, want %v", c.name, s.Objective, *c.obj)
		}
	}
	// Tracing off: a nil recorder takes every event without effect.
	RecordSpan(nil, ProgressEvent{Kind: ProgressImproved, Objective: obj})
}
