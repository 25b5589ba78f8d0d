package portfolio

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

func init() {
	backend.Register(panicky{})
	backend.Register(&deadlineProbe{})
}

// panicky panics on every solve. It is applicable to nothing, so it
// never joins a default roster; only a caller that names it runs it.
type panicky struct{}

func (panicky) Info() backend.Info {
	return backend.Info{
		Name:       "panicky",
		Kind:       backend.KindConstructive,
		Rank:       9000,
		Summary:    "test-only backend that panics",
		Applicable: func(*model.Compiled) bool { return false },
	}
}

func (panicky) Solve(context.Context, backend.Request) backend.Outcome { panic("boom") }

// TestOneNameRosterRunsOnce: a roster of one anytime backend runs once;
// the result carries exactly one BackendResult.
func TestOneNameRosterRunsOnce(t *testing.T) {
	in := datasets.ReducedTPCH(16, datasets.Mid)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	for _, name := range []string{"tabu-f", "tabu-b", "vns"} {
		res, err := Solve(context.Background(), c, cs, Options{
			Backends: []string{name}, StepLimit: 3000, Seed: 3, Budget: 30 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Backends) != 1 || res.Backends[0].Name != name {
			names := make([]string, len(res.Backends))
			for i, b := range res.Backends {
				names[i] = b.Name
			}
			t.Errorf("%s: ran %v, want [%s]", name, names, name)
		}
	}
}

// deadlineProbe records the deadline of the context it is solved under
// and returns its initial order at once. Like panicky it is applicable
// to nothing, so only a caller that names it runs it.
type deadlineProbe struct {
	mu       sync.Mutex
	deadline time.Time
}

func (*deadlineProbe) Info() backend.Info {
	return backend.Info{
		Name:       "deadline-probe",
		Kind:       backend.KindConstructive,
		Rank:       9001,
		Summary:    "test-only backend that records its slice's deadline",
		Applicable: func(*model.Compiled) bool { return false },
	}
}

func (p *deadlineProbe) Solve(ctx context.Context, req backend.Request) backend.Outcome {
	d, _ := ctx.Deadline()
	p.mu.Lock()
	p.deadline = d
	p.mu.Unlock()
	return backend.Outcome{Order: req.Initial, Objective: req.Compiled.Objective(req.Initial)}
}

// TestSlicedRaceIsTheRoster: a one-worker race over more backends than
// workers runs each roster name once, in roster order, and nothing
// after it. No budget is held back: the last backend to start gets
// everything up to the overall deadline.
func TestSlicedRaceIsTheRoster(t *testing.T) {
	in := datasets.ReducedTPCH(16, datasets.Mid)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	b, _ := backend.Lookup("deadline-probe")
	probe := b.(*deadlineProbe)
	roster := []string{"greedy", "tabu-f", "vns", "deadline-probe"}
	const budget = 30 * time.Second
	before := time.Now()
	res, err := Solve(context.Background(), c, cs, Options{
		Backends: roster, Workers: 1, Budget: budget, StepLimit: 2000, Seed: 7,
	})
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	solvertest.RequireFeasible(t, c.N, cs, res.Order)
	if len(res.Backends) != len(roster) {
		t.Fatalf("%d BackendResults for a %d-name roster: %+v", len(res.Backends), len(roster), res.Backends)
	}
	for i, br := range res.Backends {
		if br.Name != roster[i] {
			t.Errorf("Backends[%d] = %q, want %q", i, br.Name, roster[i])
		}
		if br.Skipped || br.Err != nil {
			t.Errorf("%s: skipped=%v err=%v", br.Name, br.Skipped, br.Err)
		}
	}
	if strings.HasSuffix(res.Winner, "+") {
		t.Errorf("winner %q names a pass outside the roster", res.Winner)
	}
	probe.mu.Lock()
	deadline := probe.deadline
	probe.mu.Unlock()
	if deadline.Before(before.Add(budget)) || deadline.After(after.Add(budget)) {
		t.Errorf("last slice ends %v after the solve began, want the whole %v budget",
			deadline.Sub(before), budget)
	}
}

// TestBackendPanicContained: a backend that panics ends with Err, the
// progress stream reports it as backend-done with that error, and the
// race goes on, on the caller's goroutine (one worker) as on a spawned
// one (two workers).
func TestBackendPanicContained(t *testing.T) {
	in := datasets.ReducedTPCH(8, datasets.Low)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	want := c.Objective(greedy.Solve(c, cs))
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var doneErr error
		res, err := Solve(context.Background(), c, cs, Options{
			Backends: []string{"panicky", "greedy"}, Workers: workers, Budget: 10 * time.Second,
			OnProgress: func(ev ProgressEvent) {
				if ev.Kind == ProgressBackendDone && ev.Backend == "panicky" {
					mu.Lock()
					doneErr = ev.Err
					mu.Unlock()
				}
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		solvertest.RequireFeasible(t, c.N, cs, res.Order)
		if res.Objective != want {
			t.Errorf("workers=%d: objective %v, want greedy's %v", workers, res.Objective, want)
		}
		if len(res.Backends) != 2 {
			t.Fatalf("workers=%d: telemetry %+v", workers, res.Backends)
		}
		p, g := res.Backends[0], res.Backends[1]
		if p.Err == nil || !strings.Contains(p.Err.Error(), "backend panicky panicked: boom") {
			t.Errorf("workers=%d: panicky Err = %v", workers, p.Err)
		}
		if pe := (*PanicError)(nil); !errors.As(p.Err, &pe) || pe.Backend != "panicky" {
			t.Errorf("workers=%d: panicky Err %v is not a *PanicError naming it", workers, p.Err)
		}
		if g.Err != nil || g.Skipped || g.Order == nil {
			t.Errorf("workers=%d: greedy did not run after the panic: %+v", workers, g)
		}
		if doneErr == nil || doneErr.Error() != p.Err.Error() {
			t.Errorf("workers=%d: backend-done event Err = %v, want %v", workers, doneErr, p.Err)
		}
	}
}
