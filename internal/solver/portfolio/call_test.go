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

func init() { backend.Register(panicky{}) }

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

// TestOneNameRosterRunsOnce: a roster of one anytime backend is not
// sliced, so no finisher replays it; the result carries exactly one
// BackendResult.
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
