// The registry's acceptance proof: a complete solver backend in ONE
// test file, with zero edits anywhere else. Registering it below makes
// it appear, automatically, in
//
//   - the portfolio's Default selection and its race telemetry,
//   - the registry conformance sweep over the corpus
//     (registry_conformance_test.go runs in this same test binary), and
//   - the service's GET /solvers catalogue.
//
// The CLI's -list-solvers prints the same backend.All() listing that is
// asserted against here; a backend compiled into the binary shows up
// there identically.
package solvertest_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

func init() { backend.Register(toyBackend{}) }

// toyBackend deploys in reverse-greedy order, precedence-repaired: a
// deliberately mediocre but always-feasible constructive heuristic.
type toyBackend struct{}

func (toyBackend) Info() backend.Info {
	return backend.Info{
		Name:    "toy-reverse",
		Kind:    backend.KindConstructive,
		Rank:    95,
		Summary: "test-only backend: reversed seed order, precedence-repaired",
	}
}

func (toyBackend) Solve(_ context.Context, req backend.Request) backend.Outcome {
	n := req.Compiled.N
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if len(req.Initial) == n {
		copy(order, req.Initial)
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	order = req.Constraints.Repair(order)
	return backend.Outcome{Order: order, Objective: req.Compiled.Objective(order)}
}

// TestToyBackendVisibleEverywhere drives the single-file backend
// through every registry-derived surface.
func TestToyBackendVisibleEverywhere(t *testing.T) {
	cse := solvertest.Cases(t)[1] // plain-five: n=5, no precedences

	// Default selection: the toy declares no applicability predicate, so
	// the portfolio volunteers it for every instance.
	inDefault := false
	for _, name := range backend.Default(cse.C) {
		inDefault = inDefault || name == "toy-reverse"
	}
	if !inDefault {
		t.Fatalf("toy-reverse missing from backend.Default: %v", backend.Default(cse.C))
	}

	// The portfolio races it like any built-in and reports telemetry
	// under its name.
	res, err := portfolio.Solve(context.Background(), cse.C, cse.CS, portfolio.Options{
		Backends: []string{"greedy", "toy-reverse"},
		Budget:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	solvertest.RequireFeasible(t, cse.C.N, cse.CS, res.Order)
	found := false
	for _, br := range res.Backends {
		if br.Name == "toy-reverse" {
			found = true
			if br.Err != nil || br.Skipped {
				t.Fatalf("toy-reverse did not run: %+v", br)
			}
		}
	}
	if !found {
		t.Fatalf("no toy-reverse telemetry: %+v", res.Backends)
	}

	// GET /solvers on a live service lists it.
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	resp, err := http.Get(ts.URL + "/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Solvers []service.SolverInfo `json:"solvers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var toy *service.SolverInfo
	for i := range body.Solvers {
		if body.Solvers[i].Name == "toy-reverse" {
			toy = &body.Solvers[i]
		}
	}
	if toy == nil {
		t.Fatalf("GET /solvers does not list toy-reverse")
	}
	if toy.Kind != "constructive" || toy.Summary == "" {
		t.Fatalf("toy-reverse catalogue entry malformed: %+v", toy)
	}
}
