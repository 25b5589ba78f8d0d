package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func init() { backend.Register(panicky{}) }

// panicky panics on every solve. It is applicable to nothing, so it
// never joins a default roster; only a request that names it runs it.
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

// TestServedBackendPanicContained: a request naming a panicking backend
// next to greedy is answered 200 with greedy's order and the panic as
// that backend's error, and the server goes on serving.
func TestServedBackendPanicContained(t *testing.T) {
	in := trapInstance(t)
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	solve := func(backends string) SolveResult {
		t.Helper()
		resp, err := http.Post(ts.URL+"/solve?backends="+backends, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("backends=%s: status %d: %s", backends, resp.StatusCode, msg)
		}
		return decode[SolveResult](t, resp)
	}

	got := solve("panicky,greedy")
	var perr string
	for _, b := range got.Backends {
		if b.Name == "panicky" {
			perr = b.Error
		}
	}
	if !strings.Contains(perr, "backend panicky panicked: boom") {
		t.Errorf("panicky backend error %q", perr)
	}

	// The server survived: a greedy-only solve runs, and it is the order
	// the panicking request was answered with.
	want := solve("greedy")
	if !slices.Equal(got.Order, want.Order) || got.Objective != want.Objective {
		t.Errorf("answered %v (%v), greedy alone gives %v (%v)", got.Order, got.Objective, want.Order, want.Objective)
	}

	// The contained panic is counted once, against the backend that
	// panicked, in an exposition that passes the strict lint.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintExposition(string(text)); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	for _, want := range []string{
		"# TYPE idd_backend_panics_total counter",
		`idd_backend_panics_total{backend="panicky"} 1`,
	} {
		if !strings.Contains(string(text), want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(string(text), `idd_backend_panics_total{backend="greedy"}`) {
		t.Error("greedy counted as panicked")
	}
}
