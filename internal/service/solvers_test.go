// Tests for the registry-backed edges of the service: the GET /solvers
// catalogue, 400s with valid sets for unknown backends/params, and the
// end-to-end param plumbing ("params":{"cp.tail_bound":false} must reach
// the cp engine, observable in its tail-prune counter).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

func init() { backend.Register(echoBackend{}) }

// echoBackend is a test-only backend with an int param, for the
// validation paths the built-in roster (whose one param is a bool) no
// longer exercises: it returns the greedy order and reports its param
// back as the iteration count. It is never applicable, so it joins no
// default portfolio.
type echoBackend struct{}

// echoParam is echoBackend's int knob.
const echoParam = "echo.iterations"

func (echoBackend) Info() backend.Info {
	f := func(v float64) *float64 { return &v }
	return backend.Info{
		Name:       "echo",
		Kind:       backend.KindConstructive,
		Rank:       99,
		Summary:    "test-only backend: greedy order, param echoed as iterations",
		Applicable: func(*model.Compiled) bool { return false },
		Params: []backend.ParamSpec{
			{Name: echoParam, Type: backend.ParamInt, Default: 0, Min: f(0), Max: f(64),
				Help: "reported back as the iteration count"},
		},
	}
}

func (echoBackend) Solve(_ context.Context, req backend.Request) backend.Outcome {
	order := greedy.Solve(req.Compiled, req.Constraints)
	return backend.Outcome{Order: order, Objective: req.Compiled.Objective(order),
		Iterations: int64(req.Params.Int(echoParam, 0))}
}

func TestSolversEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/solvers")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[struct {
		Solvers []SolverInfo `json:"solvers"`
	}](t, resp)

	byName := map[string]SolverInfo{}
	for _, s := range body.Solvers {
		byName[s.Name] = s
	}
	for _, want := range []string{"greedy", "dp", "bruteforce", "astar", "cp", "mip",
		"tabu-b", "tabu-f", "lns", "vns", "anneal"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("/solvers missing %q: %+v", want, body.Solvers)
		}
	}
	cp := byName["cp"]
	if cp.Kind != "exact" || !cp.Proves {
		t.Errorf("cp self-description wrong: %+v", cp)
	}
	var tailSpec *SolverParam
	for i, p := range cp.Params {
		if p.Name == "cp.tail_bound" {
			tailSpec = &cp.Params[i]
		}
	}
	if len(cp.Params) != 1 || tailSpec == nil {
		t.Fatalf("cp must declare exactly cp.tail_bound: %+v", cp.Params)
	}
	if tailSpec.Type != "bool" || tailSpec.Help == "" || tailSpec.Default != true {
		t.Errorf("cp.tail_bound spec incomplete (want bool, default true): %+v", tailSpec)
	}
	if byName["vns"].FinisherRank <= byName["lns"].FinisherRank {
		t.Errorf("vns must outrank lns as finisher: %d vs %d",
			byName["vns"].FinisherRank, byName["lns"].FinisherRank)
	}
}

// submitExpect400 posts a job request and asserts a 400 whose error
// body contains every needle (the "valid set" contract).
func submitExpect400(t *testing.T, url string, req solveRequest, needles ...string) {
	t.Helper()
	resp := postJSON(t, url+"/jobs", req)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
	}
	for _, n := range needles {
		if !strings.Contains(string(raw), n) {
			t.Errorf("400 body missing %q: %s", n, raw)
		}
	}
}

func TestSubmitRejectsUnknownBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := trapInstance(t)
	// The error must name the offender and list the valid backends so a
	// client can self-correct without reading the docs.
	submitExpect400(t, ts.URL, solveRequest{Instance: in,
		Params: Params{Backends: []string{"cp", "simplex-magic"}}},
		"simplex-magic", "cp", "vns", "greedy")
}

func TestSubmitRejectsBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := trapInstance(t)
	cases := []struct {
		name    string
		params  map[string]any
		needles []string
	}{
		{"unknown key", map[string]any{"cp.tail_bund": true}, []string{"cp.tail_bund", "cp.tail_bound"}},
		{"removed key", map[string]any{"cp.workers": 4}, []string{"cp.workers", "cp.tail_bound"}},
		{"ill-typed", map[string]any{echoParam: "four"}, []string{echoParam, "int"}},
		{"ill-typed bool", map[string]any{"cp.tail_bound": "yes"}, []string{"cp.tail_bound", "bool"}},
		{"fractional", map[string]any{echoParam: 2.5}, []string{echoParam}},
		{"out of range", map[string]any{echoParam: -1}, []string{echoParam, "minimum"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			submitExpect400(t, ts.URL, solveRequest{Instance: in,
				Params: Params{Params: c.params}}, c.needles...)
		})
	}
}

// backendOf digs one backend's telemetry out of a solve result.
func backendOf(t *testing.T, res *SolveResult, name string) BackendSummary {
	t.Helper()
	for _, b := range res.Backends {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no %s telemetry in %+v", name, res.Backends)
	return BackendSummary{}
}

// TestParamsReachCPEngine: cp.tail_bound travels from the request body
// to the engine. On the reduced TPC-H n=13 instance the default tail
// bound prunes, so a request that turns it off must report no tail
// prunes and the same proved optimum.
func TestParamsReachCPEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := datasets.ReducedTPCH(13, datasets.Low)
	solve := func(params map[string]any) SolveResult {
		t.Helper()
		resp := postJSON(t, ts.URL+"/solve", solveRequest{Instance: in, Params: Params{
			Budget:   Duration(10 * time.Second),
			Backends: []string{"cp"},
			Params:   params,
		}})
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		res := decode[SolveResult](t, resp)
		if !res.Proved {
			t.Fatalf("cp did not prove the instance with params %v", params)
		}
		return res
	}
	on := solve(nil)
	off := solve(map[string]any{"cp.tail_bound": false})
	if got := backendOf(t, &on, "cp").Counters["pruned_tail"]; got == 0 {
		t.Fatal("default tail bound made no tail prunes; the instance does not witness the param")
	}
	if got := backendOf(t, &off, "cp").Counters["pruned_tail"]; got != 0 {
		t.Fatalf("cp.tail_bound=false: %d tail prunes (params did not reach the engine)", got)
	}
	if on.Objective != off.Objective {
		t.Fatalf("tail bound changed the proved optimum: %v on, %v off", on.Objective, off.Objective)
	}
}

func TestQueryStringParams(t *testing.T) {
	// Bare-instance bodies carry their knobs in the URL query; repeated
	// param=k=v entries must round-trip into the typed bag.
	_, ts := newTestServer(t, Config{Workers: 1})
	in := trapInstance(t)
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(
		ts.URL+"/solve?backends=echo&budget=10s&param="+echoParam+"%3D7&param=cp.tail_bound%3Dfalse",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	res := decode[SolveResult](t, resp)
	if got := backendOf(t, &res, "echo").Iterations; got != 7 {
		t.Fatalf("query param: echo reported %d, want 7", got)
	}

	// A bad query param fails fast with the valid set.
	resp, err = http.Post(ts.URL+"/solve?param=cp.nope%3D1", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "cp.tail_bound") {
		t.Fatalf("bad query param: status %d body %s", resp.StatusCode, raw)
	}
}

func TestParamsEnterCacheKey(t *testing.T) {
	// Two requests differing only in params must not share a cache
	// entry; identical params must.
	k1 := solveKey("h", Params{}, backend.Params{echoParam: 2}, time.Second)
	k2 := solveKey("h", Params{}, backend.Params{echoParam: 4}, time.Second)
	k3 := solveKey("h", Params{}, backend.Params{echoParam: 2}, time.Second)
	if k1 == k2 {
		t.Fatalf("param bags do not distinguish solve keys: %s", k1)
	}
	if k1 != k3 {
		t.Fatalf("identical bags produced distinct keys: %s vs %s", k1, k3)
	}
}
