// Tests for the registry-backed edges of the service: the GET /solvers
// catalogue, 400s with valid sets for unknown backends/params, and the
// end-to-end param plumbing ("params":{"cp.workers":N} must reach the
// cp engine, observable in the Workers telemetry).
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/solver/backend"
)

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
	var workersSpec, tailSpec *SolverParam
	for i, p := range cp.Params {
		switch p.Name {
		case "cp.workers":
			workersSpec = &cp.Params[i]
		case "cp.tail_bound":
			tailSpec = &cp.Params[i]
		}
	}
	if workersSpec == nil {
		t.Fatalf("cp declares no cp.workers param: %+v", cp.Params)
	}
	if workersSpec.Type != "int" || workersSpec.Help == "" {
		t.Errorf("cp.workers spec incomplete: %+v", workersSpec)
	}
	if tailSpec == nil {
		t.Fatalf("cp declares no cp.tail_bound param: %+v", cp.Params)
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
		{"unknown key", map[string]any{"cp.wrokers": 4}, []string{"cp.wrokers", "cp.workers"}},
		{"ill-typed", map[string]any{"cp.workers": "four"}, []string{"cp.workers", "int"}},
		{"ill-typed bool", map[string]any{"cp.tail_bound": "yes"}, []string{"cp.tail_bound", "bool"}},
		{"fractional", map[string]any{"cp.workers": 2.5}, []string{"cp.workers"}},
		{"out of range", map[string]any{"cp.workers": -1}, []string{"cp.workers", "minimum"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			submitExpect400(t, ts.URL, solveRequest{Instance: in,
				Params: Params{Params: c.params}}, c.needles...)
		})
	}
}

// cpWorkersOf digs the cp backend's reported worker count out of a
// solve result.
func cpWorkersOf(t *testing.T, res *SolveResult) int {
	t.Helper()
	for _, b := range res.Backends {
		if b.Name == "cp" {
			return b.Workers
		}
	}
	t.Fatalf("no cp telemetry in %+v", res.Backends)
	return 0
}

func TestParamsReachCPEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := trapInstance(t)
	resp := postJSON(t, ts.URL+"/solve", solveRequest{Instance: in, Params: Params{
		Budget:   Duration(10 * time.Second),
		Backends: []string{"cp"},
		Params:   map[string]any{"cp.workers": 2},
	}})
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	res := decode[SolveResult](t, resp)
	if got := cpWorkersOf(t, &res); got != 2 {
		t.Fatalf("cp ran %d workers, want 2 (params did not reach the engine)", got)
	}
	if !res.Proved {
		t.Error("cp did not prove the trap instance")
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
		ts.URL+"/solve?backends=cp&budget=10s&param=cp.workers%3D2",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	res := decode[SolveResult](t, resp)
	if got := cpWorkersOf(t, &res); got != 2 {
		t.Fatalf("query param: cp ran %d workers, want 2", got)
	}

	// A bad query param fails fast with the valid set.
	resp, err = http.Post(ts.URL+"/solve?param=cp.nope%3D1", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "cp.workers") {
		t.Fatalf("bad query param: status %d body %s", resp.StatusCode, raw)
	}
}

func TestParamsEnterCacheKey(t *testing.T) {
	// Two requests differing only in params must not share a cache
	// entry; identical params must.
	k1 := solveKey("h", Params{}, backend.Params{"cp.workers": 2}, time.Second)
	k2 := solveKey("h", Params{}, backend.Params{"cp.workers": 4}, time.Second)
	k3 := solveKey("h", Params{}, backend.Params{"cp.workers": 2}, time.Second)
	if k1 == k2 {
		t.Fatalf("param bags do not distinguish solve keys: %s", k1)
	}
	if k1 != k3 {
		t.Fatalf("identical bags produced distinct keys: %s vs %s", k1, k3)
	}
}
