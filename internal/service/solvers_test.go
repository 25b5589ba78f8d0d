// Tests for the registry-backed edges of the service: the GET /solvers
// catalogue, 400s with valid sets for unknown backends, 400s for the
// removed backend params on every edge that once accepted them, and the
// always-on cp tail bound as seen through a served proof.
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/greedy"
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
	for _, want := range []string{"greedy", "dp", "bruteforce", "astar", "cp",
		"tabu-b", "tabu-f", "lns", "vns", "anneal"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("/solvers missing %q: %+v", want, body.Solvers)
		}
	}
	if c := byName["cp"]; c.Kind != "exact" || !c.Proves {
		t.Errorf("cp self-description wrong: %+v", c)
	}
	if v := byName["vns"]; v.Kind != "anytime" || v.Proves {
		t.Errorf("vns self-description wrong: %+v", v)
	}
	// The catalogue lists backends in the registry's rank order, the
	// order a sliced race runs them in.
	names := backend.Names()
	if len(body.Solvers) != len(names) {
		t.Fatalf("/solvers lists %d backends, registry has %d", len(body.Solvers), len(names))
	}
	for i, s := range body.Solvers {
		if s.Name != names[i] {
			t.Fatalf("/solvers[%d] = %q, want %q (rank order %v)", i, s.Name, names[i], names)
		}
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

// postRaw posts a literal JSON body and returns the status and body.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestSolveBodyParamsRejected: the removed "params" map in a JSON
// envelope is a 400 naming the field, not a silently ignored knob, on
// every edge that decodes one: the three instance envelopes share
// parseRequest, /batch has a decoder of its own.
func TestSolveBodyParamsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	inst, err := json.Marshal(trapInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	envelope := `{"instance": ` + string(inst) + `, "budget": "5s", "params": {"cp.tail_bound": false}}`
	for _, c := range []struct{ path, body string }{
		{"/solve", envelope},
		{"/jobs", envelope},
		{"/sessions", envelope},
		{"/batch", `{"instances": [` + string(inst) + `], "budget": "5s", "params": {"cp.tail_bound": false}}`},
	} {
		t.Run(strings.TrimPrefix(c.path, "/"), func(t *testing.T) {
			code, raw := postRaw(t, ts.URL+c.path, c.body)
			if code != http.StatusBadRequest || !strings.Contains(raw, `unknown field \"params\"`) {
				t.Fatalf("status %d body %s, want 400 naming the params field", code, raw)
			}
		})
	}
}

// TestSessionDeltaParamsRejected: a session delta's solve knobs reject
// the removed "params" map too.
func TestSessionDeltaParamsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/sessions", solveRequest{
		Instance: sessionInstance(),
		Params:   Params{Budget: Duration(10 * time.Second)},
	})
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("create status %d: %s", resp.StatusCode, raw)
	}
	st := decode[SessionStatus](t, resp)
	code, raw := postRaw(t, ts.URL+"/sessions/"+st.ID+"/delta",
		`{"weights": {"q1": 2}, "params": {"params": {"cp.tail_bound": false}}}`)
	if code != http.StatusBadRequest || !strings.Contains(raw, `unknown field \"params\"`) {
		t.Fatalf("status %d body %s, want 400 naming the params field", code, raw)
	}
}

// TestQueryParamRejected: ?param= is a 400 that says backend params
// are gone, on every edge that reads solve knobs from the query, for
// bare JSON instances and text-format bodies alike, and whatever its
// value.
func TestQueryParamRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := trapInstance(t)
	bare, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := codec.WriteText(&text, in); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, query, ctype string
		body                     []byte
	}{
		{"solve", "/solve", "param=cp.tail_bound%3Dfalse", "application/json", bare},
		{"jobs", "/jobs", "param=cp.tail_bound%3Dfalse", "application/json", bare},
		{"sessions", "/sessions", "param=cp.tail_bound%3Dfalse", "application/json", bare},
		{"text body", "/solve", "param=cp.tail_bound%3Dfalse", "text/plain", text.Bytes()},
		{"empty value", "/solve", "param=", "application/json", bare},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path+"?budget=5s&"+c.query, c.ctype, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "removed") {
				t.Fatalf("status %d body %s, want 400 saying params were removed", resp.StatusCode, raw)
			}
		})
	}
}

// TestQueryStringParams: bare JSON instance bodies carry their knobs in
// the URL query, and they reach the solve: the backend selection and
// budget below make a cp-only proof.
func TestQueryStringParams(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(trapInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve?backends=cp&budget=10s&seed=3",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	res := decode[SolveResult](t, resp)
	if !res.Proved {
		t.Fatal("cp did not prove the trap instance")
	}
	if len(res.Backends) != 1 || res.Backends[0].Name != "cp" {
		t.Fatalf("?backends=cp ran %+v", res.Backends)
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

// TestServedCPProofUsesTailBound: every served cp solve folds the §5.5
// tail bound into its search. On the reduced TPC-H n=13 instance that
// shows as tail prunes, and the proved objective is bit-identical to a
// direct proof of the same canonical instance without the tail bound.
func TestServedCPProofUsesTailBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := datasets.ReducedTPCH(13, datasets.Low)
	resp := postJSON(t, ts.URL+"/solve", solveRequest{Instance: in, Params: Params{
		Budget:   Duration(10 * time.Second),
		Backends: []string{"cp"},
	}})
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	res := decode[SolveResult](t, resp)
	if !res.Proved {
		t.Fatal("cp did not prove the instance")
	}
	if got := backendOf(t, &res, "cp").Counters["pruned_tail"]; got == 0 {
		t.Fatal("served cp proof made no tail prunes")
	}

	canon, _ := codec.Canonicalize(in)
	c := model.MustCompile(canon)
	cs, _ := prune.Analyze(c, prune.Options{})
	ref := cp.Solve(c, cs, cp.Options{Incumbent: greedy.Solve(c, cs)})
	if !ref.Proved || ref.Stats.PrunedTail != 0 {
		t.Fatalf("reference proof: proved=%v pruned_tail=%d", ref.Proved, ref.Stats.PrunedTail)
	}
	if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
		t.Fatalf("served objective %x, tail-free proof %x",
			math.Float64bits(res.Objective), math.Float64bits(ref.Objective))
	}
}
