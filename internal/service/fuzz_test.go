package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
)

// fuzzRoutes are the request routes FuzzSolveBody posts to, picked by
// the input's route byte.
var fuzzRoutes = []string{"/solve", "/jobs", "/batch"}

// FuzzSolveBody posts an arbitrary body, query string and content type
// to POST /solve, /jobs or /batch: no input panics the server, and each
// answer is a 4xx or a valid result, an order that is feasible for the
// instance the request carried (every batch item's, once it is done).
// Instances are capped at 8 indexes and budgets at 50ms, so every
// accepted solve is short.
func FuzzSolveBody(f *testing.F) {
	s := New(Config{Workers: 1, MaxIndexes: 8, DefaultBudget: 50 * time.Millisecond,
		MaxBudget: 50 * time.Millisecond, MaxBatchItems: 4})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	cfg := randgen.DefaultConfig()
	cfg.Indexes, cfg.Queries, cfg.PrecedenceProb = 5, 4, 0.2
	in := randgen.New(rand.New(rand.NewSource(3)), cfg)
	var js, text bytes.Buffer
	if err := codec.WriteJSON(&js, in); err != nil {
		f.Fatal(err)
	}
	if err := codec.WriteText(&text, in); err != nil {
		f.Fatal(err)
	}
	envelope := func(params string) []byte {
		return []byte(`{"instance": ` + js.String() + params + `}`)
	}
	f.Add(uint8(0), "", envelope(`, "budget": "20ms", "step_limit": 100`))
	f.Add(uint8(1), "", envelope(`, "backends": ["greedy", "cp"], "workers": 2, "seed": 7`))
	f.Add(uint8(0), "budget=10ms&backends=vns&step_limit=50", js.Bytes())
	f.Add(uint8(1), "budget=10ms&seed=3&prune=false&priority=2", text.Bytes())
	f.Add(uint8(2), "", []byte(`{"instances": [`+js.String()+`, `+js.String()+`], "budget": "10ms"}`))
	f.Add(uint8(2), "", []byte(`{"instances": [null, {"indexes": []}], "step_limit": 10}`))
	f.Add(uint8(0), "", envelope(`, "budget": "-1s", "step_limit": -5, "workers": -3`))
	f.Add(uint8(0), "", envelope(`, "backends": ["nope"]`))
	f.Add(uint8(0), "param=x", js.Bytes())
	f.Add(uint8(3), "", []byte(`{"instance": null, "bogus": 1}`))
	f.Add(uint8(4), "budget=zz", []byte("index a 1\nquery q 5\nplan q 2 a\n"))
	f.Add(uint8(0), "", []byte(`not a body`))
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		newReq := func() *http.Request {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.URL.RawQuery = query
			if route&4 != 0 {
				req.Header.Set("Content-Type", "application/json")
			}
			return req
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, newReq())
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}

		switch path {
		case "/solve":
			var res SolveResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			checkFuzzResult(t, requestInstance(t, s, newReq()), &res)
		case "/jobs":
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			j, ok := s.m.Get(st.ID)
			if !ok {
				t.Fatalf("accepted job %s unknown", st.ID)
			}
			checkFuzzJob(t, requestInstance(t, s, newReq()), j)
		case "/batch":
			var st BatchStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			b, ok := s.m.GetBatch(st.ID)
			if !ok {
				t.Fatalf("accepted batch %s unknown", st.ID)
			}
			var req batchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("accepted batch body does not decode: %v", err)
			}
			for i, j := range b.Jobs() {
				if j != nil {
					checkFuzzJob(t, req.Instances[i], j)
				}
			}
		}
	})
}

// requestInstance parses req as the solve routes do; the request was
// accepted, so it must parse.
func requestInstance(t *testing.T, s *Server, req *http.Request) *model.Instance {
	t.Helper()
	in, _, err := s.parseRequest(httptest.NewRecorder(), req)
	if err != nil {
		t.Fatalf("accepted request does not parse: %v", err)
	}
	return in
}

// checkFuzzJob waits for j and checks that it ended with a valid result
// for in.
func checkFuzzJob(t *testing.T, in *model.Instance, j *Job) {
	t.Helper()
	st := waitDone(t, j, 10*time.Second)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job ended %+v", st)
	}
	checkFuzzResult(t, in, st.Result)
}

// checkFuzzResult checks that res is a feasible order of in, named by
// in's index names.
func checkFuzzResult(t *testing.T, in *model.Instance, res *SolveResult) {
	t.Helper()
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("result order %v: %v", res.Order, err)
	}
	for k, ix := range res.Order {
		if k >= len(res.Names) || res.Names[k] != in.Indexes[ix].Name {
			t.Fatalf("result names %v do not name order %v", res.Names, res.Order)
		}
	}
}

// FuzzSessionDelta decodes an arbitrary session-delta body the way
// POST /sessions/{id}/delta does and applies it to a fixed instance:
// no input panics, each either fails or yields an instance that
// validates, and the session's instance is never mutated.
func FuzzSessionDelta(f *testing.F) {
	base := sessionInstance()
	base.Precedences = append(base.Precedences, model.Precedence{Before: 0, After: 2})
	base.BuildInteractions = append(base.BuildInteractions, model.BuildInteraction{Target: 1, Helper: 3, Speedup: 0.5})
	before := cloneInstance(base)
	f.Add([]byte(`{"weights": {"q1": 2.5}}`))
	f.Add([]byte(`{"drop_indexes": ["a"], "drop_queries": ["q2"]}`))
	f.Add([]byte(`{"add_indexes": [{"name": "z", "create_cost": 3}], "add_queries": [{"name": "qz", "runtime": 9}],
		"add_plans": [{"query": "qz", "indexes": ["z", "a"], "speedup": 4}],
		"add_precedences": [{"before": "z", "after": "b"}]}`))
	f.Add([]byte(`{"add_precedences": [{"before": "b", "after": "a"}, {"before": "a", "after": "b"}]}`))
	f.Add([]byte(`{"add_plans": [{"query": "q2", "indexes": ["a", "a"], "speedup": -1}]}`))
	f.Add([]byte(`{"drop_indexes": ["a", "a", "nope"]}`))
	f.Add([]byte(`{"add_queries": [{"name": "q2", "runtime": 1}], "weights": {"q2": 0}}`))
	f.Add([]byte(`{"built": ["a"], "params": {"budget": "1s"}}`))
	f.Add([]byte(`{"bogus": true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var d SessionDelta
		if dec.Decode(&d) != nil {
			return
		}
		out, err := applySessionDelta(base, d)
		if !reflect.DeepEqual(base, before) {
			t.Fatalf("delta %s mutated the session's instance", body)
		}
		if err != nil {
			var inv *InvalidError
			if !errors.As(err, &inv) {
				t.Fatalf("delta %s: %v is not a client error", body, err)
			}
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("delta %s yields an invalid instance: %v", body, err)
		}
		if _, err := model.Compile(out); err != nil {
			t.Fatalf("delta %s yields an instance that does not compile: %v", body, err)
		}
	})
}
