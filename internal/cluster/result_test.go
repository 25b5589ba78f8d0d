package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

// FuzzResultFrame posts an arbitrary body to /cluster/result, then
// solves a fixed n=6 instance on the same node: no body panics the
// node, the frame is answered 204 or 400, and the solve answers 200
// with a valid order of the instance, whatever the cache holds.
func FuzzResultFrame(f *testing.F) {
	n, err := New(Config{Self: "127.0.0.1:1"}, service.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Server().Shutdown(ctx)
	})
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 6
	cfg.PrecedenceProb = 0.2
	in := randgen.New(rand.New(rand.NewSource(5)), cfg)
	body := solveBody(f, in, map[string]any{"budget": "5s"})

	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	// The first solve's replication frame names the solve key the
	// seeds below forge results for (no loop drains it: Start is not
	// called).
	if rec := serve("/solve", body); rec.Code != http.StatusOK {
		f.Fatalf("solve status %d: %s", rec.Code, rec.Body)
	}
	var honest resultMsg
	if err := json.Unmarshal(<-n.bcast, &honest); err != nil {
		f.Fatal(err)
	}
	frame := func(res service.SolveResult) []byte {
		b, err := json.Marshal(resultMsg{Key: honest.Key, Result: &res})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	honestFrame := frame(*honest.Result)
	f.Add(frame(service.SolveResult{Order: make([]int, 6), Objective: 1, Proved: true}))
	f.Add(frame(service.SolveResult{Order: []int{99}, Objective: 1}))
	f.Add(honestFrame)
	f.Add(frame(service.SolveResult{Order: []int{5, 4, 3, 2, 1, 0}, Objective: -1, Proved: true}))
	// Frames from older peers carry a stamp and a node name too; they
	// still decode.
	older := []byte(`{"key":"` + honest.Key + `","node":"peer","clock":18446744073709551615,"result":{"order":[0,1,2,3,4,5]}}`)
	if rec := serve("/cluster/result", older); rec.Code != http.StatusNoContent {
		f.Fatalf("older peer's frame: status %d, want 204", rec.Code)
	}
	serve("/cluster/result", honestFrame)
	f.Add(older)
	f.Add([]byte(`{"key":"` + honest.Key + `","result":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, frame []byte) {
		// Every input starts from the same node state (the honest entry
		// cached, no queued replication), so its coverage does not
		// depend on the inputs before it.
		defer func() {
			serve("/cluster/result", honestFrame)
			for len(n.bcast) > 0 {
				<-n.bcast
			}
		}()
		if rec := serve("/cluster/result", frame); rec.Code != http.StatusNoContent && rec.Code != http.StatusBadRequest {
			t.Fatalf("frame status %d for %q", rec.Code, frame)
		}
		rec := serve("/solve", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve after frame %q: status %d: %s", frame, rec.Code, rec.Body)
		}
		var res service.SolveResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("solve after frame %q: %v", frame, err)
		}
	})
}
