package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// trapInstance has a greedy seed ~12% above the proved optimum, so any
// exact backend must publish incumbent improvements before its proof.
func trapInstance(t *testing.T) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	cfg.Queries = 6
	in := randgen.New(rng, cfg)
	c := model.MustCompile(in)
	g := greedy.Solve(c, nil)
	if err := in.ValidOrder(g); err != nil {
		t.Fatal(err)
	}
	return in
}

// slowInstance is large enough that local search burns its whole budget.
func slowInstance(seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 26
	cfg.Queries = 18
	return randgen.New(rng, cfg)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req solveRequest) *http.Response {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// waitState follows the job's event stream until the event that puts
// the job in want (started for running, done for a terminal state) and
// returns the job's status read right after it.
func waitState(t *testing.T, base, id string, want string, timeout time.Duration) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	state := StateQueued
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for state != want && sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", data, err)
		}
		switch ev.Type {
		case EventStarted:
			state = StateRunning
		case EventDone:
			state = ev.State
			if state != want {
				t.Fatalf("job %s reached %q (err %q) while waiting for %q", id, state, ev.Error, want)
			}
		}
	}
	if state != want {
		t.Fatalf("job %s stuck in %q waiting for %q", id, state, want)
	}
	st, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return decode[JobStatus](t, st)
}

func TestSyncSolveJSON(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/solve", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decode[SolveResult](t, resp)
	if !res.Proved {
		t.Fatalf("cp did not prove the 7-index instance: %+v", res)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("returned order invalid: %v", err)
	}
	c := model.MustCompile(in)
	if got := c.Objective(res.Order); got != res.Objective {
		t.Fatalf("objective mismatch: reported %v, recomputed %v", res.Objective, got)
	}
	seed := c.Objective(greedy.Solve(c, nil))
	if res.Objective >= seed {
		t.Fatalf("no improvement over greedy seed: %v vs %v", res.Objective, seed)
	}
	for k, ix := range res.Order {
		if res.Names[k] != in.Indexes[ix].Name {
			t.Fatalf("names[%d]=%q does not match order", k, res.Names[k])
		}
	}
}

func TestSyncSolveTextBody(t *testing.T) {
	in := trapInstance(t)
	var buf bytes.Buffer
	if err := codec.WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/solve?backends=cp&budget=10s", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decode[SolveResult](t, resp)
	if !res.Proved {
		t.Fatalf("text-body solve not proved: %+v", res)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatal(err)
	}
}

// TestSyncSolveBareInstanceJSON posts the instance JSON directly (no
// envelope), the way `curl --data-binary @r13.json` does, with the
// knobs in the query string.
func TestSyncSolveBareInstanceJSON(t *testing.T) {
	in := trapInstance(t)
	var buf bytes.Buffer
	if err := codec.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/solve?backends=cp&budget=10s", "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decode[SolveResult](t, resp)
	if !res.Proved {
		t.Fatalf("bare-instance solve not proved: %+v", res)
	}
}

func TestSolveRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"no-instance": `{}`,
		"bad-json":    `{"instance": nope`,
		"bad-field":   `{"instance": {"indexes": [], "queries": []}, "nonsense": 1}`,
		"invalid-instance": `{"instance": {"indexes": [{"name": "a", "create_cost": -1}],
			"queries": [], "plans": []}}`,
		"unknown-backend": `{"instance": {"indexes": [{"name": "a", "create_cost": 1}],
			"queries": [], "plans": []}, "backends": ["quantum"]}`,
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	// Occupy the only worker so the job under test is provably still
	// queued when POST /jobs answers: a cp proof this small could
	// otherwise finish before the handler reads its status (200, not
	// 202).
	blocker := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: slowInstance(31),
		Params:   Params{Backends: []string{"vns"}, Budget: Duration(30 * time.Second)},
	}))
	waitState(t, ts.URL, blocker.ID, StateRunning, 10*time.Second)

	resp := postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	st := decode[JobStatus](t, resp)
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("submit status missing id/hash: %+v", st)
	}

	cancelReq, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+blocker.ID, nil)
	cancelResp, err := http.DefaultClient.Do(cancelReq)
	if err != nil {
		t.Fatal(err)
	}
	cancelResp.Body.Close()
	if cancelResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: status %d", cancelResp.StatusCode)
	}

	final := waitState(t, ts.URL, st.ID, StateDone, 15*time.Second)
	if final.Result == nil || !final.Result.Proved {
		t.Fatalf("final job status lacks a proved result: %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatal("missing timestamps")
	}
	if err := in.ValidOrder(final.Result.Order); err != nil {
		t.Fatal(err)
	}
	if final.Events < 3 {
		t.Fatalf("only %d events recorded", final.Events)
	}

	// Unknown job: 404.
	r404, err := http.Get(ts.URL + "/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", r404.StatusCode)
	}
}

// TestCacheHitOnIdenticalInstance solves, then resubmits the same
// problem relabeled — the canonical hash must route it to the cache and
// translate the cached order back into the new labeling.
func TestCacheHitOnIdenticalInstance(t *testing.T) {
	in := trapInstance(t)
	s, ts := newTestServer(t, Config{Workers: 2})
	params := Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)}

	first := decode[SolveResult](t, postJSON(t, ts.URL+"/solve", solveRequest{Instance: in, Params: params}))
	if first.CacheHit {
		t.Fatal("first solve claims a cache hit")
	}

	// Reverse the index order (and remap references) — same problem.
	rev := make([]int, len(in.Indexes))
	for i := range rev {
		rev[i] = len(rev) - 1 - i
	}
	qid := make([]int, len(in.Queries))
	for q := range qid {
		qid[q] = q
	}
	relabeled := relabelInstance(in, rev, qid)

	second := decode[SolveResult](t, postJSON(t, ts.URL+"/solve", solveRequest{Instance: relabeled, Params: params}))
	if !second.CacheHit {
		t.Fatalf("relabeled resubmission missed the cache: %+v", second)
	}
	if err := relabeled.ValidOrder(second.Order); err != nil {
		t.Fatalf("cached order not translated into request space: %v", err)
	}
	if second.Objective != first.Objective {
		t.Fatalf("cached objective %v != original %v", second.Objective, first.Objective)
	}

	mt := s.Manager().Metrics()
	if mt.Cache.Hits != 1 || mt.Solves.Count != 1 {
		t.Fatalf("metrics: hits=%d solves=%d, want 1/1", mt.Cache.Hits, mt.Solves.Count)
	}
	// Different budget must NOT share the cached answer.
	params2 := params
	params2.Budget = Duration(9 * time.Second)
	third := decode[SolveResult](t, postJSON(t, ts.URL+"/solve", solveRequest{Instance: in, Params: params2}))
	if third.CacheHit {
		t.Fatal("different budget shared a cache entry")
	}
}

// relabelInstance permutes index and query positions, remapping all
// references (test helper mirroring the codec property test).
func relabelInstance(in *model.Instance, iperm, qperm []int) *model.Instance {
	out := &model.Instance{
		Name:    in.Name,
		Indexes: make([]model.Index, len(in.Indexes)),
		Queries: make([]model.Query, len(in.Queries)),
	}
	for i, ix := range in.Indexes {
		out.Indexes[iperm[i]] = ix
	}
	for q, qu := range in.Queries {
		out.Queries[qperm[q]] = qu
	}
	for _, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = iperm[i]
		}
		out.Plans = append(out.Plans, model.Plan{Query: qperm[p.Query], Indexes: idx, Speedup: p.Speedup})
	}
	for _, b := range in.BuildInteractions {
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: iperm[b.Target], Helper: iperm[b.Helper], Speedup: b.Speedup,
		})
	}
	for _, pr := range in.Precedences {
		out.Precedences = append(out.Precedences, model.Precedence{
			Before: iperm[pr.Before], After: iperm[pr.After],
		})
	}
	return out
}

// TestSingleFlightDedup is the acceptance check: two simultaneous
// identical job submissions share exactly one underlying portfolio run.
func TestSingleFlightDedup(t *testing.T) {
	in := slowInstance(5)
	s, ts := newTestServer(t, Config{Workers: 2})
	params := Params{Backends: []string{"vns"}, Budget: Duration(1500 * time.Millisecond), Seed: 9}

	var ids [2]string
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/jobs", solveRequest{Instance: in, Params: params})
			st := decode[JobStatus](t, resp)
			ids[k] = st.ID
		}()
	}
	wg.Wait()
	if ids[0] == "" || ids[1] == "" || ids[0] == ids[1] {
		t.Fatalf("bad job ids: %v", ids)
	}

	var results [2]*SolveResult
	for k, id := range ids {
		st := waitState(t, ts.URL, id, StateDone, 20*time.Second)
		results[k] = st.Result
	}
	mt := s.Manager().Metrics()
	if mt.Solves.Count != 1 {
		t.Fatalf("identical concurrent jobs ran %d solves, want 1", mt.Solves.Count)
	}
	if mt.SingleFlightAttached != 1 {
		t.Fatalf("singleflight_attached = %d, want 1", mt.SingleFlightAttached)
	}
	if results[0].Objective != results[1].Objective {
		t.Fatalf("shared solve produced different objectives: %v vs %v",
			results[0].Objective, results[1].Objective)
	}
	if !results[0].Shared || !results[1].Shared {
		t.Fatalf("jobs not marked shared: %+v %+v", results[0], results[1])
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  Event
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSSEEventOrdering is the acceptance check for streaming progress:
// the event stream is queued → started → (incumbent improvements, with
// at least one) → proved → terminal done, with contiguous sequence
// numbers, and every incumbent improves on the previous.
func TestSSEEventOrdering(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	})
	st := decode[JobStatus](t, resp)

	stream, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, stream.Body) // returns at stream close (terminal event)

	if len(events) < 4 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	for k, ev := range events {
		if ev.data.Seq != k {
			t.Fatalf("event %d has seq %d", k, ev.data.Seq)
		}
		if ev.event != ev.data.Type {
			t.Fatalf("SSE event name %q != payload type %q", ev.event, ev.data.Type)
		}
	}
	if events[0].event != EventQueued {
		t.Fatalf("first event %q, want queued", events[0].event)
	}
	if events[1].event != EventStarted {
		t.Fatalf("second event %q, want started", events[1].event)
	}
	last := events[len(events)-1]
	if last.event != EventDone || last.data.State != StateDone {
		t.Fatalf("terminal event %+v", last)
	}

	incumbents := 0
	lastObj := 0.0
	sawProof := false
	for _, ev := range events {
		switch ev.event {
		case EventIncumbent:
			if sawProof {
				t.Fatal("incumbent event after proof")
			}
			if ev.data.Objective == nil {
				t.Fatal("incumbent event without objective")
			}
			if incumbents > 0 && *ev.data.Objective >= lastObj {
				t.Fatalf("non-improving incumbent: %v after %v", *ev.data.Objective, lastObj)
			}
			lastObj = *ev.data.Objective
			if err := in.ValidOrder(ev.data.Order); err != nil {
				t.Fatalf("incumbent order invalid in request space: %v", err)
			}
			incumbents++
		case EventProved:
			sawProof = true
		case EventDone:
			if incumbents == 0 {
				t.Fatal("terminal done before any incumbent event")
			}
		}
	}
	if incumbents == 0 || !sawProof {
		t.Fatalf("incumbents=%d proof=%t", incumbents, sawProof)
	}

	// Replay from an offset: Last-Event-ID resumes after the given seq.
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	replay, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	tail := readSSE(t, replay.Body)
	if len(tail) != len(events)-2 {
		t.Fatalf("replay from id 1 returned %d events, want %d", len(tail), len(events)-2)
	}
	if tail[0].data.Seq != 2 {
		t.Fatalf("replay starts at seq %d", tail[0].data.Seq)
	}
}

func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long := Params{Backends: []string{"vns"}, Budget: Duration(10 * time.Second)}

	a := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{Instance: slowInstance(11), Params: long}))
	waitState(t, ts.URL, a.ID, StateRunning, 10*time.Second)

	b := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{Instance: slowInstance(12), Params: long}))

	resp := postJSON(t, ts.URL+"/jobs", solveRequest{Instance: slowInstance(13), Params: long})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	mt := s.Manager().Metrics()
	if mt.Jobs.Rejected != 1 {
		t.Fatalf("rejected = %d", mt.Jobs.Rejected)
	}
	// Free the worker quickly.
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

func TestCancelMidSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	st := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: slowInstance(21),
		Params:   Params{Backends: []string{"vns"}, Budget: Duration(30 * time.Second)},
	}))
	waitState(t, ts.URL, st.ID, StateRunning, 10*time.Second)

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	got := decode[JobStatus](t, resp)
	if got.State != StateCanceled {
		t.Fatalf("state after cancel: %q", got.State)
	}

	// The event stream of a canceled job terminates with done/canceled.
	stream, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, stream.Body)
	stream.Body.Close()
	last := events[len(events)-1]
	if last.event != EventDone || last.data.State != StateCanceled {
		t.Fatalf("terminal event of canceled job: %+v", last)
	}

	// Second cancel: 409.
	resp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status %d, want 409", resp2.StatusCode)
	}

	// The canceled run must release its worker well before the 30s
	// budget: a fresh fast job completes promptly.
	fast := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: trapInstance(t),
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	}))
	waitState(t, ts.URL, fast.ID, StateDone, 15*time.Second)

	mt := s.Manager().Metrics()
	if mt.Jobs.Canceled != 1 {
		t.Fatalf("canceled = %d", mt.Jobs.Canceled)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	body := decode[map[string]string](t, resp)
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mt := decode[MetricsSnapshot](t, mresp)
	if mt.Workers != 1 || mt.QueueCap == 0 {
		t.Fatalf("metrics snapshot: %+v", mt)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: trapInstance(t),
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	}))

	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		close(done)
	}()

	// Draining: healthz degrades and new submissions bounce with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/jobs", solveRequest{Instance: slowInstance(31)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	<-done
	// The in-flight job was drained to completion, not dropped.
	final, ok := s.Manager().Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	fs := final.Status()
	if fs.State != StateDone {
		t.Fatalf("drained job state %q: %+v", fs.State, fs)
	}
}

// TestFinishedJobEviction: terminal jobs beyond the retention cap are
// dropped (oldest first) so the job map cannot grow without bound.
func TestFinishedJobEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxFinishedJobs: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	params := Params{Backends: []string{"greedy"}, Budget: Duration(time.Second)}
	var ids []string
	for k := 0; k < 3; k++ {
		j, err := m.Submit(trapInstance(t), params)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest finished job not evicted at cap 2")
	}
	for _, id := range ids[1:] {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	for in, want := range map[string]time.Duration{
		`"1.5s"`:  1500 * time.Millisecond,
		`"250ms"`: 250 * time.Millisecond,
		`2`:       2 * time.Second,
		`0.5`:     500 * time.Millisecond,
	} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if time.Duration(d) != want {
			t.Errorf("%s -> %v, want %v", in, time.Duration(d), want)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"soon"`), &d); err == nil {
		t.Error("bad duration accepted")
	}
	buf, err := json.Marshal(Duration(time.Second))
	if err != nil || string(buf) != `"1s"` {
		t.Errorf("marshal: %s, %v", buf, err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU[*SolveResult](2)
	r := func(obj float64) *SolveResult { return &SolveResult{Objective: obj} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	c.put("a", r(9)) // overwrite keeps size
	if c.len() != 2 {
		t.Fatalf("len after overwrite = %d", c.len())
	}
	if v, _ := c.get("a"); v.Objective != 9 {
		t.Fatalf("overwrite lost: %v", v.Objective)
	}
}

func BenchmarkSubmitCacheHit(b *testing.B) {
	in := slowInstance(1)
	m := NewManager(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	j, err := m.Submit(in, Params{Backends: []string{"greedy"}, Budget: Duration(time.Second)})
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := m.Submit(in, Params{Backends: []string{"greedy"}, Budget: Duration(time.Second)})
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if !j.Status().Result.CacheHit {
			b.Fatal("missed cache")
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
