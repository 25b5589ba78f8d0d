package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func waitDone(t *testing.T, j *Job, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s not done after %v (state %q)", j.ID, timeout, j.Status().State)
	}
	return j.Status()
}

// waitEvent blocks until src logs an event that match accepts, failing
// the test when src turns terminal first or timeout passes.
func waitEvent(t *testing.T, src eventSource, timeout time.Duration, match func(Event) bool) {
	t.Helper()
	for seq, deadline := 0, time.After(timeout); ; {
		evs, terminal, notify := src.eventsSince(seq)
		if slices.ContainsFunc(evs, match) {
			return
		}
		if terminal {
			t.Fatalf("event stream ended without the awaited event")
		}
		seq += len(evs)
		select {
		case <-notify:
		case <-deadline:
			t.Fatalf("awaited event not logged within %v", timeout)
		}
	}
}

// TestTenantFairScheduling is the starvation regression: one tenant
// floods the queue with 20 budget-burning jobs, then a second tenant
// submits 4. Under the old single FIFO the quiet tenant's jobs would
// wait behind the entire flood (queue wait ≈ the flooder's worst); with
// deficit round-robin they interleave, so the quiet tenant's worst
// queue wait must come in far below the flooder's.
func TestTenantFairScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scheduling test")
	}
	m := newTestManager(t, Config{
		Workers:       1,
		DefaultBudget: 50 * time.Millisecond,
		QueueCap:      64,
	})
	p := Params{Backends: []string{"vns"}, Budget: Duration(50 * time.Millisecond)}

	var noisy, quiet []*Job
	for i := 0; i < 20; i++ {
		p := p
		p.Tenant = "noisy"
		p.Seed = int64(i) // distinct solve keys: no dedup, no cache
		j, err := m.Submit(slowInstance(int64(i)), p)
		if err != nil {
			t.Fatal(err)
		}
		noisy = append(noisy, j)
	}
	for i := 0; i < 4; i++ {
		p := p
		p.Tenant = "quiet"
		p.Seed = int64(100 + i)
		j, err := m.Submit(slowInstance(int64(100+i)), p)
		if err != nil {
			t.Fatal(err)
		}
		quiet = append(quiet, j)
	}

	maxWait := func(jobs []*Job) time.Duration {
		var max time.Duration
		for _, j := range jobs {
			st := waitDone(t, j, 30*time.Second)
			if st.State != StateDone {
				t.Fatalf("job %s ended %q: %s", j.ID, st.State, st.Error)
			}
			if w := st.StartedAt.Sub(st.QueuedAt); w > max {
				max = w
			}
		}
		return max
	}
	noisyMax := maxWait(noisy)
	quietMax := maxWait(quiet)
	t.Logf("queue wait: noisy max %v, quiet max %v", noisyMax, quietMax)

	// Under FIFO the quiet tenant (submitted last) waits at least as
	// long as the flood's tail — the ratio would be ~1. DRR interleaves
	// one quiet run per noisy run, so the quiet tail sees only ~2× its
	// own backlog.
	if quietMax > noisyMax*6/10 {
		t.Errorf("quiet tenant starved: quiet max wait %v vs noisy max %v", quietMax, noisyMax)
	}
}

// TestTenantRateLimit: the token bucket rejects the burst+1'th
// submission with ErrRateLimited, tenants have independent buckets, and
// a batch is charged atomically (an over-limit batch is rejected whole,
// not half-admitted).
func TestTenantRateLimit(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, TenantRate: 0.001, TenantBurst: 2})
	p := Params{Backends: []string{"greedy"}, Budget: Duration(50 * time.Millisecond)}

	for i := 0; i < 2; i++ {
		p := p
		p.Tenant = "a"
		p.Seed = int64(i)
		if _, err := m.Submit(slowInstance(int64(i)), p); err != nil {
			t.Fatalf("submission %d within burst rejected: %v", i, err)
		}
	}
	p3 := p
	p3.Tenant = "a"
	p3.Seed = 99
	if _, err := m.Submit(slowInstance(99), p3); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst submission: err = %v, want ErrRateLimited", err)
	}
	pb := p
	pb.Tenant = "b"
	if _, err := m.Submit(slowInstance(7), pb); err != nil {
		t.Fatalf("tenant b throttled by tenant a's bucket: %v", err)
	}

	// Batch atomicity: tenant c has 2 tokens, a 3-instance batch must be
	// rejected in full.
	pc := p
	pc.Tenant = "c"
	_, err := m.SubmitBatch([]*model.Instance{slowInstance(1), slowInstance(2), slowInstance(3)}, pc)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-limit batch: err = %v, want ErrRateLimited", err)
	}
	// ...and the rejection must not have burned the tokens.
	pc2 := pc
	pc2.Seed = 42
	if _, err := m.Submit(slowInstance(42), pc2); err != nil {
		t.Fatalf("tenant c's tokens consumed by rejected batch: %v", err)
	}
}

// TestTenantQueueQuota: a tenant's queued runs are capped independently
// of the shared queue.
func TestTenantQueueQuota(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, TenantQueueCap: 2, QueueCap: 64})
	p := Params{Backends: []string{"vns"}, Budget: Duration(2 * time.Second), Tenant: "hog"}

	// One run occupies the worker; once it leaves the queue, the next two
	// fill the tenant's quota. Submission 4 must bounce while another
	// tenant still fits.
	var jobs []*Job
	j0, err := m.Submit(slowInstance(0), p)
	if err != nil {
		t.Fatalf("submission 0: %v", err)
	}
	jobs = append(jobs, j0)
	// A worker pops a run off the queue before its jobs emit started.
	waitEvent(t, j0, 5*time.Second, func(ev Event) bool { return ev.Type == EventStarted })
	for i := 1; i < 3; i++ {
		p := p
		p.Seed = int64(i)
		j, err := m.Submit(slowInstance(int64(i)), p)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	p4 := p
	p4.Seed = 99
	if _, err := m.Submit(slowInstance(99), p4); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("over-quota submission: err = %v, want ErrTenantQueueFull", err)
	}
	other := p
	other.Tenant = "guest"
	other.Seed = 50
	if _, err := m.Submit(slowInstance(50), other); err != nil {
		t.Fatalf("other tenant blocked by hog's quota: %v", err)
	}
	for _, j := range jobs {
		_ = m.Cancel(j.ID)
	}
}

// TestFastPathServiceConformance: a default-backends solve of a small
// instance is served by the fast path (Routed) through A*, a forced
// full-portfolio solve of the identical instance returns the
// bit-identical objective, and instances across the routing threshold
// behave as documented (n=12 routed, n=13 raced). A raced n=14 solve
// runs first: routing must not depend on what earlier races observed.
// This is the service-level guarantee that routing never changes
// results, only latency.
func TestFastPathServiceConformance(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxBudget: 60 * time.Second})

	// Above the threshold the race runs even with default backends.
	for _, n := range []int{14, 13} {
		j, err := m.Submit(datasets.ReducedTPCH(n, datasets.Low), Params{Budget: Duration(2 * time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		st := waitDone(t, j, 30*time.Second)
		if st.Result != nil && st.Result.Routed {
			t.Errorf("n=%d instance routed past the n=12 threshold", n)
		}
	}

	for _, n := range []int{6, 11, 12} {
		in := datasets.ReducedTPCH(n, datasets.Low)
		c := model.MustCompile(in)
		forced := backend.Default(c) // the exact set the race would use

		routedJob, err := m.Submit(in, Params{Budget: Duration(30 * time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		routedSt := waitDone(t, routedJob, 45*time.Second)
		if routedSt.State != StateDone {
			t.Fatalf("n=%d: routed job %q: %s", n, routedSt.State, routedSt.Error)
		}
		if !routedSt.Result.Routed {
			t.Errorf("n=%d: default solve not served by the fast path", n)
		}
		if routedSt.Result.Winner != "astar" {
			t.Errorf("n=%d: fast path served by %q, want astar", n, routedSt.Result.Winner)
		}
		if !routedSt.Result.Proved {
			t.Errorf("n=%d: routed solve carries no proof", n)
		}

		racedJob, err := m.Submit(in, Params{
			Budget: Duration(30 * time.Second), Backends: forced,
		})
		if err != nil {
			t.Fatal(err)
		}
		racedSt := waitDone(t, racedJob, 45*time.Second)
		if racedSt.State != StateDone {
			t.Fatalf("n=%d: raced job %q: %s", n, racedSt.State, racedSt.Error)
		}
		if racedSt.Result.Routed {
			t.Errorf("n=%d: explicit backend list must disable routing", n)
		}
		if routedSt.Result.Objective != racedSt.Result.Objective {
			t.Errorf("n=%d: routed objective %v != raced objective %v",
				n, routedSt.Result.Objective, racedSt.Result.Objective)
		}
	}

	snap := m.Metrics()
	if snap.FastPath.Routed != 3 || snap.FastPath.ByBackend["astar"] != 3 {
		t.Errorf("fastpath routed counter = %d (by backend %v), want 3, all astar",
			snap.FastPath.Routed, snap.FastPath.ByBackend)
	}
}

// TestFastPathRetriesAfterUnprovedAttempts: routing keeps no memory of
// earlier outcomes. Every step-limited request that A* cannot prove
// pays its own routed attempt before falling back to the race, and a
// later unrestricted request of an instance that fell back is still
// routed to A*.
func TestFastPathRetriesAfterUnprovedAttempts(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})

	// Distinct sizes give distinct structures, so no request is served
	// from the result cache or warm-seeded by an earlier one.
	sizes := []int{8, 9, 10}
	for _, n := range sizes {
		j, err := m.Submit(datasets.ReducedTPCH(n, datasets.Low), Params{Budget: Duration(10 * time.Second), StepLimit: 5})
		if err != nil {
			t.Fatal(err)
		}
		st := waitDone(t, j, 15*time.Second)
		if st.State != StateDone {
			t.Fatalf("n=%d: job %q: %s", n, st.State, st.Error)
		}
		if st.Result.Routed {
			t.Errorf("n=%d: step-limited solve reported as routed", n)
		}
	}
	if got := m.Metrics().FastPath.Fallback; got != int64(len(sizes)) {
		t.Errorf("fastpath fallback counter = %d, want %d (one per request)", got, len(sizes))
	}

	j, err := m.Submit(datasets.ReducedTPCH(10, datasets.Low), Params{Budget: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j, 15*time.Second)
	if st.State != StateDone {
		t.Fatalf("unrestricted job %q: %s", st.State, st.Error)
	}
	if !st.Result.Routed || !st.Result.Proved {
		t.Errorf("unrestricted solve after fallbacks: routed=%v proved=%v, want a routed proof",
			st.Result.Routed, st.Result.Proved)
	}
	snap := m.Metrics()
	if snap.FastPath.Routed != 1 || snap.FastPath.ByBackend["astar"] != 1 ||
		snap.FastPath.Fallback != int64(len(sizes)) {
		t.Errorf("fastpath counters routed=%d (by backend %v) fallback=%d, want 1 astar and %d",
			snap.FastPath.Routed, snap.FastPath.ByBackend, snap.FastPath.Fallback, len(sizes))
	}
}

// TestTenantHeaderAndMetrics: the X-Tenant header attributes the job,
// shows up in the job status, the flight-recorder trace, the JSON
// metrics snapshot, and the Prometheus text exposition.
func TestTenantHeaderAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	buf, _ := json.Marshal(solveRequest{Instance: trapInstance(t),
		Params: Params{Budget: Duration(5 * time.Second)}})
	req, _ := http.NewRequest("POST", ts.URL+"/solve", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[MetricsSnapshot](t, mresp)
	if snap.Tenants["acme"].Submitted != 1 || snap.Tenants["acme"].Completed != 1 {
		t.Errorf("tenant snapshot = %+v, want 1 submitted + 1 completed for acme", snap.Tenants)
	}

	preq, _ := http.NewRequest("GET", ts.URL+"/metrics?format=prometheus", nil)
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	for _, want := range []string{
		`idd_tenant_jobs_submitted_total{tenant="acme"} 1`,
		`idd_tenant_jobs_completed_total{tenant="acme"} 1`,
		`idd_tenant_queue_wait_seconds_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
}

// TestTenantValidation: bad tenant ids are 400s, not label bombs.
func TestTenantValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	for _, bad := range []string{`a"b`, "a b", "x\n", strings.Repeat("t", 65), "héllo"} {
		_, err := m.Submit(trapInstance(t), Params{Tenant: bad})
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Errorf("tenant %q accepted (err=%v), want InvalidError", bad, err)
		}
	}
}

// readSSEN parses exactly limit events off an open SSE stream and
// returns without waiting for the stream to close — for tests that
// deliberately drop a connection mid-stream.
func readSSEN(t *testing.T, body io.Reader, limit int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
				if len(out) >= limit {
					return out
				}
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
	return out
}

// TestBatchEndToEnd: POST /batch fans instances out, per-item jobs are
// individually addressable, the aggregate status reaches done with
// per-item objectives, the SSE stream carries item events plus a
// terminal batch_done, and the trace endpoint returns one sub-solve
// timeline per item.
func TestBatchEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := trapInstance(t)
	buf, _ := json.Marshal(map[string]any{
		"instances": []*model.Instance{in, in, slowInstance(5)},
		"budget":    "3s",
		"tenant":    "batcher",
	})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	st := decode[BatchStatus](t, resp)
	if st.Tenant != "batcher" || len(st.Items) != 3 {
		t.Fatalf("batch status %+v", st)
	}

	// The SSE stream must deliver one item event per instance and then
	// batch_done: 1 queued + 3 items + 1 batch_done.
	evResp, err := http.Get(ts.URL + "/batch/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	items := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.event != EventItem || ev.data.Item == nil || ev.data.JobID == "" {
			t.Errorf("middle event not a complete item event: %+v", ev)
			continue
		}
		items++
	}
	if items != 3 {
		t.Errorf("item events = %d, want 3", items)
	}
	if last := events[len(events)-1]; last.event != EventBatchDone {
		t.Errorf("last event %+v, want batch_done", last)
	}

	// Aggregate status: done, every item done with an objective, and the
	// two identical instances must agree (dedup/cache may serve one).
	resp, err = http.Get(ts.URL + "/batch/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := decode[BatchStatus](t, resp)
	if final.State != "done" || final.Remaining != 0 {
		t.Fatalf("final batch %+v", final)
	}
	for _, it := range final.Items {
		if it.State != StateDone || it.Objective == nil {
			t.Errorf("item %d: %+v", it.Index, it)
		}
		// Each item is a real job with its own endpoints.
		jr, err := http.Get(ts.URL + "/jobs/" + it.JobID)
		if err != nil {
			t.Fatal(err)
		}
		js := decode[JobStatus](t, jr)
		if js.State != StateDone || js.Tenant != "batcher" {
			t.Errorf("item %d job: state %q tenant %q", it.Index, js.State, js.Tenant)
		}
	}
	if *final.Items[0].Objective != *final.Items[1].Objective {
		t.Errorf("identical instances disagree: %v vs %v",
			*final.Items[0].Objective, *final.Items[1].Objective)
	}

	// Per-sub-solve traces.
	trResp, err := http.Get(ts.URL + "/batch/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr BatchTrace
	if err := json.NewDecoder(trResp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	trResp.Body.Close()
	if len(tr.Items) != 3 {
		t.Fatalf("trace items = %d, want 3", len(tr.Items))
	}
	for i, item := range tr.Items {
		if item.ID == "" || len(item.Spans) == 0 {
			t.Errorf("trace item %d empty: %+v", i, item)
		}
	}
}

// TestBatchReplayAndCancel: reconnecting a batch SSE stream with
// Last-Event-ID replays only events after the cursor, and DELETE on a
// batch aborts every outstanding sub-solve promptly — far faster than
// letting their budgets run out.
func TestBatchReplayAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 30 * time.Second})
	buf, _ := json.Marshal(map[string]any{
		"instances": []*model.Instance{slowInstance(11), slowInstance(12), slowInstance(13)},
		"budget":    "20s",
		"backends":  []string{"vns"},
	})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	st := decode[BatchStatus](t, resp)

	// First connection: read the queued event (seq 0), then drop.
	evResp, err := http.Get(ts.URL + "/batch/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	first := readSSEN(t, evResp.Body, 1)
	evResp.Body.Close()
	if len(first) != 1 || first[0].event != EventQueued || first[0].id != "0" {
		t.Fatalf("first event %+v, want queued seq 0", first)
	}

	// Cancel the whole batch; the sub-solves have ~60s of budget left
	// between them, so a prompt terminal state proves cancellation
	// propagated into the running solve.
	start := time.Now()
	req, _ := http.NewRequest("DELETE", ts.URL+"/batch/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	// Reconnect with Last-Event-ID: 0 — the stream must pick up at seq 1
	// and run to batch_done without re-delivering seq 0.
	req, _ = http.NewRequest("GET", ts.URL+"/batch/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "0")
	evResp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	replayed := readSSE(t, evResp.Body)
	evResp.Body.Close()
	elapsed := time.Since(start)

	if elapsed > 10*time.Second {
		t.Errorf("batch cancellation took %v; budgets were 20s each, want prompt abort", elapsed)
	}
	if len(replayed) != 4 {
		t.Fatalf("replayed %d events, want 4 (3 items + batch_done): %+v", len(replayed), replayed)
	}
	for i, ev := range replayed {
		if ev.id != fmt.Sprint(i+1) {
			t.Errorf("replayed event %d has seq %s, want %d (no re-delivery of seq 0)", i, ev.id, i+1)
		}
	}
	for _, ev := range replayed[:3] {
		if ev.event != EventItem || ev.data.State != StateCanceled {
			t.Errorf("item event %+v, want canceled item", ev)
		}
	}
	if replayed[3].event != EventBatchDone {
		t.Errorf("terminal event %+v, want batch_done", replayed[3])
	}

	final := decode[BatchStatus](t, func() *http.Response {
		r, err := http.Get(ts.URL + "/batch/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}())
	if final.State != "done" {
		t.Errorf("batch state %q after cancel, want done", final.State)
	}
	for _, it := range final.Items {
		if it.State != StateCanceled {
			t.Errorf("item %d state %q, want canceled", it.Index, it.State)
		}
	}
}

// TestBatchValidation: empty and oversized batches are 400s, unknown
// batch ids 404.
func TestBatchValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBatchItems: 2})
	for body, want := range map[string]int{
		`{"instances": []}`: http.StatusBadRequest,
		`{"nope": 1}`:       http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	in := trapInstance(t)
	if _, err := s.Manager().SubmitBatch([]*model.Instance{in, in, in}, Params{}); err == nil {
		t.Error("3-item batch accepted with MaxBatchItems=2")
	}
	resp, err := http.Get(ts.URL + "/batch/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch: status %d, want 404", resp.StatusCode)
	}
}
