package service

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/obs"
)

// TestTraceReplaysIncumbents is the flight-recorder acceptance check: a
// completed job's trace must replay the exact incumbent sequence the
// SSE stream reported (same objectives, same order), bracketed by
// queued/started at the front and proved/done at the back, and include
// the backend-start spans the SSE wire format deliberately omits.
func TestTraceReplaysIncumbents(t *testing.T) {
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
	events := readSSE(t, stream.Body) // returns at terminal event

	var sseObjectives []float64
	for _, ev := range events {
		if ev.event == EventIncumbent {
			sseObjectives = append(sseObjectives, *ev.data.Objective)
		}
	}
	if len(sseObjectives) == 0 {
		t.Fatal("trap instance produced no incumbent events")
	}

	tresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr := decode[JobTrace](t, tresp)
	if tr.ID != st.ID || tr.State != StateDone {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Spans) < 5 {
		t.Fatalf("only %d spans: %+v", len(tr.Spans), tr.Spans)
	}
	if tr.Spans[0].Kind != obs.SpanQueued || tr.Spans[1].Kind != obs.SpanStarted {
		t.Fatalf("trace does not open with queued+started: %+v", tr.Spans[:2])
	}
	last := tr.Spans[len(tr.Spans)-1]
	if last.Kind != obs.SpanDone || last.Objective == nil || last.Detail != StateDone {
		t.Fatalf("terminal span %+v", last)
	}

	var traceObjectives []float64
	sawBackendStart, sawProved := false, false
	prevSeq, prevElapsed := 0, -1.0
	for _, sp := range tr.Spans {
		if sp.Seq <= prevSeq {
			t.Fatalf("span seq not increasing: %d after %d", sp.Seq, prevSeq)
		}
		if sp.ElapsedMS < prevElapsed {
			t.Fatalf("span time went backwards: %v after %v", sp.ElapsedMS, prevElapsed)
		}
		prevSeq, prevElapsed = sp.Seq, sp.ElapsedMS
		switch sp.Kind {
		case obs.SpanBackendStart:
			if sp.Backend == "" {
				t.Fatal("backend-start span without backend")
			}
			sawBackendStart = true
		case obs.SpanIncumbent:
			if sp.Objective == nil {
				t.Fatal("incumbent span without objective")
			}
			traceObjectives = append(traceObjectives, *sp.Objective)
		case obs.SpanProved:
			sawProved = true
		}
	}
	if !sawBackendStart {
		t.Fatal("trace has no backend-start span (SSE omits these; the trace must not)")
	}
	if !sawProved {
		t.Fatal("trace has no proved span")
	}
	if len(traceObjectives) != len(sseObjectives) {
		t.Fatalf("trace has %d incumbents, SSE reported %d", len(traceObjectives), len(sseObjectives))
	}
	for k := range traceObjectives {
		if traceObjectives[k] != sseObjectives[k] {
			t.Fatalf("incumbent %d: trace %v != SSE %v", k, traceObjectives[k], sseObjectives[k])
		}
	}
}

// TestTraceCacheHit: a job answered from the cache still gets a
// coherent (if short) trace: queued → started → cache-hit → done.
func TestTraceCacheHit(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	p := Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)}

	first := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{Instance: in, Params: p}))
	waitState(t, ts.URL, first.ID, StateDone, 15*time.Second)
	second := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{Instance: in, Params: p}))

	tresp, err := http.Get(ts.URL + "/jobs/" + second.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr := decode[JobTrace](t, tresp)
	var kinds []string
	for _, sp := range tr.Spans {
		kinds = append(kinds, sp.Kind)
	}
	want := []string{obs.SpanQueued, obs.SpanStarted, obs.SpanCacheHit, obs.SpanDone}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("cache-hit trace %v, want %v", kinds, want)
	}
}

// TestTraceFastPathFallback: a routed A* attempt that cannot prove
// under the request's step limit falls back to the race, and the job
// trace says so with one fastpath span before the race's backends start.
func TestTraceFastPathFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	st := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: datasets.ReducedTPCH(10, datasets.Low),
		Params:   Params{Budget: Duration(10 * time.Second), StepLimit: 50},
	}))
	done := waitState(t, ts.URL, st.ID, StateDone, 15*time.Second)
	if done.Result == nil || done.Result.Routed {
		t.Fatalf("step-limited solve reported as routed: %+v", done.Result)
	}
	if got := s.Manager().Metrics().FastPath.Fallback; got != 1 {
		t.Errorf("fastpath fallback counter = %d, want 1", got)
	}

	tresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr := decode[JobTrace](t, tresp)
	fallbacks, raced := 0, false
	for _, sp := range tr.Spans {
		switch {
		case sp.Kind == obs.SpanFastPath:
			fallbacks++
			if sp.Backend != "astar" || !strings.Contains(sp.Detail, "race") {
				t.Errorf("fastpath span %+v, want backend astar and a race detail", sp)
			}
			if raced {
				t.Error("fastpath span recorded after the race started")
			}
		case sp.Kind == obs.SpanBackendStart && sp.Backend != "astar":
			raced = true
		}
	}
	if fallbacks != 1 || !raced {
		t.Fatalf("trace has %d fastpath spans (want 1), race started %v: %+v",
			fallbacks, raced, tr.Spans)
	}
}

// TestTraceSpansBoundedByEvents: a job's trace is at most about twice
// its event log. Spans beyond the events are backend starts, each with
// a matching backend event, plus at most one each of warm-start,
// fastpath and cache-hit, so a trace holds at most 2·len(events)+3
// spans: for a fast-path proof, a race, a fast-path fallback, a warm
// start and a cache hit.
func TestTraceSpansBoundedByEvents(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	small, slow := trapInstance(t), slowInstance(5)
	raceParams := Params{Budget: Duration(10 * time.Second), StepLimit: 200, Seed: 1}
	race := solveDone(t, m, slow, raceParams, nil)
	for _, tc := range []struct {
		name   string
		submit func() (*Job, error)
		want   string // the span kind the case must record
		routed bool
	}{
		{"fast-path proof", func() (*Job, error) {
			return m.Submit(small, Params{Budget: Duration(10 * time.Second)})
		}, obs.SpanProved, true},
		{"race", func() (*Job, error) {
			return m.Submit(slow, Params{Budget: Duration(10 * time.Second), StepLimit: 200, Seed: 2})
		}, obs.SpanBackendStart, false},
		{"fast-path fallback", func() (*Job, error) {
			return m.Submit(datasets.ReducedTPCH(10, datasets.Low),
				Params{Budget: Duration(10 * time.Second), StepLimit: 50})
		}, obs.SpanFastPath, false},
		{"warm start", func() (*Job, error) {
			return m.SubmitWarm(slow, raceParams, race.Names)
		}, obs.SpanWarmStart, false},
		{"cache hit", func() (*Job, error) {
			return m.Submit(small, Params{Budget: Duration(10 * time.Second)})
		}, obs.SpanCacheHit, true},
	} {
		j, err := tc.submit()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := waitDone(t, j, 20*time.Second)
		if st.State != StateDone || st.Result.Routed != tc.routed {
			t.Fatalf("%s: job ended %+v, want routed %v", tc.name, st, tc.routed)
		}
		events, _, _ := j.eventsSince(0)
		spans := j.TraceSnapshot().Spans
		if len(spans) > 2*len(events)+3 {
			t.Errorf("%s: %d spans for %d events, want at most %d",
				tc.name, len(spans), len(events), 2*len(events)+3)
		}
		backendEvents := map[string]int{}
		for _, ev := range events {
			if ev.Type == EventBackend {
				backendEvents[ev.Backend]++
			}
		}
		kinds := map[string]int{}
		starts := map[string]int{}
		for _, sp := range spans {
			kinds[sp.Kind]++
			if sp.Kind == obs.SpanBackendStart {
				starts[sp.Backend]++
			}
		}
		for name, n := range starts {
			if n > backendEvents[name] {
				t.Errorf("%s: %d backend-start spans for %s, %d backend events",
					tc.name, n, name, backendEvents[name])
			}
		}
		for _, kind := range []string{obs.SpanWarmStart, obs.SpanFastPath, obs.SpanCacheHit} {
			if kinds[kind] > 1 {
				t.Errorf("%s: %d %s spans, want at most 1", tc.name, kinds[kind], kind)
			}
		}
		if kinds[tc.want] == 0 {
			t.Errorf("%s: no %s span in %+v", tc.name, tc.want, spans)
		}
	}
}

func TestTraceUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsPrometheusText: /metrics speaks the Prometheus text
// exposition format on request, the output survives the strict lint,
// and the latency histograms actually saw the solve.
func TestMetricsPrometheusText(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/solve", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	})
	decode[SolveResult](t, resp)

	for _, fetch := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"query param", func() (*http.Response, error) {
			return http.Get(ts.URL + "/metrics?format=prometheus")
		}},
		{"accept header", func() (*http.Response, error) {
			req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
			req.Header.Set("Accept", "text/plain;version=0.0.4")
			return http.DefaultClient.Do(req)
		}},
	} {
		mresp, err := fetch.do()
		if err != nil {
			t.Fatal(err)
		}
		if ct := mresp.Header.Get("Content-Type"); ct != obs.TextContentType {
			t.Fatalf("%s: Content-Type = %q", fetch.name, ct)
		}
		body, err := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)
		if err := obs.LintExposition(text); err != nil {
			t.Fatalf("%s: exposition lint: %v\n---\n%s", fetch.name, err, text)
		}
		for _, want := range []string{
			"# TYPE idd_queue_wait_seconds histogram",
			"# TYPE idd_solve_wall_seconds histogram",
			"# TYPE idd_request_duration_seconds histogram",
			"idd_solves_total 1",
			"idd_jobs_completed_total 1",
			`idd_backend_wins_total{backend="cp"} 1`,
			`idd_solve_wall_seconds_bucket{le="+Inf"} 1`,
		} {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("%s: exposition missing %q", fetch.name, want)
			}
		}
	}

	// Default (no Accept preference) stays JSON, with the new latency
	// summaries filled in.
	jresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON Content-Type = %q", ct)
	}
	mt := decode[MetricsSnapshot](t, jresp)
	if mt.Solves.Count != 1 || mt.Latency.SolveWall.Count != 1 ||
		mt.Latency.QueueWait.Count != 1 || mt.Latency.E2E.Count != 1 {
		t.Fatalf("latency summaries not recorded: %+v", mt.Latency)
	}
	if mt.Latency.E2E.P99MS <= 0 {
		t.Fatalf("e2e p99 = %v, want > 0", mt.Latency.E2E.P99MS)
	}
	// One solve within the last minute: the sliding-window rate is
	// 1/uptime, strictly positive.
	if mt.Solves.PerSecond <= 0 {
		t.Fatalf("per_second = %v, want > 0", mt.Solves.PerSecond)
	}
}

// TestMetricsFastPathJSON pins the JSON wire shape of /metrics'
// fastpath object: routed, fallback and by_backend, with no learned
// per-class telemetry table, and the counters reflect one routed solve.
func TestMetricsFastPathJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	res := decode[SolveResult](t, postJSON(t, ts.URL+"/solve", solveRequest{
		Instance: datasets.ReducedTPCH(8, datasets.Low),
		Params:   Params{Budget: Duration(10 * time.Second)},
	}))
	if !res.Routed || res.Winner != "astar" {
		t.Fatalf("n=8 default solve: routed=%v winner=%q, want routed astar", res.Routed, res.Winner)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	top := decode[map[string]json.RawMessage](t, resp)
	var fp map[string]json.RawMessage
	if err := json.Unmarshal(top["fastpath"], &fp); err != nil {
		t.Fatalf("fastpath object: %v (%s)", err, top["fastpath"])
	}
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "by_backend,fallback,routed" {
		t.Errorf("fastpath keys = %s, want by_backend,fallback,routed", got)
	}
	var byBackend map[string]int64
	if err := json.Unmarshal(fp["by_backend"], &byBackend); err != nil {
		t.Fatal(err)
	}
	if string(fp["routed"]) != "1" || string(fp["fallback"]) != "0" ||
		len(byBackend) != 1 || byBackend["astar"] != 1 {
		t.Errorf("fastpath = %s, want routed 1, fallback 0, by_backend {astar: 1}", top["fastpath"])
	}
}

// TestBackendCountersSurfaced: the CP engine's prune-cause counters ride
// through the portfolio into the job result's backend summaries and sum
// to the engine's total fail count.
func TestBackendCountersSurfaced(t *testing.T) {
	in := trapInstance(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/solve", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	})
	res := decode[SolveResult](t, resp)
	var cp *BackendSummary
	for k := range res.Backends {
		if res.Backends[k].Name == "cp" {
			cp = &res.Backends[k]
		}
	}
	if cp == nil {
		t.Fatalf("no cp summary in %+v", res.Backends)
	}
	c := cp.Counters
	if c == nil {
		t.Fatal("cp summary has no counters")
	}
	if c["nodes"] <= 0 {
		t.Fatalf("counters = %v, want nodes > 0", c)
	}
	if got := c["pruned_incumbent"] + c["pruned_tail"] + c["pruned_memo"] + c["infeasible"]; got != c["fails"] {
		t.Fatalf("prune causes sum to %d, fails = %d (counters %v)", got, c["fails"], c)
	}
}
