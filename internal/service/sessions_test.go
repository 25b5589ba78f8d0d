package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
)

// sessionInstance is a small workload a session can evolve: big enough
// that ordering matters, small enough that every re-solve proves.
func sessionInstance() *model.Instance {
	return &model.Instance{
		Name: "sess",
		Indexes: []model.Index{
			{Name: "a", CreateCost: 4},
			{Name: "b", CreateCost: 6},
			{Name: "c", CreateCost: 5},
			{Name: "d", CreateCost: 3},
		},
		Queries: []model.Query{
			{Name: "q1", Runtime: 100},
			{Name: "q2", Runtime: 80},
		},
		Plans: []model.Plan{
			{Query: 0, Indexes: []int{0}, Speedup: 40},
			{Query: 0, Indexes: []int{1, 2}, Speedup: 60},
			{Query: 1, Indexes: []int{3}, Speedup: 30},
		},
	}
}

func postDelta(t *testing.T, url string, d SessionDelta) *http.Response {
	t.Helper()
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionLifecycleHTTP is the acceptance round-trip: create a
// session from an initial solve, apply weight / structural / built
// deltas (each re-solved warm-started), read the changed-tail SSE
// replay, and close.
func TestSessionLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/sessions", solveRequest{
		Instance: sessionInstance(),
		Params:   Params{Budget: Duration(10 * time.Second)},
	})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	st := decode[SessionStatus](t, resp)
	if st.Revision != 0 || st.State != "active" || len(st.Plan) != 4 {
		t.Fatalf("fresh session %+v", st)
	}
	base := ts.URL + "/sessions/" + st.ID

	// Weight-only drift: the index set is unchanged, so the repaired
	// warm seed is the previous plan itself.
	resp = postDelta(t, base+"/delta", SessionDelta{Weights: map[string]float64{"q1": 5}})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	d1 := decode[SessionDeltaResult](t, resp)
	if d1.Revision != 1 {
		t.Fatalf("revision %d after first delta", d1.Revision)
	}
	if d1.Result == nil || !d1.Result.WarmStarted {
		t.Fatalf("weight-only delta not warm-started: %+v", d1.Result)
	}
	if !reflect.DeepEqual(d1.Tail, d1.Plan[d1.TailFrom:]) {
		t.Fatalf("tail %v inconsistent with plan %v from %d", d1.Tail, d1.Plan, d1.TailFrom)
	}

	// Structural drift: add an index with a plan, drop one.
	d2 := decode[SessionDeltaResult](t, postDelta(t, base+"/delta", SessionDelta{
		AddIndexes:  []model.Index{{Name: "e", CreateCost: 2}},
		AddPlans:    []SessionPlan{{Query: "q2", Indexes: []string{"e"}, Speedup: 20}},
		DropIndexes: []string{"d"},
	}))
	if d2.Revision != 2 || len(d2.Plan) != 4 {
		t.Fatalf("after add/drop delta: %+v", d2)
	}
	plan := strings.Join(d2.Plan, ",")
	if !strings.Contains(plan, "e") || strings.Contains(plan, "d") {
		t.Fatalf("plan %v should contain e and not d", d2.Plan)
	}

	// Mark the first planned index as built: it leaves the plan.
	built := d2.Plan[0]
	d3 := decode[SessionDeltaResult](t, postDelta(t, base+"/delta", SessionDelta{Built: []string{built}}))
	if d3.Revision != 3 || len(d3.Plan) != 3 {
		t.Fatalf("after built delta: %+v", d3)
	}
	for _, name := range d3.Plan {
		if name == built {
			t.Fatalf("built index %q still planned: %v", built, d3.Plan)
		}
	}
	if len(d3.Built) != 1 || d3.Built[0] != built {
		t.Fatalf("built list %v, want [%s]", d3.Built, built)
	}

	// Close; the event stream turns terminal and further deltas 409.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	closed := decode[SessionStatus](t, cresp)
	if closed.State != "closed" {
		t.Fatalf("state %q after close", closed.State)
	}
	if resp := postDelta(t, base+"/delta", SessionDelta{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta on closed session: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/sessions/nope"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Full SSE replay: plan, one delta per revision (tail-only names),
	// terminal session_closed.
	stream, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := readSSE(t, stream.Body)
	types := make([]string, len(events))
	for k, ev := range events {
		types[k] = ev.event
		if ev.data.Seq != k {
			t.Fatalf("event %d has seq %d", k, ev.data.Seq)
		}
	}
	want := []string{EventPlan, EventDelta, EventDelta, EventDelta, EventSessionClosed}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	if n := len(events[0].data.Names); n != 4 {
		t.Fatalf("plan event carries %d names", n)
	}
	for k, ev := range events[1:4] {
		if ev.data.Revision == nil || *ev.data.Revision != k+1 {
			t.Fatalf("delta event %d revision %v", k, ev.data.Revision)
		}
		if ev.data.TailFrom == nil {
			t.Fatalf("delta event %d has no tail_from", k)
		}
	}
	if ev := events[1].data; !ev.WarmStarted {
		t.Fatalf("weight-only delta event not warm-started: %+v", ev)
	}
}

// TestSessionDeltaValidation exercises the error surface: unknown
// sessions, unknown name references, and rejected structural patches.
func TestSessionDeltaValidation(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	if _, err := m.SessionDelta(context.Background(), "nope", SessionDelta{}); err != ErrUnknownSession {
		t.Fatalf("unknown session: %v", err)
	}
	s, err := m.CreateSession(context.Background(), sessionInstance(),
		Params{Budget: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]SessionDelta{
		"unknown weight query": {Weights: map[string]float64{"zz": 2}},
		"unknown drop index":   {DropIndexes: []string{"zz"}},
		"unknown drop query":   {DropQueries: []string{"zz"}},
		"duplicate add index":  {AddIndexes: []model.Index{{Name: "a", CreateCost: 1}}},
		"unknown plan index":   {AddPlans: []SessionPlan{{Query: "q1", Indexes: []string{"zz"}, Speedup: 1}}},
		"unknown built index":  {Built: []string{"zz"}},
		"unknown precedence":   {AddPrecedences: []SessionPrecedence{{Before: "a", After: "zz"}}},
	} {
		var inv *InvalidError
		if _, err := m.SessionDelta(context.Background(), s.ID, d); err == nil {
			t.Fatalf("%s: delta accepted", name)
		} else if !errors.As(err, &inv) {
			t.Fatalf("%s: error %v is not an InvalidError", name, err)
		}
		// A rejected delta must not advance the session.
		if got := s.Status(); got.Revision != 0 {
			t.Fatalf("%s: rejected delta bumped revision to %d", name, got.Revision)
		}
	}
}

// TestClosedSessionReleasesInstance: closing keeps everything Status
// reports — plan, built set, revision, result — but drops the workload,
// which only a delta would read and a closed session rejects deltas.
func TestClosedSessionReleasesInstance(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	s, err := m.CreateSession(context.Background(), sessionInstance(),
		Params{Budget: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	head := s.Status().Plan[0]
	if _, err := m.SessionDelta(context.Background(), s.ID, SessionDelta{Built: []string{head}}); err != nil {
		t.Fatal(err)
	}
	before := s.Status()
	if _, err := m.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	after := s.Status()
	if after.State != "closed" || after.Revision != 1 || after.Result != before.Result ||
		!reflect.DeepEqual(after.Plan, before.Plan) || !reflect.DeepEqual(after.Built, []string{head}) {
		t.Fatalf("closing changed the status:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := m.SessionDelta(context.Background(), s.ID, SessionDelta{}); err != ErrSessionClosed {
		t.Fatalf("delta on closed session: %v, want ErrSessionClosed", err)
	}
	s.mu.Lock()
	held := s.instance
	s.mu.Unlock()
	if held != nil {
		t.Fatal("closed session still holds its instance")
	}
}

// TestWarmStartNeverWorseThanSeed is the warm-start contract as a
// property: the portfolio offers the (repaired) seed to the incumbent
// store before any backend runs, so a warm-started result can never be
// worse than its seed — here checked against randomly shuffled feasible
// seeds over random instances.
func TestWarmStartNeverWorseThanSeed(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	noPrune := false
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 10
		cfg.Queries = 8
		in := randgen.New(rng, cfg)

		// A deliberately bad prior: the reversed index list, repaired to
		// feasibility the same way a session delta repairs its plan.
		prior := make([]string, in.N())
		for i := range prior {
			prior[i] = in.Indexes[in.N()-1-i].Name
		}
		warm, err := evolve.RepairOrder(in, prior)
		if err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		c := model.MustCompile(in)
		pos := map[string]int{}
		for i, ix := range in.Indexes {
			pos[ix.Name] = i
		}
		order := make([]int, len(warm))
		for k, name := range warm {
			order[k] = pos[name]
		}
		if !compatibleOrder(in, order) {
			t.Fatalf("seed %d: repaired order infeasible", seed)
		}
		seedObj := c.Objective(order)

		j, err := m.SubmitWarm(in, Params{
			Budget: Duration(5 * time.Second), StepLimit: 2000,
			Seed: seed, Prune: &noPrune,
		}, warm)
		if err != nil {
			t.Fatalf("seed %d: submit: %v", seed, err)
		}
		<-j.Done()
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("seed %d: job %s: %s", seed, st.State, st.Error)
		}
		if !st.Result.WarmStarted {
			t.Fatalf("seed %d: result not warm-started", seed)
		}
		if st.Result.Objective > seedObj+1e-9 {
			t.Fatalf("seed %d: warm result %.6f worse than its seed %.6f",
				seed, st.Result.Objective, seedObj)
		}
	}
}

func compatibleOrder(in *model.Instance, order []int) bool {
	return sched.PrecedenceSet(in).Compatible(order)
}

// TestWarmVsColdProvedBitIdentical: on instances the exact backend
// proves, a warm start changes the path, never the answer — the proved
// optima agree to the last bit.
func TestWarmVsColdProvedBitIdentical(t *testing.T) {
	in := trapInstance(t)
	m := NewManager(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	p := Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)}

	cold, err := m.Submit(in, p)
	if err != nil {
		t.Fatal(err)
	}
	<-cold.Done()
	cst := cold.Status()
	if cst.State != StateDone || !cst.Result.Proved {
		t.Fatalf("cold solve: %+v", cst)
	}

	prior := make([]string, in.N())
	for i := range prior {
		prior[i] = in.Indexes[in.N()-1-i].Name
	}
	warmNames, err := evolve.RepairOrder(in, prior)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.SubmitWarm(in, p, warmNames)
	if err != nil {
		t.Fatal(err)
	}
	<-warm.Done()
	wst := warm.Status()
	if wst.State != StateDone || !wst.Result.Proved {
		t.Fatalf("warm solve: %+v", wst)
	}
	if wst.Result.CacheHit {
		t.Fatal("warm solve dedup'd against the cold solve despite the warm key")
	}
	if math.Float64bits(cst.Result.Objective) != math.Float64bits(wst.Result.Objective) {
		t.Fatalf("proved optima differ: cold %v, warm %v",
			cst.Result.Objective, wst.Result.Objective)
	}
}

// TestWarmHintOnWeightDrift: a request whose float parameters drifted
// misses the full solve key but hits the structural-hash hint table, so
// it runs warm-started from the previous order without the client
// saying anything.
func TestWarmHintOnWeightDrift(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	p := Params{Budget: Duration(10 * time.Second)}

	j1, err := m.Submit(sessionInstance(), p)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if st := j1.Status(); st.State != StateDone {
		t.Fatalf("first solve: %+v", st)
	}

	drifted := sessionInstance()
	drifted.Queries[0].Weight = 3 // float drift only: same structure
	j2, err := m.Submit(drifted, p)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("drifted solve: %+v", st)
	}
	if st.Result.CacheHit {
		t.Fatal("drifted request hit the exact cache; the hint path never ran")
	}
	if !st.Result.WarmStarted {
		t.Fatal("drifted request not warm-started from the structural hint")
	}
	if got := m.metrics.warmHintHits.Value(); got != 1 {
		t.Fatalf("warm hint hits = %d, want 1", got)
	}
}

// TestWarmRejectedDegradesToCold drives the defensive path directly: a
// warm seed the repairer cannot fix degrades the run to a cold start —
// the job still completes, the rejection is counted and traced.
func TestWarmRejectedDegradesToCold(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	in := sessionInstance()
	canon, perm := codec.Canonicalize(in)
	origOf := make([]int, len(perm))
	for i, c := range perm {
		origOf[c] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID: "warm-rej", hash: "h", tenant: DefaultTenant, origOf: origOf,
		state: StateQueued, done: make(chan struct{}),
		queuedAt: time.Now(), trace: obs.NewTrace(),
	}
	r := &run{
		key: "warm-rej-key", canon: canon,
		params: Params{StepLimit: 500}, budget: 2 * time.Second,
		structHash: "warm-rej-struct",
		initial:    []int{0}, // wrong length: unrepairable by construction
		tenant:     DefaultTenant, ctx: ctx, cancel: cancel,
	}
	r.jobs = []*Job{j}
	j.run = r
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.mu.Unlock()

	m.execute(r)
	<-j.Done()
	st := j.Status()
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("degraded job: %+v", st)
	}
	if st.Result.WarmStarted {
		t.Fatal("rejected seed still marked warm-started")
	}
	if got := m.metrics.warmRejected.Value(); got != 1 {
		t.Fatalf("warm rejections = %d, want 1", got)
	}
	snap := j.TraceSnapshot()
	found := false
	for _, sp := range snap.Spans {
		if sp.Kind == obs.SpanWarmStart && strings.Contains(sp.Detail, "rejected") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s rejection span in trace: %+v", obs.SpanWarmStart, snap.Spans)
	}
}

// TestSubmitWarmValidation: malformed warm orders are client errors,
// not degraded runs.
func TestSubmitWarmValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	in := sessionInstance()
	for name, warm := range map[string][]string{
		"empty":    nil,
		"short":    {"a", "b"},
		"unknown":  {"a", "b", "c", "zz"},
		"repeated": {"a", "b", "c", "a"},
	} {
		_, err := m.SubmitWarm(in, Params{}, warm)
		var inv *InvalidError
		if err == nil {
			t.Fatalf("%s warm order accepted", name)
		} else if !errors.As(err, &inv) {
			t.Fatalf("%s warm order: error %v is not an InvalidError", name, err)
		}
	}
}
