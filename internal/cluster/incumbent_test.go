package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/cp"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// liveSolveKey is the solve key the incumbent-frame tests register a
// live solve under.
const liveSolveKey = "live"

// incumbentNode is a node whose peer protocol handlers are driven
// directly (no listeners, no loops), with one live solve registered
// through the same Distributor hook the job manager uses.
type incumbentNode struct {
	n     *Node
	c     *model.Compiled
	store *portfolio.Store
	seed  []int // a feasible order of the live solve's instance
}

func newIncumbentNode(tb testing.TB) *incumbentNode {
	tb.Helper()
	n, err := New(Config{Self: "127.0.0.1:1"}, service.Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Server().Shutdown(ctx)
	})
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 6
	cfg.PrecedenceProb = 0.2
	in := randgen.New(rand.New(rand.NewSource(5)), cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	store := portfolio.NewStore(c.N, cs)
	distributor{n}.SolveStarted(service.SolveStart{Key: liveSolveKey, Compiled: c, Constraints: cs, Store: store})
	return &incumbentNode{n: n, c: c, store: store, seed: greedy.Solve(c, cs)}
}

// post sends one /cluster/incumbent body and returns the status code.
func (in *incumbentNode) post(body []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/cluster/incumbent", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	in.n.Handler().ServeHTTP(rec, req)
	return rec.Code
}

func frame(t testing.TB, key string, order []int, obj float64) []byte {
	return stampedFrame(t, key, order, obj, 1)
}

func stampedFrame(t testing.TB, key string, order []int, obj float64, clock uint64) []byte {
	t.Helper()
	b, err := json.Marshal(incumbentMsg{Key: key, Inc: Incumbent{Objective: obj, Order: order, Clock: clock, Node: "peer"}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIncumbentFrameUnderstatedObjective: a feasible order whose frame
// claims a better objective than it has must not reach the live solve's
// store (where it would become the answer under the false value) nor
// the LWW table; the same order with its true objective is adopted.
func TestIncumbentFrameUnderstatedObjective(t *testing.T) {
	in := newIncumbentNode(t)
	truth := in.c.Objective(in.seed)
	if code := in.post(frame(t, liveSolveKey, in.seed, truth/2)); code != http.StatusBadRequest {
		t.Fatalf("understated objective: status %d, want 400", code)
	}
	if order, _, _ := in.store.Best(); order != nil {
		t.Fatalf("understated frame reached the store: %v", order)
	}
	if _, ok := in.n.incs.get(liveSolveKey); ok {
		t.Fatal("understated frame entered the LWW table")
	}

	if code := in.post(frame(t, liveSolveKey, in.seed, truth)); code != http.StatusNoContent {
		t.Fatalf("honest frame: status %d, want 204", code)
	}
	order, obj, owner := in.store.Best()
	if order == nil || obj != truth || owner != "cluster" {
		t.Fatalf("honest frame not adopted: order %v objective %v owner %q, want objective %v", order, obj, owner, truth)
	}
}

// TestIncumbentFrameMalformed: frames that cannot be an incumbent of any
// instance are rejected before they touch the LWW table, live solve or
// not.
func TestIncumbentFrameMalformed(t *testing.T) {
	in := newIncumbentNode(t)
	for name, body := range map[string][]byte{
		"not a permutation": frame(t, "other", []int{0, 0, 1}, 1),
		"out of range":      frame(t, "other", []int{0, 3, 1}, 1),
		"empty order":       []byte(`{"key":"other","incumbent":{"objective":1,"order":[]}}`),
		"no order":          []byte(`{"key":"other","incumbent":{"objective":1}}`),
		"no key":            frame(t, "", []int{0}, 1),
		"overflow":          []byte(`{"key":"other","incumbent":{"objective":1e999,"order":[0]}}`),
		"wrong length":      frame(t, liveSolveKey, []int{1, 0}, 1),
	} {
		if code := in.post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if _, ok := in.n.incs.get("other"); ok {
		t.Fatal("a malformed frame entered the LWW table")
	}
	for _, obj := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if validIncumbent(Incumbent{Objective: obj, Order: []int{0}}) {
			t.Errorf("objective %v accepted", obj)
		}
	}
}

// TestIncumbentSeedRecomputed: a frame for a key with no live solve
// cannot be checked against its instance, so a new solve for that key
// recomputes the objective before seeding its store from the table.
func TestIncumbentSeedRecomputed(t *testing.T) {
	in := newIncumbentNode(t)
	truth := in.c.Objective(in.seed)
	const key = "later"
	if code := in.post(frame(t, key, in.seed, truth/2)); code != http.StatusNoContent {
		t.Fatalf("frame for an idle key: status %d, want 204", code)
	}
	store := portfolio.NewStore(in.c.N, nil)
	ds := distributor{in.n}.SolveStarted(service.SolveStart{Key: key, Compiled: in.c, Store: store})
	defer ds.Done()
	if order, obj, _ := store.Best(); order == nil || obj != truth {
		t.Fatalf("seeded store holds objective %v for %v, want the recomputed %v", obj, order, truth)
	}
}

// TestIncumbentAfterUncheckedFrame: an understated frame that reached
// the LWW table while its key was idle wins every later merge, but it
// must not keep a live solve from adopting a real improvement.
func TestIncumbentAfterUncheckedFrame(t *testing.T) {
	in := newIncumbentNode(t)
	const key = "later"
	if code := in.post(frame(t, key, in.seed, 1)); code != http.StatusNoContent {
		t.Fatalf("frame for an idle key: status %d, want 204", code)
	}
	store := portfolio.NewStore(in.c.N, nil)
	ds := distributor{in.n}.SolveStarted(service.SolveStart{Key: key, Compiled: in.c, Store: store})
	defer ds.Done()
	best := cp.Solve(in.c, nil, cp.Options{})
	if !best.Proved || best.Objective >= in.c.Objective(in.seed) {
		t.Fatalf("instance does not witness the case: optimum %v, seed %v", best.Objective, in.c.Objective(in.seed))
	}
	if code := in.post(frame(t, key, best.Order, best.Objective)); code != http.StatusNoContent {
		t.Fatalf("honest frame: status %d, want 204", code)
	}
	if _, obj, _ := store.Best(); obj != best.Objective {
		t.Fatalf("live store holds %v after an improving frame, want %v", obj, best.Objective)
	}
}

// resultFrame marshals a /cluster/result body for the node's live
// instance, stamped clock.
func (in *incumbentNode) resultFrame(t testing.TB, clock uint64) []byte {
	t.Helper()
	b, err := json.Marshal(resultMsg{Key: "replicated", Node: "peer", Clock: clock,
		Result: &service.SolveResult{Order: in.seed, Objective: in.c.Objective(in.seed)}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postTo sends one body to a cluster endpoint and returns the status code.
func (in *incumbentNode) postTo(path string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	in.n.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// TestPeerFrameClockBounded: an incumbent or result frame stamped at or
// above clockCap is rejected before its stamp reaches the Lamport
// clock, so a forged 2^64-1 cannot make the next Tick wrap to 0. The
// same frames stamped below the cap are accepted.
func TestPeerFrameClockBounded(t *testing.T) {
	in := newIncumbentNode(t)
	truth := in.c.Objective(in.seed)
	result := func(clock uint64) []byte { return in.resultFrame(t, clock) }
	postTo := in.postTo

	prior := in.n.clock.Tick()
	for _, clock := range []uint64{math.MaxUint64, clockCap} {
		if code := postTo("/cluster/incumbent", stampedFrame(t, liveSolveKey, in.seed, truth, clock)); code != http.StatusBadRequest {
			t.Errorf("incumbent stamped %d: status %d, want 400", clock, code)
		}
		if code := postTo("/cluster/result", result(clock)); code != http.StatusBadRequest {
			t.Errorf("result stamped %d: status %d, want 400", clock, code)
		}
	}
	if next := in.n.clock.Tick(); next != prior+1 {
		t.Fatalf("Tick after rejected frames = %d, want %d", next, prior+1)
	}
	if order, _, _ := in.store.Best(); order != nil {
		t.Fatalf("rejected frame reached the live store: %v", order)
	}

	const stamp = 100
	if code := postTo("/cluster/incumbent", stampedFrame(t, liveSolveKey, in.seed, truth, stamp)); code != http.StatusNoContent {
		t.Fatalf("incumbent stamped %d: status %d, want 204", stamp, code)
	}
	if code := postTo("/cluster/result", result(stamp+1)); code != http.StatusNoContent {
		t.Fatalf("result stamped %d: status %d, want 204", stamp+1, code)
	}
	if next := in.n.clock.Tick(); next != stamp+2 {
		t.Fatalf("Tick after witnessing %d = %d, want %d", stamp+1, next, stamp+2)
	}
}

// TestWitnessedCapLeavesHeadroom: a frame stamped just below clockCap
// is accepted, yet every incumbent and result frame the node stamps
// afterwards is still below the cap, so its peers keep accepting its
// replication instead of answering 400.
func TestWitnessedCapLeavesHeadroom(t *testing.T) {
	in, peer := newIncumbentNode(t), newIncumbentNode(t)
	truth := in.c.Objective(in.seed)
	if code := in.postTo("/cluster/incumbent", stampedFrame(t, liveSolveKey, in.seed, truth, clockCap-1)); code != http.StatusNoContent {
		t.Fatalf("incumbent stamped clockCap-1: status %d, want 204", code)
	}
	if code := in.postTo("/cluster/result", in.resultFrame(t, clockCap-1)); code != http.StatusNoContent {
		t.Fatalf("result stamped clockCap-1: status %d, want 204", code)
	}
	// broadcastIncumbent and resultCached stamp their frames with Tick.
	inc, res := in.n.clock.Tick(), in.n.clock.Tick()
	if res <= inc {
		t.Fatalf("Tick went %d then %d, want increasing", inc, res)
	}
	if code := peer.postTo("/cluster/incumbent", stampedFrame(t, liveSolveKey, peer.seed, peer.c.Objective(peer.seed), inc)); code != http.StatusNoContent {
		t.Fatalf("peer refused the node's next incumbent (stamp %d): status %d, want 204", inc, code)
	}
	if code := peer.postTo("/cluster/result", peer.resultFrame(t, res)); code != http.StatusNoContent {
		t.Fatalf("peer refused the node's next result (stamp %d): status %d, want 204", res, code)
	}
}

// FuzzIncumbentFrame posts arbitrary bodies to /cluster/incumbent while
// a solve is live: every body gets 204 or 400, none panics, and the
// live store's objective is always the objective of its order.
func FuzzIncumbentFrame(f *testing.F) {
	in := newIncumbentNode(f)
	truth := in.c.Objective(in.seed)
	f.Add(frame(f, liveSolveKey, in.seed, truth))
	f.Add(frame(f, liveSolveKey, in.seed, truth/2))
	f.Add(frame(f, liveSolveKey, in.seed, truth*(1+1e-12)))
	f.Add(frame(f, "other", in.seed, 1))
	f.Add(frame(f, liveSolveKey, []int{5, 4, 3, 2, 1, 0}, 1))
	f.Add([]byte(`{"key":"live","incumbent":{"objective":-1,"order":[0,1,2,3,4,5],"clock":18446744073709551615}}`))
	f.Add(stampedFrame(f, liveSolveKey, in.seed, truth, math.MaxUint64))
	f.Add(stampedFrame(f, liveSolveKey, in.seed, truth, clockCap-1))
	f.Add([]byte(`{"key":"live","incumbent":{"objective":1e308,"order":[0,1,2,3,4,5,6]}}`))
	f.Add([]byte(`{"key":"live","incumbent":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if code := in.post(body); code != http.StatusNoContent && code != http.StatusBadRequest {
			t.Fatalf("status %d for %q", code, body)
		}
		order, obj, _ := in.store.Best()
		if order == nil {
			return
		}
		if want := in.c.Objective(order); obj != want {
			t.Fatalf("store claims %v for %v, whose objective is %v", obj, order, want)
		}
	})
}
