package service

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/greedy"
)

// solveDone submits in (warm-started when warm is non-nil), waits for
// the job and returns its result.
func solveDone(t *testing.T, m *Manager, in *model.Instance, p Params, warm []string) *SolveResult {
	t.Helper()
	var j *Job
	var err error
	if warm != nil {
		j, err = m.SubmitWarm(in, p, warm)
	} else {
		j, err = m.Submit(in, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j, 20*time.Second)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("solve ended %+v", st)
	}
	return st.Result
}

// TestSessionRevertHitsProvedResult: a delta that takes a session back
// to an instance it has proved is served from the cache, with the
// proved objective, although its warm order differs from the first
// solve's (which had none).
func TestSessionRevertHitsProvedResult(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	in := sessionInstance()
	in.Queries[0].Weight = 2
	sess, err := m.CreateSession(context.Background(), in, Params{Budget: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	first := sess.Status().Result
	if !first.Proved {
		t.Fatalf("initial solve not proved: %+v", first)
	}
	hits := m.metrics.cacheHits.Value()

	moved, err := m.SessionDelta(context.Background(), sess.ID, SessionDelta{Weights: map[string]float64{"q1": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if moved.Result.CacheHit {
		t.Fatal("a weight change hit the cache")
	}
	back, err := m.SessionDelta(context.Background(), sess.ID, SessionDelta{Weights: map[string]float64{"q1": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r := back.Result; !r.CacheHit || !r.Proved ||
		math.Float64bits(r.Objective) != math.Float64bits(first.Objective) {
		t.Fatalf("revert: cache hit %v, proved %v, objective %v; want a proved hit with %v",
			r.CacheHit, r.Proved, r.Objective, first.Objective)
	}
	if got := m.metrics.cacheHits.Value() - hits; got != 1 {
		t.Fatalf("%d cache hits over the two deltas, want 1", got)
	}
}

// TestNamedBackendsSkipProvedResult: a request that names its backends
// gets a solve by those backends, not another request's proof; the same
// request with the default selection takes the proof.
func TestNamedBackendsSkipProvedResult(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	in := trapInstance(t)
	first := solveDone(t, m, in, Params{Seed: 1, Budget: Duration(10 * time.Second)}, nil)
	if !first.Proved {
		t.Fatalf("default solve not proved: %+v", first)
	}
	named := solveDone(t, m, in, Params{Seed: 2, Backends: []string{"cp"}, Budget: Duration(10 * time.Second)}, nil)
	if named.CacheHit {
		t.Fatalf("named-backend request served from the cache: %+v", named)
	}
	def := solveDone(t, m, in, Params{Seed: 2, Budget: Duration(10 * time.Second)}, nil)
	if !def.CacheHit || !def.Proved || math.Float64bits(def.Objective) != math.Float64bits(first.Objective) {
		t.Fatalf("default request with a new seed: %+v; want the proved result", def)
	}
}

// TestUnprovedResultNotSharedAcrossWarmOrders: only proofs are keyed by
// instance. A step-limited solve that ends unproved answers its own
// full key, never a request that warm-starts from another order.
func TestUnprovedResultNotSharedAcrossWarmOrders(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	in := slowInstance(5)
	p := Params{Budget: Duration(10 * time.Second), StepLimit: 20, Seed: 1}
	cold := solveDone(t, m, in, p, nil)
	if cold.Proved {
		t.Fatal("step-limited solve of an n=26 instance proved; the test needs an unproved one")
	}
	reversed := slices.Clone(cold.Names)
	slices.Reverse(reversed)
	warmB, err := evolve.RepairOrder(in, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(warmB, cold.Names) {
		t.Fatal("both warm orders are the same")
	}
	a := solveDone(t, m, in, p, cold.Names)
	b := solveDone(t, m, in, p, warmB)
	if a.CacheHit || b.CacheHit || a.Proved || b.Proved {
		t.Fatalf("warm solves: hit %v/%v, proved %v/%v; want two unproved misses",
			a.CacheHit, b.CacheHit, a.Proved, b.Proved)
	}
	if again := solveDone(t, m, in, p, cold.Names); !again.CacheHit {
		t.Fatal("a repeat of the first warm request missed its own key")
	}
}

// cacheRecorder is a Config.ResultCached callback that records what
// the manager replicates.
type cacheRecorder struct {
	mu     sync.Mutex
	keys   []string
	cached []*SolveResult
}

func (d *cacheRecorder) record(key string, res *SolveResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys = append(d.keys, key)
	d.cached = append(d.cached, res)
}

// TestReplicatedProofServesPeer: a proved result replicated to a peer
// (ResultCached on the solving node, SeedCache on the peer) answers the
// identical request there as a hit, but only under its own solve key:
// the peer cannot check the proof, so a request with another seed is a
// miss the peer solves itself.
func TestReplicatedProofServesPeer(t *testing.T) {
	rec := &cacheRecorder{}
	owner := newTestManager(t, Config{Workers: 2, ResultCached: rec.record})
	peer := newTestManager(t, Config{Workers: 2})
	in := trapInstance(t)
	p := Params{Seed: 1, Budget: Duration(10 * time.Second)}
	first := solveDone(t, owner, in, p, nil)
	if !first.Proved {
		t.Fatalf("owner's solve not proved: %+v", first)
	}
	rec.mu.Lock()
	if len(rec.keys) != 1 {
		t.Fatalf("%d results replicated, want 1", len(rec.keys))
	}
	peer.SeedCache(rec.keys[0], rec.cached[0])
	rec.mu.Unlock()

	same := solveDone(t, peer, in, p, nil)
	if !same.CacheHit || !same.Proved || math.Float64bits(same.Objective) != math.Float64bits(first.Objective) {
		t.Fatalf("peer, same key: %+v; want the replicated proof", same)
	}
	other := solveDone(t, peer, in, Params{Seed: 7, Budget: Duration(5 * time.Second)}, nil)
	if other.CacheHit {
		t.Fatalf("peer, another seed: %+v; want a miss", other)
	}
}

// TestForgedProofAnswersOnlyItsKey: a replicated frame with a feasible
// order, an understated objective and a proved flag, sent for one seed,
// does not answer a default request with another seed, which the node
// solves to the order's true objective or better.
func TestForgedProofAnswersOnlyItsKey(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	in := trapInstance(t)
	canon, _ := codec.Canonicalize(in)
	hash := codec.CanonicalHash(canon)
	c := model.MustCompile(canon)
	order := greedy.Solve(c, nil)
	if err := canon.ValidOrder(order); err != nil {
		t.Fatalf("forged order must pass the hit's check: %v", err)
	}
	truth := c.Objective(order)
	forged := Params{Seed: 1, Budget: Duration(5 * time.Second)}
	m.SeedCache(solveKey(hash, forged, m.clampBudget(forged.Budget)),
		&SolveResult{Order: order, Objective: truth / 2, Proved: true})

	got := solveDone(t, m, in, Params{Seed: 2, Budget: Duration(5 * time.Second)}, nil)
	if got.CacheHit || got.Objective < truth/2*(1+1e-9) {
		t.Fatalf("another seed: %+v; want a solve, not the forged objective %v", got, truth/2)
	}
	if err := in.ValidOrder(got.Order); err != nil {
		t.Fatalf("solved order: %v", err)
	}
}

// TestMalformedCachedOrderSolvedAsMiss: a cached result whose order is
// not a feasible order of its instance — an index out of range, or one
// index repeated under a proved flag, as a forged replication frame may
// carry — is dropped on the hit and counted in idd_cache_rejected_total,
// and the request is solved as a miss: the first panicked translating
// the order, the second was served as a proved optimum.
func TestMalformedCachedOrderSolvedAsMiss(t *testing.T) {
	in := trapInstance(t)
	p := Params{Seed: 1, Budget: Duration(5 * time.Second)}
	canon, _ := codec.Canonicalize(in)
	hash := codec.CanonicalHash(canon)
	for _, tc := range []struct {
		name    string
		res     SolveResult
		entries int64 // a replicated result is cached under its own key only
	}{
		{"out of range", SolveResult{Order: []int{99}, Objective: 1}, 1},
		{"repeated index, proved", SolveResult{Order: make([]int, len(in.Indexes)), Objective: 1, Proved: true}, 1},
	} {
		m := newTestManager(t, Config{Workers: 2})
		m.SeedCache(solveKey(hash, p, m.clampBudget(p.Budget)), &tc.res)
		got := solveDone(t, m, in, p, nil)
		if got.CacheHit {
			t.Fatalf("%s: malformed cached result served: %+v", tc.name, got)
		}
		if err := in.ValidOrder(got.Order); err != nil {
			t.Fatalf("%s: solved order: %v", tc.name, err)
		}
		if n := m.metrics.cacheRejected.Value(); n != tc.entries {
			t.Fatalf("%s: %d cached results rejected, want %d", tc.name, n, tc.entries)
		}
		// The fresh result replaced the dropped entry.
		again := solveDone(t, m, in, p, nil)
		if !again.CacheHit || !slices.Equal(again.Order, got.Order) {
			t.Fatalf("%s: repeat request %+v; want a cache hit on the solved order %v", tc.name, again, got.Order)
		}
		if n := m.metrics.cacheRejected.Value(); n != tc.entries {
			t.Fatalf("%s: repeat request rejected a cached result (%d in all)", tc.name, n)
		}
	}
}

// TestReplicatedResultCheckedOnHit: a peer's frame is checked on its
// first hit against the request's instance. A frame under the request's
// own key with a feasible order and half that order's objective is
// dropped, counted in idd_cache_rejected_total and solved as a miss (it
// used to be served). A frame with the true objective is served, with
// the names, deploy time and runtimes of its order rather than the
// frame's.
func TestReplicatedResultCheckedOnHit(t *testing.T) {
	in := trapInstance(t)
	canon, _ := codec.Canonicalize(in)
	hash := codec.CanonicalHash(canon)
	c := model.MustCompile(canon)
	order := greedy.Solve(c, nil)
	truth, deploy, final := c.Evaluate(order)
	p := Params{Seed: 1, Budget: Duration(5 * time.Second)}

	m := newTestManager(t, Config{Workers: 2})
	key := solveKey(hash, p, m.clampBudget(p.Budget))
	m.SeedCache(key, &SolveResult{Order: order, Objective: truth / 2, Proved: true})
	got := solveDone(t, m, in, p, nil)
	if got.CacheHit || got.Objective < truth/2*(1+1e-9) {
		t.Fatalf("own key: %+v; want a solve, not the forged objective %v", got, truth/2)
	}
	if err := in.ValidOrder(got.Order); err != nil {
		t.Fatalf("solved order: %v", err)
	}
	if n := m.metrics.cacheRejected.Value(); n != 1 {
		t.Fatalf("%d cached results rejected, want 1", n)
	}

	m = newTestManager(t, Config{Workers: 2})
	m.SeedCache(key, &SolveResult{Order: order, Objective: truth, Names: []string{"forged"},
		DeployTime: -1, FinalRuntime: -1})
	for round := 0; round < 2; round++ {
		got = solveDone(t, m, in, p, nil)
		if !got.CacheHit || got.Objective != truth {
			t.Fatalf("round %d: %+v; want a hit with objective %v", round, got, truth)
		}
		if got.DeployTime != deploy || got.FinalRuntime != final || got.BaseRuntime != c.Base {
			t.Fatalf("round %d: deploy %v final %v base %v; want %v %v %v", round,
				got.DeployTime, got.FinalRuntime, got.BaseRuntime, deploy, final, c.Base)
		}
		for k, ix := range order {
			if k >= len(got.Names) || got.Names[k] != canon.Indexes[ix].Name {
				t.Fatalf("round %d: names %v, want the order's", round, got.Names)
			}
		}
	}
	if n := m.metrics.cacheRejected.Value(); n != 0 {
		t.Fatalf("%d honest results rejected", n)
	}
}
