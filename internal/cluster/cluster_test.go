package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

// testCluster is an in-process multi-node cluster: real listeners, real
// HTTP between nodes, everything else in one test binary.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	srvs  []*http.Server
	urls  []string
}

// newTestCluster brings up k nodes. Listeners are bound first so every
// peer URL is known before any node is constructed (membership is
// static). Gossip intervals are cranked down so peer discovery and
// failure detection land in tens of milliseconds.
func newTestCluster(t *testing.T, k int, svcCfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i := range lns {
		cfg := Config{
			Self:           tc.urls[i],
			Peers:          tc.urls,
			GossipInterval: 25 * time.Millisecond,
			PeerTimeout:    100 * time.Millisecond,
			StealInterval:  10 * time.Millisecond,
			MaxHelpers:     1,
			HelperWorkers:  1,
		}
		n, err := New(cfg, svcCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: n.Handler()}
		go hs.Serve(lns[i])
		n.Start()
		tc.nodes = append(tc.nodes, n)
		tc.srvs = append(tc.srvs, hs)
	}
	t.Cleanup(func() {
		for i := range tc.nodes {
			tc.stopNode(i)
		}
	})
	// Wait until every node sees every peer up.
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range tc.nodes {
		for {
			up := 0
			for _, p := range n.clusterHealth().Peers {
				if p.State == "up" {
					up++
				}
			}
			if up == k-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("gossip never converged on %s", n.Name())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return tc
}

// stopNode simulates a node dying: HTTP surface closed, loops canceled,
// service drained. Idempotent.
func (tc *testCluster) stopNode(i int) {
	if tc.nodes[i] == nil {
		return
	}
	tc.srvs[i].Close()
	tc.nodes[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	tc.nodes[i].Server().Shutdown(ctx)
	cancel()
	tc.nodes[i] = nil
}

// ownerIdx computes which node the ring assigns the instance to.
func (tc *testCluster) ownerIdx(in *model.Instance) int {
	canon, _ := codec.Canonicalize(in)
	owner := tc.nodes[tc.firstLive()].ring.owner(codec.CanonicalHash(canon))
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	tc.t.Fatalf("owner %s not among nodes", owner)
	return -1
}

func (tc *testCluster) firstLive() int {
	for i, n := range tc.nodes {
		if n != nil {
			return i
		}
	}
	tc.t.Fatal("no live nodes")
	return -1
}

func genInstance(seed int64, indexes, queries int, interact float64) *model.Instance {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = indexes
	cfg.Queries = queries
	cfg.BuildInteractionProb = interact
	return randgen.New(rand.New(rand.NewSource(seed)), cfg)
}

// solveBody builds the POST /solve JSON envelope.
func solveBody(t *testing.T, in *model.Instance, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{"instance": in}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterForwardingAndReplication: a request landing on a non-owner
// is forwarded to the ring owner (so single-flight and the cache stay
// cluster-wide), and the finished result is replicated so ANY node
// serves the next identical request from its own cache.
func TestClusterForwardingAndReplication(t *testing.T) {
	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	in := genInstance(2, 7, 6, 0.1)
	ownerI := tc.ownerIdx(in)
	nonOwner := (ownerI + 1) % 3
	third := (ownerI + 2) % 3

	body := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "budget": "30s"})
	resp, out := post(t, tc.urls[nonOwner]+"/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, out)
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("solve not proved: %s", out)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("returned order invalid: %v", err)
	}
	if got := tc.nodes[nonOwner].Snapshot().Forwards; got < 1 {
		t.Fatalf("expected the non-owner to forward to the ring owner, forwards=%d", got)
	}

	// Result replication: the third node (neither submitter nor owner)
	// learns the result and serves it as a local cache hit.
	waitFor(t, "result replication", 5*time.Second, func() bool {
		return tc.nodes[third].Snapshot().ResultsApplied >= 1
	})
	resp, out = post(t, tc.urls[third]+"/solve", body, map[string]string{ForwardedHeader: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed solve status %d: %s", resp.StatusCode, out)
	}
	var res2 service.SolveResult
	if err := json.Unmarshal(out, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatalf("expected a local cache hit on the replicated result: %s", out)
	}
	if res2.Objective != res.Objective {
		t.Fatalf("replicated objective %v != original %v", res2.Objective, res.Objective)
	}
}

// TestClusterJobProxy: job ids are node-prefixed, so any node can serve
// GET /jobs/{id} by proxying to the id's home node.
func TestClusterJobProxy(t *testing.T) {
	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	in := genInstance(3, 7, 6, 0.1)
	body := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "budget": "30s"})
	// Pin execution to node 0 (the forwarded marker skips rerouting).
	resp, out := post(t, tc.urls[0]+"/jobs", body, map[string]string{ForwardedHeader: "test"})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, out)
	}
	var job service.JobStatus
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, tc.nodes[0].Name()+"-") {
		t.Fatalf("job id %q not prefixed with node name %q", job.ID, tc.nodes[0].Name())
	}

	waitFor(t, "proxied job completion", 30*time.Second, func() bool {
		r, err := http.Get(tc.urls[1] + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("proxied GET status %d", r.StatusCode)
		}
		var st service.JobStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State == service.StateDone
	})
	if got := tc.nodes[1].Snapshot().Proxied; got < 1 {
		t.Fatalf("expected node 1 to proxy the id-addressed request, proxied=%d", got)
	}
}

// refObjective solves the instance on an isolated single-node service
// with identical parameters — the baseline the distributed proof must
// match bit-for-bit.
func refObjective(t *testing.T, in *model.Instance, body []byte) float64 {
	t.Helper()
	s := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	req, _ := http.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := newRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		t.Fatalf("reference solve status %d: %s", rec.code, rec.buf.String())
	}
	var res service.SolveResult
	if err := json.Unmarshal(rec.buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("reference solve not proved")
	}
	return res.Objective
}

// recorder is a minimal ResponseWriter (httptest.NewRecorder works too,
// but this keeps the dependency surface explicit).
type recorder struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func newRecorder() *recorder            { return &recorder{code: http.StatusOK, hdr: http.Header{}} }
func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(b []byte) (int, error) {
	return r.buf.Write(b)
}

// TestClusterDistributedProof is the tentpole end-to-end: a CP
// optimality proof on one node exports frontier subtrees to idle peers
// over HTTP, the proof completes with search nodes contributed by at
// least two nodes, and the objective is bit-identical to a single-node
// proof of the same request.
func TestClusterDistributedProof(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed proof")
	}
	// ~1s proof through the service path (pruning, tail bound and the
	// CP memo included): long enough for helpers to land steals, short
	// enough for CI.
	in := genInstance(33, 26, 13, 0.35)
	body := solveBody(t, in, map[string]any{
		"backends": []string{"cp"},
		"budget":   "45s",
		"params":   map[string]any{"cp.workers": 2},
	})
	ref := refObjective(t, in, body)

	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	ownerI := tc.ownerIdx(in)
	submitI := (ownerI + 1) % 3

	resp, out := post(t, tc.urls[submitI]+"/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, out)
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("distributed solve not proved: %s", out)
	}
	if res.Objective != ref {
		t.Fatalf("distributed objective %v != single-node %v (must be bit-identical)", res.Objective, ref)
	}

	donor := tc.nodes[ownerI].Snapshot()
	if donor.StealsServed < 1 {
		t.Fatalf("no subtree was stolen — proof was not distributed: %+v", donor)
	}
	if donor.SubtreesCompleted < 1 {
		t.Fatalf("no stolen subtree was completed remotely: %+v", donor)
	}
	if donor.RemoteSearchNodes < 1 {
		t.Fatalf("peers contributed no search nodes: %+v", donor)
	}
	helperSteals := int64(0)
	for i, n := range tc.nodes {
		if i != ownerI {
			helperSteals += n.Snapshot().RemoteSteals
		}
	}
	if helperSteals < 1 {
		t.Fatalf("no peer recorded a remote steal")
	}
	t.Logf("donor: steals_served=%d completed=%d remote_nodes=%d; helper steals=%d",
		donor.StealsServed, donor.SubtreesCompleted, donor.RemoteSearchNodes, helperSteals)
}

// TestClusterHelperFailureRequeue: a helper node dies mid-solve holding
// a donated subtree. The donor detects the death via gossip, requeues
// the subtree locally, and the proof still completes sound with the
// single-node objective.
func TestClusterHelperFailureRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failure drill")
	}
	// ~3s proof through the service path: a wide window to kill the
	// helper while it holds a subtree.
	in := genInstance(11, 26, 14, 0.4)
	body := solveBody(t, in, map[string]any{
		"backends": []string{"cp"},
		"budget":   "50s",
		"params":   map[string]any{"cp.workers": 2},
	})
	ref := refObjective(t, in, body)

	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	// Pin the solve to node 0 whatever the ring says; node 1 is the
	// helper that will die.
	resp, out := post(t, tc.urls[0]+"/jobs", body, map[string]string{ForwardedHeader: "test"})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, out)
	}
	var job service.JobStatus
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "first steal", 20*time.Second, func() bool {
		return tc.nodes[0].Snapshot().StealsServed >= 1
	})
	tc.stopNode(1) // helper dies holding (at least) one subtree

	var final service.JobStatus
	waitFor(t, "job completion after helper death", 60*time.Second, func() bool {
		r, err := http.Get(tc.urls[0] + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&final); err != nil {
			t.Fatal(err)
		}
		if final.State == service.StateFailed || final.State == service.StateCanceled {
			t.Fatalf("job reached %q after helper death: %s", final.State, final.Error)
		}
		return final.State == service.StateDone
	})
	if final.Result == nil || !final.Result.Proved {
		t.Fatalf("proof lost after helper death: %+v", final.Result)
	}
	if final.Result.Objective != ref {
		t.Fatalf("objective %v != single-node %v after helper death", final.Result.Objective, ref)
	}
	snap := tc.nodes[0].Snapshot()
	if snap.StealsServed >= 1 && snap.SubtreesCompleted == 0 && snap.SubtreesRequeued == 0 {
		t.Fatalf("stolen subtree neither completed nor requeued: %+v", snap)
	}
	t.Logf("donor after helper death: steals=%d completed=%d requeued=%d",
		snap.StealsServed, snap.SubtreesCompleted, snap.SubtreesRequeued)
}

// TestClusterHealthzAndMetrics: the wrapped endpoints carry the cluster
// sections — peer membership with health in /healthz, the idd_cluster_*
// counters in both /metrics forms.
func TestClusterHealthzAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	r, err := http.Get(tc.urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string        `json:"status"`
		Cluster ClusterHealth `json:"cluster"`
	}
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("status %q", hz.Status)
	}
	if hz.Cluster.Name != tc.nodes[0].Name() || len(hz.Cluster.Peers) != 1 {
		t.Fatalf("bad cluster section: %+v", hz.Cluster)
	}
	if p := hz.Cluster.Peers[0]; p.State != "up" || p.Name != tc.nodes[1].Name() || p.Addr != tc.urls[1] {
		t.Fatalf("bad peer row: %+v", p)
	}

	r, err = http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms struct {
		Workers int `json:"workers"`
		Cluster *ClusterSnapshot
	}
	if err := json.NewDecoder(r.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if ms.Cluster == nil {
		t.Fatal("JSON metrics missing cluster section")
	}
	if ms.Workers != 1 {
		t.Fatalf("service snapshot fields not inlined next to cluster section: %+v", ms)
	}

	r, err = http.Get(tc.urls[0] + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{"idd_cluster_peers_up", "idd_cluster_forwards_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("prometheus output missing %s", want)
		}
	}
}
