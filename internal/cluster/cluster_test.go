package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
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
// static). Once every listener serves, each node probes its peers once
// before its loops start, so every node sees every peer up on return.
// Gossip intervals are cranked down so failure detection lands in tens
// of milliseconds.
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
		}
		n, err := New(cfg, svcCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: n.Handler()}
		go hs.Serve(lns[i])
		tc.nodes = append(tc.nodes, n)
		tc.srvs = append(tc.srvs, hs)
	}
	t.Cleanup(func() {
		for i := range tc.nodes {
			tc.stopNode(i)
		}
	})
	for _, n := range tc.nodes {
		n.probePeers()
		for _, p := range n.clusterHealth().Peers {
			if p.State != "up" {
				t.Fatalf("%s sees peer %s %s after probing it", n.Name(), p.Name, p.State)
			}
		}
	}
	for _, n := range tc.nodes {
		n.Start()
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
func solveBody(t testing.TB, in *model.Instance, extra map[string]any) []byte {
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

// waitFor polls cond until it holds. Result replication is the one
// cluster effect with no event a test can follow: a peer installs the
// frame in the background.
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

// TestClusterProofMatchesSingleNode: a CP proof forwarded to the ring
// owner returns the single-node optimum bit for bit.
func TestClusterProofMatchesSingleNode(t *testing.T) {
	in := genInstance(33, 14, 10, 0.35)
	body := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "budget": "30s"})
	ref := refObjective(t, body)

	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	ownerI := tc.ownerIdx(in)
	resp, out := post(t, tc.urls[(ownerI+1)%3]+"/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, out)
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("forwarded solve not proved: %s", out)
	}
	if res.Objective != ref {
		t.Fatalf("cluster objective %v != single-node %v (must be bit-identical)", res.Objective, ref)
	}
	if got := tc.nodes[(ownerI+1)%3].Snapshot().Forwards; got != 1 {
		t.Fatalf("forwards = %d, want the one request forwarded to the owner", got)
	}
}

// TestClusterFailoverServesLocally: with the ring owner of an instance
// stopped, both survivors solve its requests themselves (counted as
// forward fallbacks), and a survivor that received the other's
// replicated result serves that request as a cache hit.
func TestClusterFailoverServesLocally(t *testing.T) {
	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	in := genInstance(4, 8, 6, 0.2)
	ownerI := tc.ownerIdx(in)
	a, b := (ownerI+1)%3, (ownerI+2)%3
	tc.stopNode(ownerI)

	// Named backends keep the instance's proved entry out of the
	// lookup, so b can answer seed 1 from its cache only through a's
	// replicated result.
	bodyA := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "seed": 1, "budget": "30s"})
	bodyB := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "seed": 2, "budget": "30s"})
	solve := func(i int, body []byte) service.SolveResult {
		t.Helper()
		resp, out := post(t, tc.urls[i]+"/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %s: status %d: %s", tc.nodes[i].Name(), resp.StatusCode, out)
		}
		var res service.SolveResult
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatal(err)
		}
		if err := in.ValidOrder(res.Order); err != nil {
			t.Fatalf("survivor %s: invalid order: %v", tc.nodes[i].Name(), err)
		}
		return res
	}
	resA := solve(a, bodyA)
	resB := solve(b, bodyB)
	if resA.CacheHit || resB.CacheHit {
		t.Fatalf("first solves were cache hits: %+v, %+v", resA, resB)
	}
	for _, i := range []int{a, b} {
		if s := tc.nodes[i].Snapshot(); s.ForwardFallbacks != 1 || s.Forwards != 0 {
			t.Fatalf("survivor %s: forwards %d, fallbacks %d; want 0 and 1",
				tc.nodes[i].Name(), s.Forwards, s.ForwardFallbacks)
		}
	}

	waitFor(t, "result replication", 5*time.Second, func() bool {
		return tc.nodes[b].Snapshot().ResultsApplied >= 1
	})
	hit := solve(b, bodyA)
	if !hit.CacheHit || !slices.Equal(hit.Order, resA.Order) ||
		math.Float64bits(hit.Objective) != math.Float64bits(resA.Objective) {
		t.Fatalf("survivor %s on the other's request: %+v; want a cache hit on %+v", tc.nodes[b].Name(), hit, resA)
	}
	if got := tc.nodes[b].Snapshot().ForwardFallbacks; got != 2 {
		t.Fatalf("survivor %s: fallbacks %d, want 2", tc.nodes[b].Name(), got)
	}
}

// refObjective solves the request on an isolated single-node service:
// the baseline a cluster solve of the same request must match bit for
// bit.
func refObjective(t *testing.T, body []byte) float64 {
	t.Helper()
	s := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reference solve status %d: %s", rec.Code, rec.Body.String())
	}
	var res service.SolveResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("reference solve not proved")
	}
	return res.Objective
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

	// Follow the job's event stream through node 1 to its done event.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tc.urls[1]+"/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("proxied events status %d", r.StatusCode)
	}
	var last service.Event
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for last.Type != service.EventDone && sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
		}
	}
	if last.Type != service.EventDone || last.State != service.StateDone {
		t.Fatalf("proxied event stream ended at %+v (scan error %v), want done", last, sc.Err())
	}
	if got := tc.nodes[1].Snapshot().Proxied; got < 1 {
		t.Fatalf("expected node 1 to proxy the id-addressed request, proxied=%d", got)
	}
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
