// Package cluster turns a set of iddserver processes into one solve
// cluster with no coordinator and no new dependencies: static peer
// membership with periodic health gossip, consistent-hash job routing
// on the canonical instance hash (any node accepts any request and
// forwards it to the owner, so the per-node cache and single-flight
// machinery keep their hit rates cluster-wide), id-prefix proxying for
// jobs, batches and sessions, and replicated solution caches.
//
// Owner routing is the only coordination: while the owner is up, every
// solve of an instance runs there, as the single-node solve. When it is
// down, the node a request lands on solves it locally; each finished
// result is replicated to every live peer, which serves the identical
// request (same solve key) as a cache hit.
//
// A Node wraps a service.Server: it owns the HTTP surface (the service
// routes plus the /cluster/* peer protocol), the gossip and broadcast
// loops, and the service.Config.ResultCached callback the job manager
// reports finished results through. Single-node deployments never
// construct a Node and are entirely unaffected.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/service"
)

// ForwardedHeader marks a request already routed by a peer; a receiving
// node serves it locally whatever its own ring view says, so transient
// membership-view disagreement can bounce a request at most once.
const ForwardedHeader = "X-IDD-Forwarded"

// Config describes this node's place in the cluster.
type Config struct {
	// Self is this node's advertised base URL (how peers reach it),
	// e.g. "http://10.0.0.1:8080". A bare host:port gets http://.
	Self string
	// Peers lists every cluster member's base URL, self included or
	// not (it is added if missing). All nodes must configure the same
	// set — ownership is a pure function of it.
	Peers []string
	// GossipInterval is the peer health probe cadence (0 = 1s);
	// PeerTimeout is how long a peer stays "up" without a successful
	// probe (0 = 3 × GossipInterval).
	GossipInterval time.Duration
	PeerTimeout    time.Duration
}

func (c Config) withDefaults() (Config, error) {
	var err error
	if c.Self, err = normalizeAddr(c.Self); err != nil {
		return c, fmt.Errorf("cluster: self: %w", err)
	}
	seen := map[string]bool{c.Self: true}
	peers := []string{c.Self}
	for _, p := range c.Peers {
		a, err := normalizeAddr(p)
		if err != nil {
			return c, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if !seen[a] {
			seen[a] = true
			peers = append(peers, a)
		}
	}
	sort.Strings(peers)
	c.Peers = peers
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 3 * c.GossipInterval
	}
	return c, nil
}

// normalizeAddr reduces a node address to "scheme://host[:port]",
// defaulting the scheme to http. The scheme is looked for before any
// path is dropped, so a hostless "http://" is an error rather than the
// host "http:".
func normalizeAddr(a string) (string, error) {
	a = strings.TrimSpace(a)
	if a == "" {
		return "", fmt.Errorf("empty address")
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	u, err := url.Parse(a)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("no host in %q", a)
	}
	return u.Scheme + "://" + u.Host, nil
}

// NodeName derives a node's stable short name from its advertised
// address: "n" + the first 8 hex chars of the address hash. Every node
// computes every peer's name from the shared peer list, which is what
// makes id prefixes ("<name>-<hex>") self-routing.
func NodeName(addr string) string {
	return fmt.Sprintf("n%08x", hashPoint(addr)>>32)
}

// peerState is this node's gossip view of one peer.
type peerState struct {
	addr     string
	name     string
	lastSeen time.Time
	up       bool
	proxy    *httputil.ReverseProxy
}

// Node is one cluster member: the wrapped solve service plus the peer
// protocol and gossip machinery.
type Node struct {
	cfg    Config
	name   string
	srv    *service.Server
	ring   *ring
	client *http.Client
	mux    *http.ServeMux

	mu     sync.Mutex
	peers  map[string]*peerState // by addr; excludes self
	byName map[string]*peerState // same peers, by node name

	// bcast queues marshaled /cluster/result frames for bcastLoop; its
	// 512 slots absorb a burst of finished solves while a slow peer
	// holds the loop, and resultCached drops frames beyond them.
	bcast  chan []byte
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	m clusterMetrics
}

type clusterMetrics struct {
	forwards         *obs.Counter
	forwardFallbacks *obs.Counter
	proxied          *obs.Counter
	resSent          *obs.Counter
	resApplied       *obs.Counter
	bcastDropped     *obs.Counter
}

// New builds a cluster node around a fresh service.Server constructed
// from svcCfg (the node installs its own NodeName and ResultCached into
// the service config — callers must leave those zero). Start launches
// the background loops.
func New(cfg Config, svcCfg service.Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:    cfg,
		name:   NodeName(cfg.Self),
		ring:   newRing(cfg.Peers),
		client: &http.Client{}, // per-call timeouts via request contexts
		peers:  make(map[string]*peerState),
		byName: make(map[string]*peerState),
		bcast:  make(chan []byte, 512),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	for _, addr := range cfg.Peers {
		if addr == cfg.Self {
			continue
		}
		target, _ := url.Parse(addr)
		ps := &peerState{addr: addr, name: NodeName(addr)}
		ps.proxy = &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.Out.Header.Set(ForwardedHeader, n.name)
			},
			// Immediate flushing so proxied SSE event streams stay live.
			FlushInterval: -1,
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				n.markDown(addr)
				http.Error(w, fmt.Sprintf(`{"error":"peer %s unreachable"}`, ps.name),
					http.StatusBadGateway)
			},
		}
		n.peers[addr] = ps
		n.byName[ps.name] = ps
	}

	svcCfg.NodeName = n.name
	svcCfg.ResultCached = n.resultCached
	n.srv = service.New(svcCfg)
	n.registerMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/health", n.handleHealth)
	mux.HandleFunc("POST /cluster/result", n.handleResult)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("POST /solve", n.routeByInstance)
	mux.HandleFunc("POST /jobs", n.routeByInstance)
	mux.HandleFunc("/jobs/", n.routeByID)
	mux.HandleFunc("/batch/", n.routeByID)
	mux.HandleFunc("/sessions/", n.routeByID)
	mux.Handle("/", n.srv.Handler())
	n.mux = mux
	return n, nil
}

// Start launches the gossip and broadcast loops. Separate from New so a
// caller can bring every peer's listener up first, and tests can drive
// the protocol handlers and the first health probe synchronously.
func (n *Node) Start() {
	loops := []func(){n.gossipLoop, n.bcastLoop}
	n.wg.Add(len(loops))
	for _, l := range loops {
		go func(run func()) { defer n.wg.Done(); run() }(l)
	}
}

// Close stops the background loops (it does not drain the wrapped
// service — call Server().Shutdown for that, as cmd/iddserver does).
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
}

// Handler returns the node's full HTTP surface: every service route
// (cluster-routed where applicable) plus the /cluster/* peer protocol.
func (n *Node) Handler() http.Handler { return n.mux }

// Server exposes the wrapped service.
func (n *Node) Server() *service.Server { return n.srv }

// Name returns the node's derived name (the id prefix peers route by).
func (n *Node) Name() string { return n.name }

func (n *Node) registerMetrics() {
	reg := n.srv.Manager().ObsRegistry()
	reg.GaugeFunc("idd_cluster_peers", "configured cluster members including self", func() float64 {
		return float64(len(n.cfg.Peers))
	})
	reg.GaugeFunc("idd_cluster_peers_up", "peers currently passing health gossip (self excluded)", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		up := 0
		for _, p := range n.peers {
			if p.up {
				up++
			}
		}
		return float64(up)
	})
	m := &n.m
	m.forwards = reg.Counter("idd_cluster_forwards_total", "requests forwarded to their ring owner")
	m.forwardFallbacks = reg.Counter("idd_cluster_forward_fallbacks_total", "owner down or unreachable: request served locally instead")
	m.proxied = reg.Counter("idd_cluster_proxied_total", "id-addressed requests proxied to the owning node")
	m.resSent = reg.Counter("idd_cluster_result_sent_total", "finished-result replications posted to peers")
	m.resApplied = reg.Counter("idd_cluster_result_applied_total", "peer results installed into the local cache")
	m.bcastDropped = reg.Counter("idd_cluster_broadcast_dropped_total", "broadcasts dropped on backpressure")
}

// ---------------------------------------------------------------------------
// Request routing

// routeByInstance is the consistent-hash front door for POST /solve and
// POST /jobs: parse just enough of the body to canonical-hash the
// instance, and forward to the ring owner unless that is us (or the
// owner is down, or the request was already forwarded once). Bodies
// that don't parse fall through to the local service, whose own
// validation produces the proper 400.
func (n *Node) routeByInstance(w http.ResponseWriter, r *http.Request) {
	local := n.srv.Handler()
	if r.Header.Get(ForwardedHeader) != "" {
		local.ServeHTTP(w, r)
		return
	}
	limit := n.srv.Manager().MaxBodyBytes()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil || int64(len(body)) > limit {
		// Oversized or broken body: hand it to the service, which
		// enforces the limit with the documented error shape.
		r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
		local.ServeHTTP(w, r)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	in := parseInstanceBody(body)
	if in == nil {
		local.ServeHTTP(w, r)
		return
	}
	canon, _ := codec.Canonicalize(in)
	owner := n.ring.owner(codec.CanonicalHash(canon))
	if owner == n.cfg.Self {
		local.ServeHTTP(w, r)
		return
	}
	if !n.peerUp(owner) {
		// Graceful degradation: a down owner costs cache locality, not
		// availability.
		n.m.forwardFallbacks.Inc()
		local.ServeHTTP(w, r)
		return
	}
	if !n.forward(w, r, owner, body) {
		n.m.forwardFallbacks.Inc()
		r.Body = io.NopCloser(bytes.NewReader(body))
		local.ServeHTTP(w, r)
	}
}

// forward replays the buffered request against the owner and copies the
// response back. Returns false when the owner could not be reached (the
// caller then serves locally); once response bytes are flowing the
// response is the owner's, errors included.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardedHeader, n.name)
	resp, err := n.client.Do(req)
	if err != nil {
		n.markDown(owner)
		return false
	}
	defer resp.Body.Close()
	n.m.forwards.Inc()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// routeByID proxies /jobs/{id}, /batch/{id}, /sessions/{id} (and their
// subresources) to the node whose name prefixes the id; local ids and
// unknown prefixes are served locally. SSE subresources stream through
// the proxy unbuffered.
func (n *Node) routeByID(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) == "" {
		if ps := n.ownerByID(r.URL.Path); ps != nil {
			if ps.isUp() {
				n.m.proxied.Inc()
				ps.proxy.ServeHTTP(w, r)
				return
			}
			http.Error(w, fmt.Sprintf(`{"error":"owning node %s is down"}`, ps.name),
				http.StatusBadGateway)
			return
		}
	}
	n.srv.Handler().ServeHTTP(w, r)
}

// ownerByID extracts the id segment of /jobs|batch|sessions/{id}[/...]
// and resolves its node-name prefix to a peer (nil = ours or unknown).
func (n *Node) ownerByID(path string) *peerState {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(parts) < 2 || parts[1] == "" {
		return nil
	}
	id := parts[1]
	dash := strings.IndexByte(id, '-')
	if dash < 0 {
		return nil
	}
	prefix := id[:dash]
	if prefix == n.name {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.byName[prefix]
}

// parseInstanceBody decodes the instance from any of the service's
// accepted body shapes: the JSON envelope, a bare instance JSON, or the
// compact text matrix. Returns nil when none parse.
func parseInstanceBody(body []byte) *model.Instance {
	var env struct {
		Instance *model.Instance `json:"instance"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Instance != nil {
		return env.Instance
	}
	if in, err := codec.ReadJSON(bytes.NewReader(body)); err == nil {
		return in
	}
	if in, err := codec.ReadText(bytes.NewReader(body)); err == nil {
		return in
	}
	return nil
}

// ---------------------------------------------------------------------------
// Gossip and peer health

type healthMsg struct {
	Name   string `json:"name"`
	Status string `json:"status"`
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if n.srv.Manager().Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthMsg{Name: n.name, Status: status})
}

func (n *Node) gossipLoop() {
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	n.probePeers() // first view immediately, not one interval late
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			n.probePeers()
		}
	}
}

func (n *Node) probePeers() {
	var wg sync.WaitGroup
	for addr := range n.peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			// The probe timeout is deliberately generous: a DEAD peer
			// fails fast (connection refused), while a merely SLOW peer
			// (e.g. saturated by a solve on a small box) just needs time
			// to answer. Only sustained silence past PeerTimeout marks a
			// peer down.
			probeTimeout := n.cfg.PeerTimeout
			if probeTimeout < time.Second {
				probeTimeout = time.Second
			}
			ctx, cancel := context.WithTimeout(n.ctx, probeTimeout)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/cluster/health", nil)
			resp, err := n.client.Do(req)
			now := time.Now()
			var h healthMsg
			ok := err == nil && resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&h) == nil
			if err == nil {
				resp.Body.Close()
			}
			n.mu.Lock()
			ps := n.peers[addr]
			if ok {
				ps.lastSeen = now
				ps.up = true
			} else if now.Sub(ps.lastSeen) > n.cfg.PeerTimeout {
				ps.up = false
			}
			n.mu.Unlock()
		}(addr)
	}
	wg.Wait()
}

func (n *Node) peerUp(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.peers[addr]
	return ps != nil && ps.up
}

func (ps *peerState) isUp() bool { return ps != nil && ps.up }

func (n *Node) markDown(addr string) {
	n.mu.Lock()
	if ps := n.peers[addr]; ps != nil {
		ps.up = false
	}
	n.mu.Unlock()
}

// upPeers snapshots the live peers.
func (n *Node) upPeers() []*peerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*peerState
	for _, p := range n.peers {
		if p.up {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// ---------------------------------------------------------------------------
// Result replication

// resultMsg is one /cluster/result frame: a finished result in
// canonical index space under its full solve key. Frames from older
// peers also carry "node" and "clock" fields, which decode and are
// ignored.
type resultMsg struct {
	Key    string               `json:"key"`
	Result *service.SolveResult `json:"result"`
}

// resultCached is the service's ResultCached callback: it queues the
// finished result for every live peer.
func (n *Node) resultCached(key string, res *service.SolveResult) {
	payload, err := json.Marshal(resultMsg{Key: key, Result: res})
	if err != nil {
		return
	}
	select {
	case n.bcast <- payload:
	default:
		// Backpressure: drop rather than stall the solve's completion.
		// A dropped result is re-learnable from the owner's cache via
		// normal routing.
		n.m.bcastDropped.Inc()
	}
}

func (n *Node) bcastLoop() {
	for {
		select {
		case <-n.ctx.Done():
			return
		case payload := <-n.bcast:
			for _, ps := range n.upPeers() {
				ctx, cancel := context.WithTimeout(n.ctx, 2*time.Second)
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
					ps.addr+"/cluster/result", bytes.NewReader(payload))
				req.Header.Set("Content-Type", "application/json")
				resp, err := n.client.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					n.m.resSent.Inc()
				} else {
					n.markDown(ps.addr)
				}
				cancel()
			}
		}
	}
}

// handleResult installs a peer's finished result in the local cache
// under its own solve key only (see Manager.SeedCache). The frame is
// not checked here, since the instance is known only when a request
// hits: the cache hit checks the order against it then.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	var msg resultMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&msg); err != nil ||
		msg.Key == "" || msg.Result == nil {
		http.Error(w, `{"error":"bad result"}`, http.StatusBadRequest)
		return
	}
	n.srv.Manager().SeedCache(msg.Key, msg.Result)
	n.m.resApplied.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Cluster-aware /healthz and /metrics

// PeerHealth is one peer row of the /healthz cluster section.
type PeerHealth struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	State    string `json:"state"`
	LastSeen string `json:"last_seen,omitempty"`
}

// ClusterHealth is the /healthz "cluster" section and the /metrics
// "cluster" section's membership half.
type ClusterHealth struct {
	Name  string       `json:"name"`
	Self  string       `json:"self"`
	Peers []PeerHealth `json:"peers"`
}

func (n *Node) clusterHealth() ClusterHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := ClusterHealth{Name: n.name, Self: n.cfg.Self, Peers: []PeerHealth{}}
	for _, p := range n.peers {
		ph := PeerHealth{Name: p.name, Addr: p.addr, State: "down"}
		if p.up {
			ph.State = "up"
		}
		if !p.lastSeen.IsZero() {
			ph.LastSeen = p.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		ch.Peers = append(ch.Peers, ph)
	}
	sort.Slice(ch.Peers, func(i, j int) bool { return ch.Peers[i].Addr < ch.Peers[j].Addr })
	return ch
}

func (n *Node) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if n.srv.Manager().Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"cluster": n.clusterHealth(),
	})
}

// ClusterSnapshot is the /metrics JSON "cluster" section.
type ClusterSnapshot struct {
	ClusterHealth
	Forwards         int64 `json:"forwards"`
	ForwardFallbacks int64 `json:"forward_fallbacks"`
	Proxied          int64 `json:"proxied"`
	ResultsSent      int64 `json:"results_sent"`
	ResultsApplied   int64 `json:"results_applied"`
}

// Snapshot returns the cluster counters (also used by tests asserting
// cross-node behavior).
func (n *Node) Snapshot() ClusterSnapshot {
	return ClusterSnapshot{
		ClusterHealth:    n.clusterHealth(),
		Forwards:         n.m.forwards.Value(),
		ForwardFallbacks: n.m.forwardFallbacks.Value(),
		Proxied:          n.m.proxied.Value(),
		ResultsSent:      n.m.resSent.Value(),
		ResultsApplied:   n.m.resApplied.Value(),
	}
}

// handleMetrics augments the service's JSON snapshot with the cluster
// section; the Prometheus text form needs no augmentation because the
// idd_cluster_* instruments live in the same registry the service
// renders.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	wantText := r.URL.Query().Get("format") == "prometheus" ||
		strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
	if wantText {
		n.srv.Handler().ServeHTTP(w, r)
		return
	}
	snap := n.srv.Manager().Metrics()
	writeJSON(w, http.StatusOK, struct {
		service.MetricsSnapshot
		Cluster ClusterSnapshot `json:"cluster"`
	}{snap, n.Snapshot()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
