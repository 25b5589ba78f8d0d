package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// Serving set-up shared by serve-fresh and serve-drift: one in-process
// service on a loopback listener, two solve workers, and two client
// connections, each a closed loop (the next request leaves only after
// the previous reply has been read).
const (
	serveWorkers = 2
	serveConns   = 2
	// serveBudget is the per-request safety cap; a reply whose solve
	// wall reaches 90% of it counts as failed.
	serveBudget = 10 * time.Second
	// Step limits bound every backend's search in a served solve, so a
	// request's work does not depend on how fast the host runs. Small
	// instances get a limit no routed proof reaches (routing must not
	// fall back for lack of steps); medium ones race the portfolio, and
	// their limit sets what a race costs.
	smallStepLimit = 5_000_000
	raceStepLimit  = 50_000
	// solveWorkers runs each request's portfolio race on one goroutine:
	// two connections times two service workers then keep the two CPUs
	// busy without oversubscribing them, so a small request does not
	// queue for a CPU behind another connection's two-way race.
	solveWorkers = 1
	// serveRetained bounds the finished jobs the service keeps, so the
	// live heap at the end of a run does not grow with how many
	// requests the run finished.
	serveRetained = 256
)

// Headers carrying the client's op id and span into the handler
// wrapper, so the server-side span joins the op's trace.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// echoPath is answered by the handler wrapper, not the service. It is a
// stand-in op without the service: it reads the body, keeps its CPU busy
// for as long as hdrHold asks, reports how long it held the request in
// hdrHeld, and replies with as many bytes as hdrReplyBytes asks for.
// A traced op sends its own body there right after its reply, holding
// for as long as its handler ran, so that the stand-in's round trip
// minus its held time measures the HTTP transport of an op of the same
// sizes and a like server residence: connection I/O and the wake-ups of
// the goroutines that parked while the server worked.
const (
	echoPath      = "/perfbench/echo"
	hdrReplyBytes = "X-Perfbench-Reply-Bytes"
	hdrHold       = "X-Perfbench-Hold-Ns"
	hdrHeld       = "X-Perfbench-Held-Ns"
)

// server is the service under test plus its HTTP plumbing.
type server struct {
	svc     *service.Server
	handler http.Handler
	hs      *http.Server
	url     string
	client  *http.Client
	served  chan error
	// tr is the tracer of the running phase; the handler wrapper
	// records its span there.
	tr atomic.Pointer[tracer]
	// handlerSpan maps an op id to the span the wrapper opened for it.
	handlerSpan sync.Map
}

func startServer() (*server, error) {
	svc := service.New(service.Config{
		Workers:         serveWorkers,
		CacheSize:       serveRetained,
		MaxFinishedJobs: serveRetained,
		MaxBudget:       serveBudget,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	s := &server{
		svc:     svc,
		handler: svc.Handler(),
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	s.tr.Store(untraced)
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	code, _, err := s.do(http.MethodGet, "/healthz", nil, 0, 0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz answered %d", code)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ServeHTTP wraps the service's handler in a span and answers echoPath.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == echoPath {
		start := time.Now()
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get(hdrReplyBytes))
		hold, _ := strconv.ParseInt(r.Header.Get(hdrHold), 10, 64)
		for time.Since(start) < time.Duration(hold) {
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(hdrHeld, strconv.FormatInt(int64(time.Since(start)), 10))
		_, _ = w.Write(make([]byte, n))
		return
	}
	tr := s.tr.Load()
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	var id int64
	if parent != 0 {
		id = tr.begin(req, parent, "service.handler")
		s.handlerSpan.Store(req, id)
	}
	s.handler.ServeHTTP(w, r)
	tr.end(id)
}

// do sends one request and reads the whole reply. req and parent tie
// the handler span to the client's op (0 = untraced).
func (s *server) do(method, path string, body []byte, req, parent int64) (int, []byte, error) {
	hr, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if parent != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// transportHoldMax caps a stand-in's hold: by then the client's
// goroutines have long parked, so a longer hold adds time but changes
// nothing the stand-in measures.
const transportHoldMax = 2 * time.Millisecond

// transport sends three stand-in ops through echoPath with the given
// body, a reply of replyLen bytes and the given hold (at most
// transportHoldMax), and returns the median of their round trips minus
// the time the server held them. The median keeps a GC pause or a burst
// on the other connection during one stand-in off the op.
func (s *server) transport(body []byte, replyLen int, hold time.Duration) (time.Duration, error) {
	hold = min(hold, transportHoldMax)
	var ds [3]time.Duration
	for i := range ds {
		hr, err := http.NewRequest(http.MethodPost, s.url+echoPath, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		hr.Header.Set(hdrReplyBytes, strconv.Itoa(replyLen))
		hr.Header.Set(hdrHold, strconv.FormatInt(int64(hold), 10))
		hr.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := s.client.Do(hr)
		if err != nil {
			return 0, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		held, perr := strconv.ParseInt(resp.Header.Get(hdrHeld), 10, 64)
		if resp.StatusCode != http.StatusOK || len(out) != replyLen || perr != nil {
			return 0, fmt.Errorf("echo answered %d with %d of %d bytes, held %q",
				resp.StatusCode, len(out), replyLen, resp.Header.Get(hdrHeld))
		}
		ds[i] = d - time.Duration(held)
	}
	sort.Slice(ds[:], func(a, b int) bool { return ds[a] < ds[b] })
	return ds[1], nil
}

// handlerSpanOf returns and forgets the handler span of an op.
func (s *server) handlerSpanOf(req int64) int64 {
	v, ok := s.handlerSpan.LoadAndDelete(req)
	if !ok {
		return 0
	}
	return v.(int64)
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a drain that times out still stops the listener
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.client.CloseIdleConnections()
	s.svc.Shutdown(ctx)
}

// serviceCounts is the part of the service's metrics snapshot the
// benchmark reports, so a phase can report its own share.
type serviceCounts struct {
	hits, misses, seeded, hintHits, rejected, routed, fallbacks int64
	queueCount                                                  int64
	queueSumMS                                                  float64
}

// minus is the change from b to a.
func (a serviceCounts) minus(b serviceCounts) serviceCounts {
	return serviceCounts{
		hits: a.hits - b.hits, misses: a.misses - b.misses,
		seeded: a.seeded - b.seeded, hintHits: a.hintHits - b.hintHits, rejected: a.rejected - b.rejected,
		routed: a.routed - b.routed, fallbacks: a.fallbacks - b.fallbacks,
		queueCount: a.queueCount - b.queueCount, queueSumMS: a.queueSumMS - b.queueSumMS,
	}
}

func (s *server) counts() serviceCounts {
	m := s.svc.Manager().Metrics()
	return serviceCounts{
		hits: m.Cache.Hits, misses: m.Cache.Misses,
		seeded: m.WarmStarts.Seeded, hintHits: m.WarmStarts.HintHits, rejected: m.WarmStarts.Rejected,
		routed: m.FastPath.Routed, fallbacks: m.FastPath.Fallback,
		queueCount: m.Latency.QueueWait.Count,
		queueSumMS: m.Latency.QueueWait.MeanMS * float64(m.Latency.QueueWait.Count),
	}
}

// serveStats are the per-layer tallies of a serving phase, kept by the
// client from the replies and from client-side replays.
type serveStats struct {
	mu           sync.Mutex
	ops          int
	raceMS       []float64
	routes       map[string]int
	wins         map[string]int
	objectiveUS  []float64
	tailKept     []float64
	replays      []replay
	start, final serviceCounts
}

func newServeStats() *serveStats {
	return &serveStats{routes: map[string]int{}, wins: map[string]int{}}
}

func (st *serveStats) keep(r replay) {
	st.mu.Lock()
	st.replays = append(st.replays, r)
	st.mu.Unlock()
}

// note records what one reply says about routing and winners. class is
// the router's feature class of the instance.
func (st *serveStats) note(res *service.SolveResult, class string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ops++
	if res.CacheHit {
		return
	}
	if res.Routed {
		st.routes[strings.ReplaceAll(class, "/", "_")+"."+res.Winner]++
	} else {
		st.raceMS = append(st.raceMS, time.Duration(res.Wall).Seconds()*1e3)
	}
	w := res.Winner
	if strings.HasSuffix(w, "+") {
		w = "finisher"
	}
	st.wins[w]++
}

// fill reports the tallies as per-op rates and medians.
func (st *serveStats) fill(a attribution, m map[string]float64) {
	ops := float64(st.ops)
	c := st.final.minus(st.start)
	m["portfolio.routed"] = float64(c.routed) / ops
	m["portfolio.fallbacks"] = float64(c.fallbacks) / ops
	if len(st.raceMS) > 0 {
		m["portfolio.race_ms"] = median(st.raceMS)
	}
	for _, class := range routeClasses {
		for _, b := range routeProvers {
			m["portfolio.route."+class+"."+b] = float64(st.routes[class+"."+b]) / ops
		}
	}
	for _, b := range winnerNames {
		m["portfolio.wins."+b] = float64(st.wins[b]) / ops
	}
	m["service.cache_hits"] = float64(c.hits) / ops
	m["service.cache_misses"] = float64(c.misses) / ops
	m["service.warm_starts"] = float64(c.seeded) / ops
	m["service.warm_hint_hits"] = float64(c.hintHits) / ops
	m["service.warm_rejected"] = float64(c.rejected) / ops
	if c.queueCount > 0 {
		m["service.queue_wait_ms"] = c.queueSumMS / float64(c.queueCount)
	}
	m["model.objective_us"] = median(st.objectiveUS)
	m["model.compile_ms"] = a.SelfMedianMS["model.compile"]
	m["prune.analyze_ms"] = a.SelfMedianMS["prune.analyze"]
	m["codec.decode_us"] = a.SelfMedianMS["codec.decode"] * 1e3
	m["codec.canonicalize_us"] = a.SelfMedianMS["codec.canonicalize"] * 1e3
	m["codec.hash_us"] = a.SelfMedianMS["codec.hash"] * 1e3
	m["codec.encode_us"] = a.SelfMedianMS["codec.encode"] * 1e3
	m["http.transport_ms"] = a.SelfMedianMS["http.transport"]
	m["service.handler_ms"] = a.DurMedianMS["service.handler"]
	m["service.solve_ms"] = a.SelfMedianMS["service.solve"]
	m["service.overhead_ms"] = a.SelfMedianMS["service.handler"]
}

// replay is one traced op's input and reply, kept so that the server
// layers a reply does not report can be timed on the client after the
// measured window, without adding client work between requests.
type replay struct {
	req, handler int64
	body         []byte
	decodeInto   func() any // a fresh value of the request body's type
	reply        any
	in           *model.Instance // the instance the server solved
	// prevPlan is the session plan before a delta (nil for /solve).
	prevPlan []string
}

// replayLayers times, on the client and on each op's own input, the
// server layers a reply does not report: decoding the body, the warm
// order repair of a session delta, canonicalising and hashing the
// instance, compiling it, the pruning analysis, and encoding the reply
// as the service does. The spans become children of the op's handler
// span.
func replayLayers(tr *tracer, rs []replay) {
	for _, r := range rs {
		// Each layer runs three times and reports its median, so a GC
		// pause in one repetition does not land on a single op.
		step := func(name string, f func()) {
			var ds [3]time.Duration
			for i := range ds {
				t := time.Now()
				f()
				ds[i] = time.Since(t)
			}
			sort.Slice(ds[:], func(a, b int) bool { return ds[a] < ds[b] })
			tr.add(r.req, r.handler, name, ds[1])
		}
		step("codec.decode", func() { _ = json.Unmarshal(r.body, r.decodeInto()) })
		if r.prevPlan != nil {
			step("evolve.repair", func() { _, _ = evolve.RepairOrder(r.in, r.prevPlan) })
		}
		var canon *model.Instance
		step("codec.canonicalize", func() { canon, _ = codec.Canonicalize(r.in) })
		step("codec.hash", func() {
			_ = codec.CanonicalHash(canon)
			_ = codec.StructuralHash(canon)
		})
		var c *model.Compiled
		var err error
		step("model.compile", func() { c, err = model.Compile(canon) })
		if err == nil {
			step("prune.analyze", func() { _, _ = prune.Analyze(c, prune.Options{}) })
		}
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		step("codec.encode", func() { _ = enc.Encode(r.reply) })
	}
}

// verify checks a served order against the instance it solves and
// returns the objective ratio to greedy plus the router class of the
// instance. The order is read through the reply's index names, which
// both /solve and session replies carry.
func verify(in *model.Instance, res *service.SolveResult, st *serveStats) (ratio float64, class string, msg string) {
	order := res.Order
	if res.Names != nil {
		pos := make(map[string]int, len(in.Indexes))
		for i, ix := range in.Indexes {
			pos[ix.Name] = i
		}
		order = make([]int, len(res.Names))
		for k, name := range res.Names {
			p, ok := pos[name]
			if !ok {
				return 0, "", fmt.Sprintf("reply names unknown index %q", name)
			}
			order[k] = p
		}
	}
	c, err := model.Compile(in)
	if err != nil {
		return 0, "", "compile: " + err.Error()
	}
	t := time.Now()
	recomputed := c.Objective(order)
	objUS := float64(time.Since(t)) / 1e3
	if msg := checkOrder(in, order, res.Objective, recomputed); msg != "" {
		return 0, "", msg
	}
	cs, _ := prune.Analyze(c, prune.Options{})
	seed := greedy.Solve(c, cs)
	st.mu.Lock()
	st.objectiveUS = append(st.objectiveUS, objUS)
	st.mu.Unlock()
	return res.Objective / c.Objective(seed), portfolio.FeaturesOf(c, cs).Class(), ""
}

// serveFresh sends a distinct seeded instance in every request: about
// 88% small (fast path) and 12% medium (portfolio race), all cold.
type serveFresh struct {
	seed int64
	srv  *server
	next [serveConns]int64 // per-connection request counter
	req  atomic.Int64
	// ratioSum and ratioN are kept per connection, each written only by
	// its own goroutine and summed in connection order, so obj_ratio
	// does not depend on which connection finished first.
	ratioSum [serveConns]float64
	ratioN   [serveConns]int
	stats    *serveStats
}

// Set-up sends one block of warm-up requests before timing starts, so
// the router has sampled its provers before the first timed request.
// The warm-up stream is the same for every seed (its own fixed seed),
// so set-up does the same work whatever the run seed.
const (
	freshWarmup     = freshBlock
	freshWarmupSeed = 20120328
)

func newServeFresh(seed int64) (workload, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w := &serveFresh{seed: seed, srv: srv}
	for k := int64(0); k < freshWarmup; k++ {
		in, params := freshInstance(freshWarmupSeed, -1, k)
		body, err := json.Marshal(solveRequest{Instance: in, Params: params})
		if err != nil {
			srv.close()
			return nil, err
		}
		if code, out, err := srv.do(http.MethodPost, "/solve", body, 0, 0); err != nil || code != http.StatusOK {
			srv.close()
			return nil, fmt.Errorf("warm-up %s: status %d err %v: %.200s", in.Name, code, err, out)
		}
	}
	return w, nil
}

func (w *serveFresh) tailPct() float64 { return 99 }
func (w *serveFresh) close()           { w.srv.close() }
func (w *serveFresh) objRatio() float64 {
	return objRatioOf(w.ratioSum[:], w.ratioN[:])
}

// freshBlock is the request mix of serve-fresh: in every block of 25
// requests of a connection, 3 (12%) are medium instances that race the
// portfolio and the rest are small ones the router fast-paths. Sizes
// cycle through their ranges, so every seed sends the same mix of sizes
// and only the instances' contents differ.
const freshBlock = 25

var freshMedium = map[int64]bool{4: true, 12: true, 20: true}

// freshInstance is request k of a stream (a connection, or the set-up
// warm-up): a pure function of the run seed, the stream and k.
func freshInstance(seed, stream, k int64) (*model.Instance, service.Params) {
	rng := rand.New(rand.NewSource(splitmix(seed, stream, k)))
	cfg := randgen.DefaultConfig()
	steps := int64(smallStepLimit)
	block, pos := k/freshBlock, k%freshBlock
	if freshMedium[pos] {
		mediums := block*int64(len(freshMedium)) + pos/8
		cfg.Indexes = 14 + int(mediums%5) // 14..18: the portfolio race
		steps = raceStepLimit
	} else {
		smalls := block*(freshBlock-int64(len(freshMedium))) + pos
		cfg.Indexes = 5 + int(smalls%8) // 5..12: the fast path
	}
	cfg.Queries = cfg.Indexes
	in := randgen.New(rng, cfg)
	in.Name = fmt.Sprintf("fresh-%d-%d", stream, k)
	return in, service.Params{Budget: service.Duration(serveBudget), StepLimit: steps, Workers: solveWorkers, Seed: rng.Int63()}
}

func objRatioOf(sums []float64, ns []int) float64 {
	var sum float64
	var n int
	for i := range sums {
		sum += sums[i]
		n += ns[i]
	}
	return sum / float64(n)
}

func (w *serveFresh) run(ph *phase) {
	w.stats = newServeStats()
	w.stats.start = w.srv.counts()
	w.srv.tr.Store(ph.tr)
	var wg sync.WaitGroup
	for conn := 0; conn < serveConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for done := 0; ph.more(done); done++ {
				k := w.next[conn]
				w.next[conn]++
				tr, log := ph.pick(done)
				w.solve(tr, log, conn, k)
			}
		}(conn)
	}
	wg.Wait()
	w.stats.final = w.srv.counts()
	w.srv.tr.Store(untraced)
	ph.after = func() { replayLayers(ph.tr, w.stats.replays) }
}

// solveRequest is the JSON envelope POST /solve and POST /sessions take.
type solveRequest struct {
	Instance *model.Instance `json:"instance"`
	service.Params
}

// solve is one op: POST /solve with request k of connection conn.
func (w *serveFresh) solve(tr *tracer, log *opLog, conn int, k int64) {
	in, params := freshInstance(w.seed, int64(conn), k)
	body, err := json.Marshal(solveRequest{Instance: in, Params: params})
	if err != nil {
		log.fail("encode request: %v", err)
		return
	}
	req := w.req.Add(1)
	root := tr.begin(req, 0, "op")
	start := time.Now()
	code, out, err := w.srv.do(http.MethodPost, "/solve", body, req, root)
	d := time.Since(start)
	tr.end(root)
	if err != nil || code != http.StatusOK {
		log.wrongOutput("%s: status %d err %v: %.200s", in.Name, code, err, out)
		return
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		log.wrongOutput("%s: decode reply: %v", in.Name, err)
		return
	}
	if time.Duration(res.Wall) >= serveBudget*9/10 {
		log.fail("%s: solve hit the %v safety budget", in.Name, serveBudget)
		return
	}
	ratio, class, msg := verify(in, &res, w.stats)
	if msg != "" {
		log.wrongOutput("%s: %s", in.Name, msg)
		return
	}
	if h := w.srv.handlerSpanOf(req); h != 0 {
		td, err := w.srv.transport(body, len(out), tr.dur(h))
		if err != nil {
			log.wrongOutput("%s: %v", in.Name, err)
			return
		}
		tr.add(req, root, "http.transport", td)
		tr.add(req, h, "service.solve", time.Duration(res.Wall))
		w.stats.keep(replay{req: req, handler: h, body: body, decodeInto: func() any { return &solveRequest{} }, reply: &res, in: in})
	}
	w.stats.note(&res, class)
	w.ratioSum[conn] += ratio
	w.ratioN[conn]++
	log.ok(d)
}

func (w *serveFresh) layers(a attribution, m map[string]float64) {
	w.stats.fill(a, m)
}
