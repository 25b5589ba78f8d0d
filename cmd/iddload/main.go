// Command iddload is an open-loop load generator for iddserver: it
// fires a Poisson stream of mixed-size solve requests across a set of
// tenants and reports solves/sec, error rate, and p50/p99 latency per
// size class — the serving-side counterpart of iddbench.
//
// Arrivals are open-loop: each request is dispatched at its scheduled
// instant regardless of how many are still outstanding, so a slow
// server shows up as latency (and eventually 429s), never as a
// politely reduced offered load. The schedule — arrival times, sizes,
// tenants, instance seeds — is derived deterministically from -seed, so
// two runs offer byte-identical workloads.
//
// Modes:
//
//	iddload -target http://host:8080      drive a live server or cluster
//	                                      node (-addr is an alias)
//	iddload                               serve in-process (no network)
//	iddload -compare-routing              in-process, run the identical
//	                                      schedule twice: fast-path
//	                                      routing on, then disabled —
//	                                      the BENCH_serve.json protocol
//	iddload -compare-cluster              in-process, run the identical
//	                                      schedule against one node and
//	                                      then an N-node cluster
//	                                      (round-robin submission) — the
//	                                      BENCH_serve.json "cluster"
//	                                      section protocol
//
// When -target points at one member of a cluster, that node routes each
// request to its ring owner itself; pass any member's URL.
//
// The -json report stamps cpus/gomaxprocs so checked-in numbers stay
// honest across runners; see scripts/bench.sh --section serve and
// --section cluster. A cluster on a single shared CPU measures ~1x
// throughput by construction (every node contends for the same core);
// rerun on real multi-machine or multi-core hardware for the real
// curve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/cluster"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

type arrival struct {
	at     time.Duration // offset from run start
	class  string        // "small" | "medium"
	tenant string
	in     *model.Instance
}

// schedule generates the deterministic open-loop workload: exponential
// inter-arrivals at -rate, size class by -small-frac, tenant uniform,
// one freshly generated instance per request (distinct seeds, so the
// solution cache cannot trivialize the run).
func schedule(seed int64, rate float64, duration time.Duration, smallFrac float64, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var t float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= duration {
			return out
		}
		class, n := "small", 5+rng.Intn(8) // 5..12: inside the fast-path window
		if rng.Float64() >= smallFrac {
			class, n = "medium", 14+rng.Intn(5) // 14..18: always a portfolio race
		}
		cfg := randgen.DefaultConfig()
		cfg.Indexes = n
		cfg.Queries = 3 + (3*n)/4
		out = append(out, arrival{
			at:     at,
			class:  class,
			tenant: fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
			in:     randgen.New(rand.New(rand.NewSource(seed<<20+int64(i))), cfg),
		})
	}
}

type sample struct {
	class   string
	latency time.Duration
	routed  bool
	cached  bool
	err     string
}

// classStats is the per-size-class slice of a run report.
type classStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Routed   int     `json:"routed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

type runReport struct {
	Name         string                `json:"name"`
	Requests     int                   `json:"requests"`
	Errors       int                   `json:"errors"`
	ErrorRate    float64               `json:"error_rate"`
	SolvesPerSec float64               `json:"solves_per_sec"`
	P50Ms        float64               `json:"p50_ms"`
	P99Ms        float64               `json:"p99_ms"`
	Routed       int                   `json:"routed"`
	CacheHits    int                   `json:"cache_hits"`
	WallS        float64               `json:"wall_s"`
	Classes      map[string]classStats `json:"classes"`
	SampleErrors []string              `json:"sample_errors,omitempty"`
}

type report struct {
	GeneratedBy string      `json:"generated_by"`
	CPUs        int         `json:"cpus"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Rate        float64     `json:"rate_per_sec"`
	DurationS   float64     `json:"duration_s"`
	Tenants     int         `json:"tenants"`
	SmallFrac   float64     `json:"small_frac"`
	Budget      string      `json:"budget"`
	Seed        int64       `json:"seed"`
	Runs        []runReport `json:"runs"`
	// Comparison is present for -compare-routing runs: the small-class
	// fast-path win over portfolio-only routing, same schedule, same
	// process, same hardware.
	Comparison *comparison `json:"comparison,omitempty"`
	// Cluster is present for -compare-cluster runs: the same schedule
	// against a single node and then an N-node cluster, same process,
	// same hardware.
	Cluster *clusterComparison `json:"cluster,omitempty"`
}

type comparison struct {
	SmallP99RatioPortfolioOverFastpath float64 `json:"small_p99_ratio_portfolio_over_fastpath"`
	SmallP50RatioPortfolioOverFastpath float64 `json:"small_p50_ratio_portfolio_over_fastpath"`
	SolvesPerSecFastpath               float64 `json:"solves_per_sec_fastpath"`
	SolvesPerSecPortfolioOnly          float64 `json:"solves_per_sec_portfolio_only"`
}

type clusterComparison struct {
	Nodes                            int     `json:"nodes"`
	SolvesPerSecSingleNode           float64 `json:"solves_per_sec_single_node"`
	SolvesPerSecCluster              float64 `json:"solves_per_sec_cluster"`
	ThroughputRatioClusterOverSingle float64 `json:"throughput_ratio_cluster_over_single"`
	Forwards                         int64   `json:"forwards"`
	ResultsApplied                   int64   `json:"results_applied"`
	// Note qualifies the ratio: N nodes sharing one CPU measure ~1x by
	// construction; the ratio is meaningful only when each node has its
	// own cores.
	Note string `json:"note,omitempty"`
}

func percentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(ms)))) - 1
	if i < 0 {
		i = 0
	}
	return ms[i]
}

// drive replays the schedule against the given base URLs (round-robin
// when more than one — the cluster submission pattern), open-loop, and
// folds the responses into a runReport.
func drive(name string, bases []string, arrivals []arrival, budget time.Duration) runReport {
	client := &http.Client{}
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arrivals {
		a := arrivals[i]
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			s := sample{class: a.class}
			body, err := json.Marshal(map[string]any{
				"instance": a.in,
				"budget":   budget.String(),
			})
			if err != nil {
				s.err = err.Error()
				samples[i] = s
				return
			}
			t0 := time.Now()
			req, _ := http.NewRequest("POST", bases[i%len(bases)]+"/solve", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(service.TenantHeader, a.tenant)
			resp, err := client.Do(req)
			if err != nil {
				s.err = err.Error()
				samples[i] = s
				return
			}
			var result service.SolveResult
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s.latency = time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				s.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
				samples[i] = s
				return
			}
			if err := json.Unmarshal(data, &result); err != nil {
				s.err = err.Error()
			} else {
				s.routed = result.Routed
				s.cached = result.CacheHit
			}
			samples[i] = s
		}(i, a)
	}
	wg.Wait()
	wall := time.Since(start)

	r := runReport{Name: name, Requests: len(samples), WallS: wall.Seconds(),
		Classes: map[string]classStats{}}
	var all []float64
	perClass := map[string][]float64{}
	for _, s := range samples {
		cs := r.Classes[s.class]
		cs.Requests++
		if s.err != "" {
			r.Errors++
			cs.Errors++
			if len(r.SampleErrors) < 5 {
				r.SampleErrors = append(r.SampleErrors, s.err)
			}
			r.Classes[s.class] = cs
			continue
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		perClass[s.class] = append(perClass[s.class], ms)
		if s.routed {
			r.Routed++
			cs.Routed++
		}
		if s.cached {
			r.CacheHits++
		}
		r.Classes[s.class] = cs
	}
	sort.Float64s(all)
	r.P50Ms = percentile(all, 50)
	r.P99Ms = percentile(all, 99)
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if wall > 0 {
		r.SolvesPerSec = float64(len(all)) / wall.Seconds()
	}
	for class, ms := range perClass {
		sort.Float64s(ms)
		cs := r.Classes[class]
		cs.P50Ms = percentile(ms, 50)
		cs.P99Ms = percentile(ms, 99)
		r.Classes[class] = cs
	}
	return r
}

// inprocess starts a loopback iddserver with the given fast-path
// setting and returns its base URL plus a shutdown func.
func inprocess(workers, queue, fastpathMaxN int, budget time.Duration) (string, func()) {
	srv := service.New(service.Config{
		Workers:       workers,
		QueueCap:      queue,
		DefaultBudget: budget,
		MaxBudget:     2 * budget,
		FastPathMaxN:  fastpathMaxN,
	})
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

// inprocessCluster starts k loopback cluster nodes peered with each
// other (listeners bound first so every node knows the full membership
// up front) and returns their base URLs, the nodes, and a shutdown
// func. It blocks until gossip reports every peer up on every node.
func inprocessCluster(k, workers, queue int, budget time.Duration) ([]string, []*cluster.Node, func()) {
	listeners := make([]net.Listener, k)
	urls := make([]string, k)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("iddload: cluster listener: %v", err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*cluster.Node, k)
	srvs := make([]*http.Server, k)
	for i := range nodes {
		node, err := cluster.New(cluster.Config{
			Self:           urls[i],
			Peers:          urls,
			GossipInterval: 100 * time.Millisecond,
		}, service.Config{
			Workers:       workers,
			QueueCap:      queue,
			DefaultBudget: budget,
			MaxBudget:     2 * budget,
		})
		if err != nil {
			log.Fatalf("iddload: cluster node %d: %v", i, err)
		}
		nodes[i] = node
		srvs[i] = &http.Server{Handler: node.Handler()}
		go srvs[i].Serve(listeners[i])
		node.Start()
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := range nodes {
			srvs[i].Close()
			nodes[i].Close()
			nodes[i].Server().Shutdown(ctx)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			for _, p := range n.Snapshot().Peers {
				if p.State != "up" {
					converged = false
				}
			}
		}
		if converged {
			return urls, nodes, stop
		}
		if time.Now().After(deadline) {
			log.Fatal("iddload: cluster gossip did not converge within 10s")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of a live iddserver (empty = serve in-process)")
		target      = flag.String("target", "", "base URL of a live iddserver or cluster node (alias of -addr)")
		workers     = flag.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 1024, "in-process server queue capacity")
		duration    = flag.Duration("duration", 10*time.Second, "arrival window")
		rate        = flag.Float64("rate", 40, "mean arrivals per second (Poisson)")
		tenants     = flag.Int("tenants", 4, "distinct tenant ids in the mix")
		smallFrac   = flag.Float64("small-frac", 0.85, "fraction of arrivals in the small class (5-12 indexes); the rest are medium (14-18)")
		budget      = flag.Duration("budget", 300*time.Millisecond, "per-solve budget")
		seed        = flag.Int64("seed", 1, "workload seed (schedule + instances)")
		compare     = flag.Bool("compare-routing", false, "in-process only: run the identical schedule twice, fast-path on then disabled")
		compareClus = flag.Bool("compare-cluster", false, "in-process only: run the identical schedule against one node, then an N-node cluster")
		clusterN    = flag.Int("cluster-nodes", 3, "cluster size for -compare-cluster")
		jsonOut     = flag.String("json", "", "write the full report to this file ('-' = stdout)")
		maxErrRate  = flag.Float64("max-error-rate", -1, "exit nonzero if any run's error rate exceeds this (negative = never)")
	)
	flag.Parse()

	if *target != "" {
		if *addr != "" && *addr != *target {
			log.Fatal("iddload: -addr and -target are aliases; pass one")
		}
		*addr = *target
	}
	if *compare && *addr != "" {
		log.Fatal("iddload: -compare-routing serves in-process; it cannot toggle routing on a remote server (drop -addr/-target)")
	}
	if *compareClus && *addr != "" {
		log.Fatal("iddload: -compare-cluster serves in-process; to drive a live cluster, pass -target without it")
	}
	if *compareClus && *compare {
		log.Fatal("iddload: pick one of -compare-routing / -compare-cluster")
	}
	if *compareClus && *clusterN < 2 {
		log.Fatal("iddload: -cluster-nodes must be at least 2")
	}

	arrivals := schedule(*seed, *rate, *duration, *smallFrac, *tenants)
	log.Printf("iddload: %d arrivals over %v (%.0f/s offered, %d tenants, %.0f%% small)",
		len(arrivals), *duration, *rate, *tenants, *smallFrac*100)

	rep := report{
		GeneratedBy: "cmd/iddload",
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Rate:        *rate,
		DurationS:   duration.Seconds(),
		Tenants:     *tenants,
		SmallFrac:   *smallFrac,
		Budget:      budget.String(),
		Seed:        *seed,
	}

	logRun := func(r runReport) {
		log.Printf("iddload: %-15s %5d ok %3d err  %7.1f solves/s  p50 %7.1fms  p99 %7.1fms  routed %d",
			r.Name, r.Requests-r.Errors, r.Errors, r.SolvesPerSec, r.P50Ms, r.P99Ms, r.Routed)
		for _, class := range []string{"small", "medium"} {
			if cs, ok := r.Classes[class]; ok {
				log.Printf("iddload:   %-8s %5d req %3d err  p50 %7.1fms  p99 %7.1fms  routed %d",
					class, cs.Requests, cs.Errors, cs.P50Ms, cs.P99Ms, cs.Routed)
			}
		}
	}

	run := func(name string, fastpathMaxN int) runReport {
		base := *addr
		if base == "" {
			var stop func()
			base, stop = inprocess(*workers, *queue, fastpathMaxN, *budget)
			defer stop()
		}
		log.Printf("iddload: run %q against %s", name, base)
		r := drive(name, []string{base}, arrivals, *budget)
		logRun(r)
		return r
	}

	if *compareClus {
		base, stopSingle := inprocess(*workers, *queue, 0, *budget)
		log.Printf("iddload: run \"single_node\" against %s", base)
		single := drive("single_node", []string{base}, arrivals, *budget)
		stopSingle()
		logRun(single)

		urls, nodes, stopCluster := inprocessCluster(*clusterN, *workers, *queue, *budget)
		log.Printf("iddload: run \"cluster_%dnode\" round-robin across %v", *clusterN, urls)
		clus := drive(fmt.Sprintf("cluster_%dnode", *clusterN), urls, arrivals, *budget)
		cc := &clusterComparison{
			Nodes:                  *clusterN,
			SolvesPerSecSingleNode: single.SolvesPerSec,
			SolvesPerSecCluster:    clus.SolvesPerSec,
		}
		for _, n := range nodes {
			snap := n.Snapshot()
			cc.Forwards += snap.Forwards
			cc.ResultsApplied += snap.ResultsApplied
		}
		stopCluster()
		logRun(clus)
		if single.SolvesPerSec > 0 {
			cc.ThroughputRatioClusterOverSingle = clus.SolvesPerSec / single.SolvesPerSec
		}
		if runtime.NumCPU() < 2**clusterN {
			cc.Note = fmt.Sprintf("%d nodes share %d CPU(s) in one process: the ratio measures routing overhead, not scale-out; rerun across real machines for the throughput curve", *clusterN, runtime.NumCPU())
		}
		rep.Runs = []runReport{single, clus}
		rep.Cluster = cc
		log.Printf("iddload: cluster/single throughput = %.2fx (forwards %d, results replicated %d)",
			cc.ThroughputRatioClusterOverSingle, cc.Forwards, cc.ResultsApplied)
	} else if *compare {
		fast := run("fastpath", 0)        // 0 = service default threshold
		slow := run("portfolio_only", -1) // negative disables routing
		rep.Runs = []runReport{fast, slow}
		cmp := &comparison{
			SolvesPerSecFastpath:      fast.SolvesPerSec,
			SolvesPerSecPortfolioOnly: slow.SolvesPerSec,
		}
		fs, ss := fast.Classes["small"], slow.Classes["small"]
		if fs.P99Ms > 0 {
			cmp.SmallP99RatioPortfolioOverFastpath = ss.P99Ms / fs.P99Ms
		}
		if fs.P50Ms > 0 {
			cmp.SmallP50RatioPortfolioOverFastpath = ss.P50Ms / fs.P50Ms
		}
		rep.Comparison = cmp
		log.Printf("iddload: small-class p99 portfolio/fastpath = %.2fx, p50 = %.2fx",
			cmp.SmallP99RatioPortfolioOverFastpath, cmp.SmallP50RatioPortfolioOverFastpath)
	} else {
		rep.Runs = []runReport{run("load", 0)}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		} else {
			log.Printf("iddload: wrote %s", *jsonOut)
		}
	}

	if *maxErrRate >= 0 {
		for _, r := range rep.Runs {
			if r.ErrorRate > *maxErrRate {
				log.Printf("iddload: run %q error rate %.3f exceeds -max-error-rate %.3f", r.Name, r.ErrorRate, *maxErrRate)
				for _, e := range r.SampleErrors {
					log.Printf("iddload:   sample error: %s", e)
				}
				os.Exit(2)
			}
		}
	}
}
