// Command iddserver runs the asynchronous index-deployment-ordering
// solve service: an HTTP/JSON frontend over the portfolio solver with a
// bounded worker pool, a canonical-hash solution cache with
// single-flight deduplication, and per-job server-sent-event streams of
// incumbent progress.
//
// Usage:
//
//	iddserver -addr :8080 -workers 8 -queue 128 -budget 2s -max-budget 60s
//
// Endpoints:
//
//	POST   /solve             solve synchronously (small instances)
//	POST   /jobs              enqueue an async solve job (202 + job id)
//	GET    /jobs/{id}         job status, result when finished
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /jobs/{id}/events  server-sent events: incumbent progress
//	GET    /jobs/{id}/trace   flight-recorder span timeline of the solve
//	POST   /batch             enqueue N instances as one batch (202 + batch id)
//	GET    /batch/{id}        batch status + per-item results
//	DELETE /batch/{id}        cancel every outstanding batch item
//	GET    /batch/{id}/events server-sent events: per-item completions
//	GET    /batch/{id}/trace  per-item flight-recorder traces
//	POST   /sessions          create a re-solve session (201 + initial plan)
//	GET    /sessions/{id}     session status: plan, revision, last result
//	POST   /sessions/{id}/delta  apply a workload delta, re-solve warm-started
//	GET    /sessions/{id}/events server-sent events: changed plan tails
//	DELETE /sessions/{id}     close the session
//	GET    /solvers           registered backends
//	GET    /healthz           liveness (503 while draining); cluster mode
//	                          adds per-peer membership + health
//	GET    /cluster/health    peer protocol (cluster mode): health gossip
//	POST   /cluster/result    peer protocol: finished-result replication
//	GET    /metrics           JSON snapshot; Prometheus text format with
//	                          ?format=prometheus or Accept: text/plain
//
// Requests carry a tenant id in the X-Tenant header (or a "tenant"
// field / ?tenant= query knob). Dispatch is deficit round-robin across
// per-tenant queues, so one tenant's flood cannot starve another's
// traffic; -tenant-rate/-tenant-burst add per-tenant admission rate
// limits and -tenant-queue a per-tenant queued-run quota. Small
// instances (≤ 12 indexes) skip the portfolio race and run A* straight
// to a proved optimum; one that A* cannot prove within the
// request's budget or step limit falls back to the race.
//
// Sessions make workload drift first-class: POST /sessions solves the
// initial workload and pins its deployment plan; each delta (query
// weight changes, index adds/drops, new plans/precedences, indexes
// marked built) re-solves warm-started from the previous incumbent,
// repaired against the delta, and the session's event stream carries
// only the changed tail of the plan.
//
// Distributed cluster mode: pass every member's URL via -peers (the
// same list on every node) plus this node's own reachable URL via
// -advertise, and the servers form a coordinator-free solve cluster:
//
//	iddserver -addr :8080 -advertise http://10.0.0.1:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// Any node accepts any request. Solve submissions are routed by
// consistent hash of the canonical instance to their owning node (so
// the solution cache and single-flight dedup keep their hit rates
// cluster-wide), job/batch/session ids are node-prefixed and proxied to
// their home node, and finished results replicate to every peer, which
// serves the identical request from its cache. /healthz gains a cluster section with
// per-peer health; /metrics gains idd_cluster_* counters.
// -gossip-interval tunes the peer protocol.
//
// -debug-addr starts a SECOND listener (off by default) exposing only
// net/http/pprof — profiles never share a port with solve traffic, so
// the main address can be exposed while the debug one stays loopback:
//
//	iddserver -addr :8080 -debug-addr 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//	curl -s 'http://127.0.0.1:6060/debug/pprof/trace?seconds=3' > trace.out && go tool trace trace.out
//
// Request bodies are either a JSON envelope
// {"instance": {...}, "budget": "2s", "backends": ["cp","vns"], ...}
// or a compact text matrix file with the same knobs as URL query
// parameters (?budget=2s&backends=cp,vns&priority=5&seed=1).
// GET /solvers lists the valid backends.
//
// On SIGINT/SIGTERM the server stops accepting work and drains queued
// and running jobs for up to -drain before cancelling what remains.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/evolving-olap/idd/internal/cluster"
	"github.com/evolving-olap/idd/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queueCap  = flag.Int("queue", 64, "queued-solve capacity before 429s")
		cacheSize = flag.Int("cache", 256, "solution cache entries")
		budget    = flag.Duration("budget", 2*time.Second, "default per-job solve budget")
		maxBudget = flag.Duration("max-budget", 60*time.Second, "budget ceiling per job")
		maxIdx    = flag.Int("max-indexes", 512, "largest accepted instance")
		maxBody   = flag.Int64("max-body", 8<<20, "request body byte limit")
		retain    = flag.Int("retain", 4096, "finished jobs kept queryable before eviction")
		drain     = flag.Duration("drain", 15*time.Second, "graceful shutdown drain window")
		debugAddr = flag.String("debug-addr", "", "separate net/http/pprof listener (empty = disabled; keep it loopback)")

		peers          = flag.String("peers", "", "comma-separated base URLs of every cluster member (empty = single node)")
		advertise      = flag.String("advertise", "", "this node's reachable base URL (required with -peers)")
		gossipInterval = flag.Duration("gossip-interval", time.Second, "peer health probe cadence")

		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant sustained submissions/sec (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant submission burst (0 = 2×rate+1)")
		tenantQueue = flag.Int("tenant-queue", 0, "per-tenant queued-run quota (0 = no per-tenant cap)")
		maxBatch    = flag.Int("max-batch", 64, "instances accepted per POST /batch")
	)
	flag.Parse()

	svcCfg := service.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		CacheSize:       *cacheSize,
		DefaultBudget:   *budget,
		MaxBudget:       *maxBudget,
		MaxIndexes:      *maxIdx,
		MaxBodyBytes:    *maxBody,
		MaxFinishedJobs: *retain,

		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		TenantQueueCap: *tenantQueue,
		MaxBatchItems:  *maxBatch,
	}

	var (
		srv     *service.Server
		node    *cluster.Node
		handler http.Handler
	)
	if *peers != "" {
		if *advertise == "" {
			log.Fatal("iddserver: -peers requires -advertise (this node's reachable URL)")
		}
		var err error
		node, err = cluster.New(cluster.Config{
			Self:           *advertise,
			Peers:          strings.Split(*peers, ","),
			GossipInterval: *gossipInterval,
		}, svcCfg)
		if err != nil {
			log.Fatalf("iddserver: %v", err)
		}
		srv = node.Server()
		handler = node.Handler()
		node.Start()
		log.Printf("iddserver: cluster node %s (%s), %d peers configured",
			node.Name(), *advertise, len(strings.Split(*peers, ",")))
	} else {
		srv = service.New(svcCfg)
		handler = srv.Handler()
	}
	httpSrv := newHTTPServer(*addr, handler, readHeaderTimeout, idleTimeout)

	errc := make(chan error, 1)
	go func() {
		log.Printf("iddserver: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	// The profiling listener is its own mux with only the pprof handlers
	// registered explicitly — nothing from http.DefaultServeMux leaks in,
	// and solve traffic never shares a port with the profiler.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = newHTTPServer(*debugAddr, dmux, readHeaderTimeout, idleTimeout)
		go func() {
			log.Printf("iddserver: pprof listening on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("iddserver: pprof listener: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("iddserver: %v — draining for up to %v", sig, *drain)
	case err := <-errc:
		log.Fatalf("iddserver: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if node != nil {
		node.Close() // stop gossip/broadcast loops before draining solves
	}
	srv.Shutdown(ctx) // reject new work, finish the queue, cancel on timeout
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("iddserver: http shutdown: %v", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	log.Printf("iddserver: drained, bye")
}

// Connection timeouts for both listeners: a client gets readHeaderTimeout
// to send a complete request header, and a keep-alive connection closes
// after idleTimeout without a request.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer bounds how long a client may take to send its request
// header and how long a keep-alive connection may sit idle, so slow or
// abandoned clients cannot pin connections open. There is deliberately
// no read or write timeout on the body or response: synchronous solves
// and SSE event streams legitimately run for the whole solve budget.
func newHTTPServer(addr string, h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}
