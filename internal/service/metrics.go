package service

import (
	"errors"
	"time"

	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// solveRateWindow is the sliding window behind solves.per_second: long
// enough to smooth bursts, short enough that an idle-then-busy server
// reports its current rate instead of a lifetime average.
const solveRateWindow = time.Minute

// Metrics aggregates service-wide instruments on a per-Manager
// obs.Registry (not the process default, so several managers — e.g.
// test servers — never collide on metric names). Counters and
// histograms are lock-free on the hot path; the registry renders both
// the JSON snapshot and the Prometheus text format of GET /metrics.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	jobsSubmitted *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter
	jobsRejected  *obs.Counter // queue-full 429s

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// cacheRejected counts cached results dropped on a hit because
	// their order is not a feasible order of the requested instance.
	cacheRejected *obs.Counter
	attached      *obs.Counter // single-flight joins

	solves       *obs.Counter // underlying portfolio runs executed
	solvesProved *obs.Counter
	wins         *obs.CounterVec
	rate         *obs.RateWindow
	// panics counts backend panics the portfolio contained, by backend.
	panics *obs.CounterVec

	// fastpathRouted counts solves the fast path sent straight to one
	// exact backend (by backend); fastpathFallback counts routed
	// attempts that failed to prove and fell back to the full race.
	fastpathRouted   *obs.CounterVec
	fastpathFallback *obs.Counter

	batchesSubmitted *obs.Counter
	batchItems       *obs.Counter

	// Warm-start accounting: warmStarts counts solves seeded with a
	// prior incumbent, warmRejected seeds found infeasible (the run
	// degraded to a cold start), warmHintHits full-key cache misses
	// rescued by the structural-hash hint table.
	warmStarts   *obs.Counter
	warmRejected *obs.Counter
	warmHintHits *obs.Counter

	sessionsCreated *obs.Counter
	sessionDeltas   *obs.Counter

	// Per-tenant accounting, labeled by tenant id.
	tenantSubmitted *obs.CounterVec
	tenantCompleted *obs.CounterVec
	tenantRejected  *obs.CounterVec
	tenantQueueWait *obs.HistogramVec

	// queueWait: submission → solve start, for executed runs.
	// solveWall: the portfolio solve itself.
	// e2e: submission → terminal done, for every completed job
	// (cache hits included — their near-zero latency is the point).
	queueWait *obs.Histogram
	solveWall *obs.Histogram
	e2e       *obs.Histogram
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start: time.Now(),
		reg:   reg,

		jobsSubmitted: reg.Counter("idd_jobs_submitted_total", "Jobs accepted by Submit."),
		jobsCompleted: reg.Counter("idd_jobs_completed_total", "Jobs finished with a result."),
		jobsFailed:    reg.Counter("idd_jobs_failed_total", "Jobs finished with an error."),
		jobsCanceled:  reg.Counter("idd_jobs_canceled_total", "Jobs canceled before completion."),
		jobsRejected:  reg.Counter("idd_jobs_rejected_total", "Submissions rejected because the queue was full."),

		cacheHits:   reg.Counter("idd_cache_hits_total", "Jobs answered from the solution cache."),
		cacheMisses: reg.Counter("idd_cache_misses_total", "Submissions that missed the solution cache."),
		cacheRejected: reg.Counter("idd_cache_rejected_total",
			"Cached results dropped on a hit because their order is not a feasible order of the instance."),
		attached: reg.Counter("idd_singleflight_attached_total", "Jobs that joined an identical in-flight solve."),

		solves:       reg.Counter("idd_solves_total", "Underlying portfolio solves executed."),
		solvesProved: reg.Counter("idd_solves_proved_total", "Solves that ended with an optimality proof."),
		wins:         reg.CounterVec("idd_backend_wins_total", "Winning solves by backend.", "backend"),
		panics:       reg.CounterVec("idd_backend_panics_total", "Backend panics contained by the portfolio, by backend.", "backend"),
		rate:         obs.NewRateWindow(0, solveRateWindow),

		fastpathRouted:   reg.CounterVec("idd_fastpath_routed_total", "Solves served by the fast-path router, by exact backend.", "backend"),
		fastpathFallback: reg.Counter("idd_fastpath_fallback_total", "Routed solves that failed to prove and fell back to the portfolio race."),

		batchesSubmitted: reg.Counter("idd_batches_submitted_total", "Batch requests accepted."),
		batchItems:       reg.Counter("idd_batch_items_total", "Instances submitted through batch requests."),

		warmStarts:   reg.Counter("idd_warm_starts_total", "Solves seeded with a prior incumbent order."),
		warmRejected: reg.Counter("idd_warm_start_rejected_total", "Warm-start seeds rejected as infeasible; the solve degraded to a cold start."),
		warmHintHits: reg.Counter("idd_warm_hint_hits_total", "Cache misses rescued by the structural-hash warm-hint table."),

		sessionsCreated: reg.Counter("idd_sessions_created_total", "Re-solve sessions created."),
		sessionDeltas:   reg.Counter("idd_session_deltas_total", "Workload deltas applied to re-solve sessions."),

		tenantSubmitted: reg.CounterVec("idd_tenant_jobs_submitted_total", "Jobs accepted, by tenant.", "tenant"),
		tenantCompleted: reg.CounterVec("idd_tenant_jobs_completed_total", "Jobs finished with a result, by tenant.", "tenant"),
		tenantRejected:  reg.CounterVec("idd_tenant_jobs_rejected_total", "Submissions rejected (rate limit, quota or full queue), by tenant.", "tenant"),
		tenantQueueWait: reg.HistogramVec("idd_tenant_queue_wait_seconds", "Time from submission to solve start, by tenant.", "tenant", nil),

		queueWait: reg.Histogram("idd_queue_wait_seconds", "Time from submission to solve start.", nil),
		solveWall: reg.Histogram("idd_solve_wall_seconds", "Wall-clock time of the portfolio solve.", nil),
		e2e:       reg.Histogram("idd_request_duration_seconds", "Time from submission to job completion.", nil),
	}
	return m
}

// bindGauges registers the render-time gauges that read live Manager
// state. Called once from NewManager, after the cache exists; the
// closures lock mgr.mu, so no caller may render while holding it.
func (m *Metrics) bindGauges(mgr *Manager) {
	m.reg.GaugeFunc("idd_uptime_seconds", "Seconds since the manager started.",
		func() float64 { return time.Since(m.start).Seconds() })
	m.reg.GaugeFunc("idd_workers", "Size of the solve worker pool.",
		func() float64 { return float64(mgr.cfg.Workers) })
	m.reg.GaugeFunc("idd_queue_depth", "Runs queued but not yet executing.",
		func() float64 {
			mgr.mu.Lock()
			defer mgr.mu.Unlock()
			return float64(mgr.sched.len())
		})
	m.reg.GaugeFunc("idd_jobs_running", "Runs currently executing.",
		func() float64 {
			mgr.mu.Lock()
			defer mgr.mu.Unlock()
			return float64(mgr.running)
		})
	m.reg.GaugeFunc("idd_cache_entries", "Entries in the solution cache.",
		func() float64 { return float64(mgr.cache.len()) })
}

func (m *Metrics) recordSolve(winner string, proved bool, wall time.Duration) {
	m.solves.Inc()
	m.rate.Mark(time.Now())
	m.solveWall.ObserveDuration(wall)
	if proved {
		m.solvesProved.Inc()
	}
	if winner != "" {
		m.wins.With(winner).Inc()
	}
}

// recordPanics counts the backends of one portfolio run that panicked.
func (m *Metrics) recordPanics(backends []portfolio.BackendResult) {
	for _, b := range backends {
		var pe *portfolio.PanicError
		if errors.As(b.Err, &pe) {
			m.panics.With(b.Name).Inc()
		}
	}
}

// LatencySummary is the JSON digest of one latency histogram. The
// quantiles are estimated from the fixed exposition buckets (the same
// numbers a PromQL histogram_quantile over the text format would give).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func summarize(h *obs.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean() * 1e3,
		P50MS:  h.Quantile(0.50) * 1e3,
		P95MS:  h.Quantile(0.95) * 1e3,
		P99MS:  h.Quantile(0.99) * 1e3,
	}
}

// MetricsSnapshot is the JSON wire form of GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	Running       int     `json:"running"`

	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		Rejected  int64 `json:"rejected_queue_full"`
	} `json:"jobs"`

	Cache struct {
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		Rejected int64   `json:"rejected"`
		HitRate  float64 `json:"hit_rate"`
		Size     int     `json:"size"`
		Cap      int     `json:"cap"`
	} `json:"cache"`

	// SingleFlightAttached counts jobs that joined an identical
	// in-flight solve instead of spawning their own.
	SingleFlightAttached int64 `json:"singleflight_attached"`

	// Tenants is per-tenant accounting: submissions, completions,
	// rejections and current queue depth (Prometheus carries the same
	// series as idd_tenant_* with a tenant label, plus queue-wait
	// histograms).
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`

	FastPath struct {
		// Routed counts solves the fast path served with a single exact
		// backend; Fallback counts routed attempts that had to rerun as a
		// full race. ByBackend splits Routed by backend.
		Routed    int64            `json:"routed"`
		Fallback  int64            `json:"fallback"`
		ByBackend map[string]int64 `json:"by_backend,omitempty"`
	} `json:"fastpath"`

	Batches struct {
		Submitted int64 `json:"submitted"`
		Items     int64 `json:"items"`
	} `json:"batches"`

	// WarmStarts is warm-start admission accounting: Seeded solves ran
	// from a prior incumbent, Rejected seeds were infeasible under the
	// new instance (those solves degraded to cold starts), HintHits are
	// cache misses rescued by the structural-hash hint table.
	WarmStarts struct {
		Seeded   int64 `json:"seeded"`
		Rejected int64 `json:"rejected"`
		HintHits int64 `json:"hint_hits"`
	} `json:"warm_starts"`

	Sessions struct {
		Created int64 `json:"created"`
		Deltas  int64 `json:"deltas"`
	} `json:"sessions"`

	Solves struct {
		Count  int64 `json:"count"`
		Proved int64 `json:"proved"`
		// PerSecond is the solve rate over the last minute (sliding
		// window), not a lifetime average — an idle-then-busy server
		// reports its current rate.
		PerSecond   float64          `json:"per_second"`
		AvgWallMS   float64          `json:"avg_wall_ms"`
		BackendWins map[string]int64 `json:"backend_wins"`
	} `json:"solves"`

	Latency struct {
		QueueWait LatencySummary `json:"queue_wait"`
		SolveWall LatencySummary `json:"solve_wall"`
		E2E       LatencySummary `json:"e2e"`
	} `json:"latency"`
}

// TenantSnapshot is one tenant's row in the JSON metrics snapshot.
type TenantSnapshot struct {
	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Rejected   int64 `json:"rejected,omitempty"`
	QueueDepth int   `json:"queue_depth,omitempty"`
}

func (m *Metrics) snapshot(workers, queueDepth, queueCap, running, cacheSize, cacheCap int,
	tenantDepths map[string]int) MetricsSnapshot {
	var s MetricsSnapshot
	s.UptimeSeconds = time.Since(m.start).Seconds()
	s.Workers = workers
	s.QueueDepth = queueDepth
	s.QueueCap = queueCap
	s.Running = running

	s.Jobs.Submitted = m.jobsSubmitted.Value()
	s.Jobs.Completed = m.jobsCompleted.Value()
	s.Jobs.Failed = m.jobsFailed.Value()
	s.Jobs.Canceled = m.jobsCanceled.Value()
	s.Jobs.Rejected = m.jobsRejected.Value()

	s.Cache.Hits = m.cacheHits.Value()
	s.Cache.Misses = m.cacheMisses.Value()
	s.Cache.Rejected = m.cacheRejected.Value()
	if total := s.Cache.Hits + s.Cache.Misses; total > 0 {
		s.Cache.HitRate = float64(s.Cache.Hits) / float64(total)
	}
	s.Cache.Size = cacheSize
	s.Cache.Cap = cacheCap

	s.SingleFlightAttached = m.attached.Value()

	sub := m.tenantSubmitted.Snapshot()
	comp := m.tenantCompleted.Snapshot()
	rej := m.tenantRejected.Snapshot()
	if len(sub) > 0 || len(rej) > 0 || len(tenantDepths) > 0 {
		s.Tenants = make(map[string]TenantSnapshot)
		for tenant := range sub {
			row := s.Tenants[tenant]
			row.Submitted = sub[tenant]
			s.Tenants[tenant] = row
		}
		for tenant := range comp {
			row := s.Tenants[tenant]
			row.Completed = comp[tenant]
			s.Tenants[tenant] = row
		}
		for tenant := range rej {
			row := s.Tenants[tenant]
			row.Rejected = rej[tenant]
			s.Tenants[tenant] = row
		}
		for tenant, depth := range tenantDepths {
			row := s.Tenants[tenant]
			row.QueueDepth = depth
			s.Tenants[tenant] = row
		}
	}

	s.FastPath.ByBackend = m.fastpathRouted.Snapshot()
	for _, n := range s.FastPath.ByBackend {
		s.FastPath.Routed += n
	}
	s.FastPath.Fallback = m.fastpathFallback.Value()

	s.Batches.Submitted = m.batchesSubmitted.Value()
	s.Batches.Items = m.batchItems.Value()

	s.WarmStarts.Seeded = m.warmStarts.Value()
	s.WarmStarts.Rejected = m.warmRejected.Value()
	s.WarmStarts.HintHits = m.warmHintHits.Value()

	s.Sessions.Created = m.sessionsCreated.Value()
	s.Sessions.Deltas = m.sessionDeltas.Value()

	s.Solves.Count = m.solves.Value()
	s.Solves.Proved = m.solvesProved.Value()
	s.Solves.PerSecond = m.rate.Rate(time.Now())
	if s.Solves.Count > 0 {
		s.Solves.AvgWallMS = m.solveWall.Mean() * 1e3
	}
	s.Solves.BackendWins = m.wins.Snapshot()

	s.Latency.QueueWait = summarize(m.queueWait)
	s.Latency.SolveWall = summarize(m.solveWall)
	s.Latency.E2E = summarize(m.e2e)
	return s
}
