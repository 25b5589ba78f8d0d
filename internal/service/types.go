// Package service is the iddserver subsystem: a long-running HTTP/JSON
// solve service multiplexing many concurrent deployment-ordering
// requests over the portfolio orchestrator. It adds what a library call
// cannot provide: a bounded worker pool with priorities, queue
// backpressure and graceful drain; a canonical-hash solution cache with
// single-flight deduplication (concurrent identical requests share one
// solve); and per-job server-sent event streams relaying every incumbent
// improvement as the portfolio finds it.
//
// Observability is built on internal/obs: every job carries a
// flight-recorder trace of all its timestamped spans, kept as long as
// the job is (the retention cap is a job's one memory bound), and the
// manager keeps Prometheus-convention counters and latency histograms
// (queue wait, solve wall, end-to-end) on a per-manager registry.
//
// The service is multi-tenant: requests carry a tenant id (X-Tenant
// header or "tenant" field), dispatch is deficit round-robin across
// per-tenant queues so one tenant's flood cannot starve another's
// sparse traffic, and optional per-tenant rate limits and queue quotas
// bound admission. Small instances skip the portfolio race entirely: the
// fast path sends them straight to A* (falling back to the race if the
// proof doesn't land), which returns the identical proved optimum at a
// fraction of the overhead.
//
// Re-solve sessions make workload drift a first-class operation: a
// session holds an instance and its deployed plan; POST deltas (query
// weight changes, index adds/drops, new plans/precedences) re-solve
// warm-started from the previous incumbent, repaired against the delta,
// and the session's SSE stream carries only the changed tail of the
// plan. The solution cache is delta-aware underneath: a structural hash
// (names and shapes, no float parameters) lets a weight-only change
// reuse the previous order as a warm seed instead of missing outright.
//
// Endpoints (see cmd/iddserver and the README for the wire details):
//
//	POST   /solve             solve synchronously (small instances)
//	POST   /jobs              enqueue an async solve job
//	GET    /jobs/{id}         job status + result when finished
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /jobs/{id}/events  server-sent events: incumbent progress
//	GET    /jobs/{id}/trace   flight-recorder span timeline of the solve
//	POST   /batch             enqueue N instances as one batch
//	GET    /batch/{id}        batch status + per-item results
//	DELETE /batch/{id}        cancel every outstanding batch item
//	GET    /batch/{id}/events server-sent events: per-item completions
//	GET    /batch/{id}/trace  per-item flight-recorder traces
//	POST   /sessions          create a re-solve session (initial solve)
//	GET    /sessions/{id}     session status: plan, revision, last result
//	POST   /sessions/{id}/delta  apply a workload delta, re-solve warm
//	GET    /sessions/{id}/events server-sent events: changed plan tails
//	DELETE /sessions/{id}     close the session
//	GET    /solvers           registered backends
//	GET    /healthz           liveness (503 while draining)
//	GET    /metrics           JSON snapshot, or Prometheus text with
//	                          ?format=prometheus / Accept: text/plain
package service

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/evolving-olap/idd/internal/model"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s") and unmarshals from either a duration string or a number of
// seconds.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "2s"-style strings or plain numbers (seconds).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
	case float64:
		*d = Duration(time.Duration(x * float64(time.Second)))
	default:
		return fmt.Errorf("bad duration %v (want string or seconds)", v)
	}
	return nil
}

// Params are the per-request solve knobs. All fields are optional; the
// server clamps Budget to its configured maximum and fills defaults.
// Every field except Priority and Tenant contributes to the
// cache/single-flight key — two requests dedupe only when they would
// run identically (identical solves dedupe across tenants on purpose;
// the result is a pure function of the instance and knobs).
type Params struct {
	// Budget is the wall-clock solve budget (default/maximum from the
	// server config).
	Budget Duration `json:"budget,omitempty"`
	// Backends restricts the portfolio backend set (empty = auto).
	Backends []string `json:"backends,omitempty"`
	// Workers bounds concurrent backends inside the portfolio run
	// (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Seed drives the randomized backends.
	Seed int64 `json:"seed,omitempty"`
	// StepLimit bounds per-backend search steps (0 = none); useful for
	// reproducible tests.
	StepLimit int64 `json:"step_limit,omitempty"`
	// Priority orders the job queue: higher runs earlier (FIFO within a
	// priority). Not part of the dedup key.
	Priority int `json:"priority,omitempty"`
	// Prune toggles the §5 pruning analysis before the solve
	// (nil = true).
	Prune *bool `json:"prune,omitempty"`
	// Tenant attributes the request for fair scheduling, rate limits and
	// per-tenant metrics (the X-Tenant header overrides it; empty means
	// the shared "default" tenant). Not part of the dedup key.
	Tenant string `json:"tenant,omitempty"`
}

func (p Params) pruneEnabled() bool { return p.Prune == nil || *p.Prune }

// solveRequest is the JSON envelope accepted by POST /solve and
// POST /jobs. Compact text-format bodies carry the same knobs as URL
// query parameters instead.
type solveRequest struct {
	Instance *model.Instance `json:"instance"`
	Params
}

// BackendSummary is per-backend telemetry in a solve result. Objective
// is omitted when the backend produced nothing (the +Inf sentinel is not
// representable in JSON).
type BackendSummary struct {
	Name         string   `json:"name"`
	Objective    *float64 `json:"objective,omitempty"`
	Proved       bool     `json:"proved,omitempty"`
	Improvements int      `json:"improvements,omitempty"`
	Iterations   int64    `json:"iterations,omitempty"`
	Wall         Duration `json:"wall,omitempty"`
	Error        string   `json:"error,omitempty"`
	Skipped      bool     `json:"skipped,omitempty"`
	// Counters are the backend's engine counters under stable snake_case
	// keys — e.g. cp's prune-cause breakdown (pruned_incumbent,
	// pruned_tail, pruned_memo, infeasible — summing to fails) and the
	// local searches' steps/accepted/adopted.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// SolveResult is the outcome of one solve, in the coordinate space of
// the requesting instance (Order[k] indexes into the submitted
// Instance.Indexes; Names mirrors it by name).
type SolveResult struct {
	Order        []int            `json:"order"`
	Names        []string         `json:"names"`
	Objective    float64          `json:"objective"`
	DeployTime   float64          `json:"deploy_time"`
	BaseRuntime  float64          `json:"base_runtime"`
	FinalRuntime float64          `json:"final_runtime"`
	Proved       bool             `json:"proved"`
	Winner       string           `json:"winner,omitempty"`
	Wall         Duration         `json:"wall"`
	Backends     []BackendSummary `json:"backends,omitempty"`
	// CacheHit marks a result served from the solution cache; Shared
	// marks a job that attached to an identical in-flight solve
	// (single-flight deduplication).
	CacheHit bool `json:"cache_hit,omitempty"`
	Shared   bool `json:"shared,omitempty"`
	// Routed marks a solve served by the fast path: the instance went
	// straight to one exact backend (Winner) instead of racing the
	// portfolio, and that backend proved the optimum.
	Routed bool `json:"routed,omitempty"`
	// WarmStarted marks a solve seeded with a prior incumbent (an
	// explicit session/SubmitWarm order or a structural-hash cache hint)
	// instead of the cold greedy order. Guaranteed never worse than its
	// seed; absent when the seed was rejected and the run degraded to a
	// cold start.
	WarmStarted bool `json:"warm_started,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID         string       `json:"id"`
	State      string       `json:"state"`
	Hash       string       `json:"hash"`
	Instance   string       `json:"instance,omitempty"`
	Tenant     string       `json:"tenant,omitempty"`
	Priority   int          `json:"priority,omitempty"`
	QueuedAt   time.Time    `json:"queued_at"`
	StartedAt  *time.Time   `json:"started_at,omitempty"`
	FinishedAt *time.Time   `json:"finished_at,omitempty"`
	Error      string       `json:"error,omitempty"`
	Result     *SolveResult `json:"result,omitempty"`
	Events     int          `json:"events"`
}
