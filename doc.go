// Package idd is a reproduction of "Optimizing Index Deployment Order
// for Evolving OLAP" (Kimura, Coffrin, Rasin, Zdonik — EDBT 2012): a
// library and toolset for scheduling the deployment of database indexes
// so that query workloads speed up as early as possible and the total
// deployment finishes as fast as possible.
//
// At the center is the evaluation core in internal/model — a CSR-compiled
// instance (Compiled), an allocation-free incremental evaluator (Walker),
// and a delta move scorer (MoveEval) whose swap/insert scores are
// bit-identical to full replays while touching only the disturbed suffix
// of the schedule. Every solver backend, the pruning analysis and the
// solve service run on top of it; see README.md's "Architecture: the
// evaluation core" for the layer diagram and which consumer uses which
// API.
//
// Optimality proofs come from the CP engine in internal/solver/cp: a
// branch-and-prune DFS that, given a worker budget (cp.Options.Workers,
// CLI -param cp.workers=N), scales out as a work-stealing parallel
// branch-and-bound — frontier subproblems split at shallow depths into
// per-worker deques, one pooled Walker per worker repositioned with
// Sync on steal, a shared atomic incumbent bridged to the portfolio
// store, and global open-subproblem accounting so a drained frontier
// still certifies the optimum. See README.md's "Parallel proof search"
// subsection for the split/steal/proof protocol.
//
// The solvers plug into everything else through the self-describing
// registry in internal/solver/backend: each solver package registers a
// Backend (uniform Solve(ctx, Request) call plus an Info declaring its
// kind, applicability, finisher rank and typed param specs), and the
// portfolio's default selection, the finisher choice, iddsolve's
// -list-solvers/-param flags and iddserver's GET /solvers catalogue and
// per-request param validation are all derived from those declarations
// — adding a solver or a solver knob is a one-file change. See
// README.md's "Architecture: the backend registry".
//
// Observability is built in, not bolted on: internal/obs is a
// stdlib-only metrics and tracing core (atomic counters, labeled
// vectors, fixed-bucket histograms, a sliding-window rate, bounded span
// traces, and JSON plus Prometheus text-format rendering with its own
// exposition linter). The CP engine counts its search per worker —
// nodes, the prune-cause breakdown (incumbent bound / tail bound /
// infeasible, summing exactly to fails), steal telemetry — merged once
// per solve so the allocation-free guarantees hold with counters live;
// results surface the counters through backend.Outcome and
// portfolio.BackendResult into iddsolve -json and the service API. Each
// service job additionally records a flight-recorder trace (queued →
// started → incumbents → proved → done) served by GET /jobs/{id}/trace,
// and GET /metrics speaks both JSON and the Prometheus exposition
// format. See README.md's "Observability" section for the metric
// catalogue and trace format.
//
// Workload drift is first-class: the evolve driver re-tunes a changing
// workload in rounds (evolve.Run, evolve.ProjectDelta for folding
// already-built indexes into the model, evolve.RepairOrder for mending
// a prior plan against a delta), and iddserver's session API serves the
// same loop online — POST /sessions pins a plan, each delta re-solves
// warm-started from the previous incumbent via portfolio.Options.Initial
// (admission by portfolio.RepairInitial, degrading to a cold start when
// the seed is unrepairable), and the session's SSE stream carries only
// the changed tail of the plan. A structural-hash hint table beside the
// solution cache warm-seeds cache misses whose structure matches a
// finished solve; iddsolve -warm-start-from does the same offline, and
// cmd/iddresolve benchmarks warm versus cold re-solving under drift
// (scripts/bench.sh --section resolve). See README.md's "Online
// re-solve sessions".
//
// The service scales past one machine through internal/cluster: N
// iddserver processes started with the same static -peers list form a
// coordinator-free solve cluster. Submissions are routed by consistent
// hash of the canonical instance to their owning node (the solution
// cache and single-flight dedup keep their hit rates cluster-wide),
// finished results and in-flight incumbents replicate through a
// last-writer-wins merge ordered by (objective, Lamport clock) —
// commutative, associative, idempotent, property-tested under random
// delivery orders — and idle nodes steal open CP-proof subtrees from
// busy peers as deployment-prefix frames, with the donor's
// open-subproblem ledger keeping the optimality certificate sound
// across helper failures. See README.md's "Distributed cluster" and
// the examples/cluster docker-compose walkthrough.
//
// The public surface lives in the commands (cmd/iddgen, cmd/iddsolve,
// cmd/iddinspect, cmd/iddbench, cmd/iddserver, cmd/iddload) and the
// internal packages; see README.md for the architecture overview.
// BENCH_eval.json and BENCH_serve.json are the checked-in performance
// baselines, regenerated by scripts/bench.sh.
package idd
