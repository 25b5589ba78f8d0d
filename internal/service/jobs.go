package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// Config sizes the job manager.
type Config struct {
	// Workers bounds concurrently executing solves (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds queued (not yet running) solves; submissions
	// beyond it are rejected with ErrQueueFull (0 = 64).
	QueueCap int
	// CacheSize bounds the solution cache entry count (0 = 256).
	CacheSize int
	// DefaultBudget is the per-job solve budget when the request names
	// none (0 = 2s); MaxBudget clamps requested budgets (0 = 60s).
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// MaxIndexes rejects instances with more indexes (0 = 512).
	MaxIndexes int
	// MaxBodyBytes bounds request bodies (0 = 8 MiB); enforced by the
	// HTTP layer.
	MaxBodyBytes int64
	// MaxFinishedJobs bounds how many terminal jobs (and their event
	// histories) stay queryable; the oldest are evicted first and then
	// answer 404 (0 = 4096). Queued/running jobs are never evicted.
	MaxFinishedJobs int
	// DefaultParams are server-wide backend params applied to every
	// solve unless the request sets the same key itself (e.g.
	// "cp.tail_bound": false to skip the tail tables server-wide).
	DefaultParams backend.Params
	// TenantRate is the sustained per-tenant submission rate
	// (jobs/second; 0 = unlimited). TenantBurst sizes the token bucket
	// (0 = 2×rate+1). Excess submissions are rejected with
	// ErrRateLimited (429).
	TenantRate  float64
	TenantBurst int
	// TenantQueueCap bounds one tenant's queued (not yet running) runs,
	// so a flooding tenant exhausts its own quota instead of the shared
	// QueueCap (0 = no per-tenant cap).
	TenantQueueCap int
	// MaxBatchItems bounds instances per POST /batch request (0 = 64).
	MaxBatchItems int
	// NodeName, when non-empty, prefixes every generated job/batch/
	// session id as "<node>-<hex>". In cluster mode each node names
	// itself, which makes ids self-routing: any peer can tell from the
	// prefix which node owns the resource and proxy the lookup there.
	NodeName string
	// Distributor, when non-nil, bridges executing solves to the
	// distributed solve cluster (see Distributor). Nil = single-node
	// behavior, unchanged.
	Distributor Distributor
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 60 * time.Second
	}
	if c.MaxIndexes <= 0 {
		c.MaxIndexes = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 4096
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	return c
}

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull       = errors.New("service: job queue full")
	ErrTenantQueueFull = errors.New("service: tenant queue quota exhausted")
	ErrRateLimited     = errors.New("service: tenant rate limit exceeded")
	ErrDraining        = errors.New("service: shutting down, not accepting jobs")
	ErrUnknownJob      = errors.New("service: unknown job")
	ErrJobDone         = errors.New("service: job already finished")
	ErrUnknownBatch    = errors.New("service: unknown batch")
	ErrUnknownSession  = errors.New("service: unknown session")
	ErrSessionClosed   = errors.New("service: session closed")
	ErrSessionBusy     = errors.New("service: session has a delta in flight")
	ErrTooManySessions = errors.New("service: too many active sessions")
)

// InvalidError wraps client-side request problems (400s).
type InvalidError struct{ Err error }

func (e *InvalidError) Error() string { return e.Err.Error() }
func (e *InvalidError) Unwrap() error { return e.Err }

func invalidf(format string, args ...any) error {
	return &InvalidError{Err: fmt.Errorf(format, args...)}
}

// Job is one submitted solve request. A job either attaches to a run
// (shared with every other job wanting the identical solve) or is
// completed immediately from the cache.
type Job struct {
	ID       string
	hash     string
	instName string
	tenant   string
	priority int

	// origOf maps canonical index positions back to this request's
	// positions; names mirrors the request's index names.
	origOf []int

	// trace is the job's flight recorder: a bounded ring of timestamped
	// spans (queued → started → backend starts/finishes → every incumbent
	// improvement → proved/done) served by GET /jobs/{id}/trace. It has
	// its own lock and is written outside j.mu.
	trace *obs.Trace

	mu         sync.Mutex
	state      string
	events     []Event
	notify     chan struct{} // closed+replaced on every event append
	done       chan struct{} // closed on terminal transition
	err        error
	result     *SolveResult
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	run *run // nil for cache hits
}

// Status snapshots the job's wire form.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		State:    j.state,
		Hash:     j.hash,
		Instance: j.instName,
		Tenant:   j.tenant,
		Priority: j.priority,
		QueuedAt: j.queuedAt,
		Result:   j.result,
		Events:   len(j.events),
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// TraceSnapshot returns the job's flight-recorder trace.
func (j *Job) TraceSnapshot() obs.TraceSnapshot {
	if j.trace == nil {
		return obs.TraceSnapshot{Spans: []obs.Span{}}
	}
	return j.trace.Snapshot()
}

// recordProgress mirrors one portfolio progress event into the job's
// trace. Unlike the SSE event stream, the trace also keeps backend
// starts, so a replay shows when each backend began competing.
func (j *Job) recordProgress(ev portfolio.ProgressEvent) {
	if j.trace == nil {
		return
	}
	switch ev.Kind {
	case portfolio.ProgressBackendStarted:
		j.trace.RecordBackend(obs.SpanBackendStart, ev.Backend, "")
	case portfolio.ProgressImproved:
		j.trace.RecordObjective(obs.SpanIncumbent, ev.Backend, ev.Objective, "")
	case portfolio.ProgressProved:
		j.trace.RecordObjective(obs.SpanProved, ev.Backend, ev.Objective, "")
	case portfolio.ProgressBackendDone:
		detail := ""
		switch {
		case ev.Skipped:
			detail = "skipped"
		case ev.Err != nil:
			detail = ev.Err.Error()
		}
		if math.IsInf(ev.Objective, 1) {
			j.trace.RecordBackend(obs.SpanBackendDone, ev.Backend, detail)
		} else {
			j.trace.RecordObjective(obs.SpanBackendDone, ev.Backend, ev.Objective, detail)
		}
	}
}

// translate maps a canonical-space order into this job's index space.
func (j *Job) translate(order []int) []int {
	out := make([]int, len(order))
	for k, c := range order {
		out[k] = j.origOf[c]
	}
	return out
}

// start transitions the job to running and emits the started event.
func (j *Job) start(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.startedAt = now
	if j.trace != nil {
		j.trace.Record(obs.SpanStarted)
	}
	j.appendEvent(Event{Type: EventStarted})
}

// finish moves the job to a terminal state, records the result or error,
// and emits the done event; Manager.settle releases the waiters. Reports
// false (and changes nothing) when the job is already terminal — e.g. it
// was canceled while its run kept going — so each job is counted exactly
// once.
func (j *Job) finish(state string, res *SolveResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if isTerminal(j.state) {
		return false
	}
	j.state = state
	j.finishedAt = time.Now()
	j.result = res
	j.err = err
	if j.trace != nil {
		switch {
		case err != nil:
			j.trace.RecordBackend(obs.SpanError, "", err.Error())
		case res != nil:
			j.trace.RecordObjective(obs.SpanDone, res.Winner, res.Objective, state)
		default:
			j.trace.RecordBackend(obs.SpanDone, "", state)
		}
	}
	ev := Event{Type: EventDone, State: state}
	if res != nil {
		ev.Objective = fptr(res.Objective)
		ev.CacheHit = res.CacheHit
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.appendEvent(ev)
	return true
}

// run is one underlying portfolio solve, shared by all jobs whose
// canonical hash and solve parameters coincide (single-flight).
type run struct {
	key    string
	canon  *model.Instance
	params Params
	// bag is the registry-validated, canonically typed form of
	// params.Params.
	bag    backend.Params
	budget time.Duration
	// structHash fingerprints the instance's structure only (index
	// names, plan shapes — no float parameters), keying the warm-hint
	// table so parameter-only drift can reuse a previous incumbent.
	structHash string
	// initial, when non-nil, seeds the solve with a warm-start order in
	// canonical index space; warmHint marks seeds recovered from the
	// structural-hash hint table rather than an explicit warm submission.
	initial  []int
	warmHint bool
	// tenant is the first submitter's tenant: it decides which DRR queue
	// the run waits in (later attachers from other tenants share the
	// solve but not the queue slot).
	tenant   string
	priority int   // queue priority: max over attached jobs (under Manager.mu)
	seq      int64 // FIFO tie-break within a priority
	index    int   // heap position in its tenant queue (-1 once popped/removed)

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	jobs    []*Job
	started bool
	// finished blocks further attaches once the outcome has been (or is
	// being) fanned out — a late attacher would never be completed.
	finished bool
}

// attach adds a job to the run; reports false when the run has already
// been abandoned (all previous jobs canceled) or has finished — nothing
// would ever complete a job attached then.
func (r *run) attach(j *Job) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx.Err() != nil || r.finished {
		return false
	}
	j.run = r
	r.jobs = append(r.jobs, j)
	if r.started {
		j.start(time.Now())
	}
	return true
}

// complete marks the run finished and returns the jobs to fan out to;
// subsequent attaches are refused.
func (r *run) complete() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = true
	return append([]*Job(nil), r.jobs...)
}

// detach removes a job; reports whether the run is now empty.
func (r *run) detach(j *Job) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, other := range r.jobs {
		if other == j {
			r.jobs = append(r.jobs[:k], r.jobs[k+1:]...)
			break
		}
	}
	return len(r.jobs) == 0
}

// emit fans one translated event out to every attached job. Holding
// r.mu across the fan-out gives all jobs the same event order even when
// portfolio backends report concurrently.
func (r *run) emit(ev Event, order []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		jev := ev
		if order != nil {
			jev.Order = j.translate(order)
		}
		j.mu.Lock()
		j.appendEvent(jev)
		j.mu.Unlock()
	}
}

// recordSpan mirrors one portfolio progress event into the trace of
// every attached job. Holding r.mu keeps the span order consistent
// across jobs, exactly like emit does for events.
func (r *run) recordSpan(ev portfolio.ProgressEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		j.recordProgress(ev)
	}
}

// record writes one span into every attached job's trace: warm-start
// admission, or a fast-path fallback.
func (r *run) record(kind, name, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		if j.trace != nil {
			j.trace.RecordBackend(kind, name, detail)
		}
	}
}

// runQueue is a max-heap on (priority, FIFO seq).
type runQueue []*run

func (q runQueue) Len() int { return len(q) }
func (q runQueue) Less(a, b int) bool {
	if q[a].priority != q[b].priority {
		return q[a].priority > q[b].priority
	}
	return q[a].seq < q[b].seq
}
func (q runQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].index = a
	q[b].index = b
}
func (q *runQueue) Push(x any) {
	r := x.(*run)
	r.index = len(*q)
	*q = append(*q, r)
}
func (q *runQueue) Pop() any {
	old := *q
	r := old[len(old)-1]
	old[len(old)-1] = nil
	r.index = -1
	*q = old[:len(old)-1]
	return r
}

// Manager owns the worker pool, the per-tenant queues, the
// single-flight table and the solution cache.
type Manager struct {
	cfg     Config
	metrics *Metrics
	cache   *lruCache
	// hints maps a structural hash to the index-name order of the last
	// finished solve with that structure: the delta-aware half of the
	// cache. A weight-only change misses the full solve key (the
	// canonical hash moved) but hits here, and the old incumbent seeds
	// the re-solve as a warm start instead of starting cold.
	hints *hintCache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	sched    *tenantSched
	buckets  map[string]*tokenBucket
	inflight map[string]*run
	jobs     map[string]*Job
	batches  map[string]*Batch
	sessions map[string]*Session
	// finished is the FIFO of terminal job ids; beyond MaxFinishedJobs
	// the oldest are dropped from the jobs map so a long-running server
	// does not retain every request's event history forever.
	// finishedBatches/closedSessions are the same for batches/sessions.
	finished        []string
	finishedBatches []string
	closedSessions  []string
	seq             int64
	running         int
	draining        bool

	wg sync.WaitGroup
}

// NewManager builds a manager and starts its worker pool.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		metrics:  newMetrics(),
		inflight: make(map[string]*run),
		jobs:     make(map[string]*Job),
		batches:  make(map[string]*Batch),
		sessions: make(map[string]*Session),
		buckets:  make(map[string]*tokenBucket),
	}
	m.sched = newTenantSched(m.cfg.DefaultBudget.Seconds())
	m.cache = newLRUCache(m.cfg.CacheSize)
	m.hints = newHintCache(m.cfg.CacheSize)
	m.metrics.bindGauges(m)
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for w := 0; w < m.cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Metrics returns the current counters.
func (m *Manager) Metrics() MetricsSnapshot {
	m.mu.Lock()
	depth, running := m.sched.len(), m.running
	tenants := m.sched.depths()
	m.mu.Unlock()
	return m.metrics.snapshot(m.cfg.Workers, depth, m.cfg.QueueCap, running,
		m.cache.len(), m.cfg.CacheSize, tenants)
}

// ObsRegistry returns the manager's metric registry (for the Prometheus
// text rendering of GET /metrics and for embedders that want to add
// their own instruments next to the service's).
func (m *Manager) ObsRegistry() *obs.Registry { return m.metrics.reg }

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// newJobID returns a 16-hex-char random job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// newID returns a fresh job/batch/session id, prefixed with the node
// name in cluster mode so ids are self-routing across peers.
func (m *Manager) newID() string {
	if m.cfg.NodeName != "" {
		return m.cfg.NodeName + "-" + newJobID()
	}
	return newJobID()
}

// SeedCache installs a finished result (canonical index space, as
// produced by a solve of the identical key) into the solution cache.
// This is the receiving end of cluster result replication: a peer's
// finished solve becomes a local cache hit for the next identical
// request, whichever node it lands on.
func (m *Manager) SeedCache(key string, res *SolveResult) {
	if res == nil || key == "" {
		return
	}
	m.cache.put(key, res)
}

// CachedResult looks up a finished result by solve key without touching
// job state (used by the cluster layer to answer peers).
func (m *Manager) CachedResult(key string) (*SolveResult, bool) {
	return m.cache.get(key)
}

// MaxBodyBytes reports the configured request-body cap (the cluster
// router buffers bodies under the same limit the service enforces).
func (m *Manager) MaxBodyBytes() int64 { return m.cfg.MaxBodyBytes }

// clampBudget applies the default and maximum to a requested budget.
func (m *Manager) clampBudget(d Duration) time.Duration {
	b := time.Duration(d)
	if b <= 0 {
		b = m.cfg.DefaultBudget
	}
	if b > m.cfg.MaxBudget {
		b = m.cfg.MaxBudget
	}
	return b
}

// solveKey fingerprints everything that shapes the solve outcome. The
// param bag enters in its canonical sorted form so key equality does
// not depend on JSON map order.
func solveKey(hash string, p Params, bag backend.Params, budget time.Duration) string {
	return fmt.Sprintf("%s|b=%s|be=%v|w=%d|s=%d|sl=%d|p=%t|pp=%s",
		hash, budget, p.Backends, p.Workers, p.Seed, p.StepLimit, p.pruneEnabled(), bag.Canon())
}

// canonicalOrder maps an index-name order onto canonical positions of
// canon: every index exactly once, unknown or repeated names rejected.
func canonicalOrder(canon *model.Instance, names []string) ([]int, error) {
	if len(names) != len(canon.Indexes) {
		return nil, fmt.Errorf("warm order names %d indexes, instance has %d",
			len(names), len(canon.Indexes))
	}
	pos := make(map[string]int, len(canon.Indexes))
	for i, ix := range canon.Indexes {
		pos[ix.Name] = i
	}
	out := make([]int, len(names))
	seen := make([]bool, len(names))
	for k, name := range names {
		i, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("warm order names unknown index %q", name)
		}
		if seen[i] {
			return nil, fmt.Errorf("warm order repeats index %q", name)
		}
		seen[i] = true
		out[k] = i
	}
	return out, nil
}

// orderFingerprint is a short stable digest of a name order, the
// warm-start component of the solve key.
func orderFingerprint(names []string) string {
	sum := sha256.Sum256([]byte(strings.Join(names, "\x00")))
	return hex.EncodeToString(sum[:8])
}

// normalizeTenant validates the request's tenant id, defaulting empty
// to the shared tenant.
func normalizeTenant(t string) (string, error) {
	if t == "" {
		return DefaultTenant, nil
	}
	if !validTenant(t) {
		return "", invalidf("bad tenant %q (printable ASCII, no spaces/quotes, at most %d chars)",
			t, maxTenantLen)
	}
	return t, nil
}

// Submit validates the instance and either completes a job from the
// cache, attaches it to an identical in-flight run, or enqueues a new
// run under the request's tenant. The returned job is already
// registered and observable.
func (m *Manager) Submit(in *model.Instance, p Params) (*Job, error) {
	return m.submitWarm(in, p, nil, false)
}

// SubmitWarm is Submit with an explicit warm start: warmNames is a
// deployment order over the instance's index names (every index exactly
// once, earliest first) that seeds the solve's incumbent store. The
// warm order enters the solve key, so a warm re-solve never dedupes
// against a cold solve of the same instance; if the seed turns out
// infeasible under the solve's constraint set the run degrades to a
// cold start (recorded as warm_start_rejected) instead of failing.
func (m *Manager) SubmitWarm(in *model.Instance, p Params, warmNames []string) (*Job, error) {
	if len(warmNames) == 0 {
		return nil, invalidf("warm start carries no order")
	}
	return m.submitWarm(in, p, warmNames, false)
}

// submit is Submit with batch admission control: batch items skip the
// per-item rate-limit charge because SubmitBatch already charged the
// whole batch up front.
func (m *Manager) submit(in *model.Instance, p Params, preAdmitted bool) (*Job, error) {
	return m.submitWarm(in, p, nil, preAdmitted)
}

func (m *Manager) submitWarm(in *model.Instance, p Params, warmNames []string, preAdmitted bool) (*Job, error) {
	if in == nil {
		return nil, invalidf("request carries no instance")
	}
	if len(in.Indexes) > m.cfg.MaxIndexes {
		return nil, invalidf("instance has %d indexes, server accepts at most %d",
			len(in.Indexes), m.cfg.MaxIndexes)
	}
	if len(in.Indexes) == 0 {
		return nil, invalidf("instance has no indexes")
	}
	if err := in.Validate(); err != nil {
		return nil, &InvalidError{Err: err}
	}
	if err := backend.CheckNames(p.Backends); err != nil {
		return nil, &InvalidError{Err: err}
	}
	bag, err := backend.ValidateParams(p.Params)
	if err != nil {
		return nil, &InvalidError{Err: err}
	}
	tenant, err := normalizeTenant(p.Tenant)
	if err != nil {
		return nil, err
	}

	canon, perm := codec.Canonicalize(in)
	hash := codec.CanonicalHash(canon)
	structHash := codec.StructuralHash(canon)
	origOf := make([]int, len(perm))
	for i, c := range perm {
		origOf[c] = i
	}
	budget := m.clampBudget(p.Budget)
	key := solveKey(hash, p, bag, budget)

	// An explicit warm order becomes part of the key (two re-solves with
	// different seeds may legitimately diverge on heuristic instances),
	// while hint-derived seeds below keep the cold key: their result is
	// the answer to the cold request too.
	var initial []int
	if warmNames != nil {
		ord, err := canonicalOrder(canon, warmNames)
		if err != nil {
			return nil, &InvalidError{Err: err}
		}
		initial = ord
		key += "|ws=" + orderFingerprint(warmNames)
	}

	j := &Job{
		ID:       m.newID(),
		hash:     hash,
		instName: in.Name,
		tenant:   tenant,
		priority: p.Priority,
		origOf:   origOf,
		state:    StateQueued,
		notify:   make(chan struct{}),
		done:     make(chan struct{}),
		queuedAt: time.Now(),
		trace:    obs.NewTrace(0),
	}
	j.trace.RecordBackend(obs.SpanQueued, "", "tenant="+tenant)
	j.events = append(j.events, Event{Seq: 0, Type: EventQueued})

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if !preAdmitted {
		if err := m.admitTenant(tenant, 1); err != nil {
			m.mu.Unlock()
			m.metrics.jobsRejected.Add(1)
			m.metrics.tenantRejected.With(tenant).Inc()
			return nil, err
		}
	}
	m.metrics.jobsSubmitted.Add(1)
	m.metrics.tenantSubmitted.With(tenant).Inc()

	if res, ok := m.cache.get(key); ok {
		m.jobs[j.ID] = j
		m.mu.Unlock()
		m.metrics.cacheHits.Add(1)
		hit := *res
		hit.Order = j.translate(res.Order)
		hit.CacheHit = true
		j.start(time.Now())
		j.trace.Record(obs.SpanCacheHit)
		m.settle(j, StateDone, &hit, nil)
		return j, nil
	}
	m.metrics.cacheMisses.Add(1)

	if r, ok := m.inflight[key]; ok && r.attach(j) {
		// A higher-priority attacher promotes the whole run while it is
		// still queued, so dedup never demotes an urgent request.
		if p.Priority > r.priority && r.index >= 0 {
			r.priority = p.Priority
			m.sched.promote(r)
		}
		m.jobs[j.ID] = j
		m.mu.Unlock()
		m.metrics.attached.Add(1)
		return j, nil
	}

	if m.sched.len() >= m.cfg.QueueCap {
		m.mu.Unlock()
		m.metrics.jobsRejected.Add(1)
		m.metrics.tenantRejected.With(tenant).Inc()
		return nil, ErrQueueFull
	}
	if m.cfg.TenantQueueCap > 0 && m.sched.tenantLen(tenant) >= m.cfg.TenantQueueCap {
		m.mu.Unlock()
		m.metrics.jobsRejected.Add(1)
		m.metrics.tenantRejected.With(tenant).Inc()
		return nil, ErrTenantQueueFull
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	r := &run{
		key: key, canon: canon, params: p, bag: bag, budget: budget,
		structHash: structHash, initial: initial,
		tenant: tenant, priority: p.Priority, seq: m.seq, ctx: ctx, cancel: cancel,
	}
	if r.initial == nil {
		// Delta-aware cache: a full-key miss whose structure matches a
		// previously solved instance (weight/cost drift only) reuses that
		// solve's final order as a warm start instead of starting cold.
		if names, ok := m.hints.get(structHash); ok {
			if ord, err := canonicalOrder(canon, names); err == nil {
				r.initial = ord
				r.warmHint = true
				m.metrics.warmHintHits.Add(1)
			}
		}
	}
	m.seq++
	r.jobs = []*Job{j}
	j.run = r
	m.inflight[key] = r
	m.sched.push(r)
	m.jobs[j.ID] = j
	m.cond.Signal()
	m.mu.Unlock()
	return j, nil
}

// settle finishes j (see Job.finish), counts it, records it for
// retention — evicting the oldest finished jobs beyond the cap — and only
// then releases its waiters, so a caller woken by Done sees the counters
// and the retention order that include j.
func (m *Manager) settle(j *Job, state string, res *SolveResult, err error) {
	if !j.finish(state, res, err) {
		return
	}
	switch state {
	case StateDone:
		m.metrics.jobsCompleted.Add(1)
		m.metrics.tenantCompleted.With(j.tenant).Inc()
		m.metrics.e2e.ObserveDuration(time.Since(j.queuedAt))
	case StateFailed:
		m.metrics.jobsFailed.Add(1)
	case StateCanceled:
		m.metrics.jobsCanceled.Add(1)
	}
	m.mu.Lock()
	m.finished = append(m.finished, j.ID)
	for len(m.finished) > m.cfg.MaxFinishedJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	m.mu.Unlock()
	close(j.done)
}

// Get looks a job up by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel aborts a queued or running job. When the last job of a run is
// canceled the underlying solve is canceled too (a queued run is removed
// from the queue; a running one has its context canceled).
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	j.mu.Lock()
	terminal := isTerminal(j.state)
	j.mu.Unlock()
	if terminal {
		m.mu.Unlock()
		return ErrJobDone
	}
	r := j.run
	if r != nil && r.detach(j) {
		// Last interested job gone: abandon the solve.
		r.cancel()
		if m.sched.remove(r) {
			delete(m.inflight, r.key)
		}
	}
	m.mu.Unlock()

	m.settle(j, StateCanceled, nil, context.Canceled)
	return nil
}

// Shutdown drains the manager: no new submissions are accepted, queued
// and running solves continue until done or until ctx expires, at which
// point the base context is canceled and running portfolios return
// their best incumbent immediately. Blocks until all workers exit.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		m.baseCancel()
		<-finished
	}
}

// worker pops runs under the tenant-fair discipline and executes them
// until drain completes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.sched.len() == 0 && !m.draining {
			m.cond.Wait()
		}
		r := m.sched.pop()
		if r == nil {
			m.mu.Unlock()
			return
		}
		m.running++
		m.mu.Unlock()

		m.execute(r)

		m.mu.Lock()
		m.running--
		// A failed attach may already have replaced this key with a new
		// run; only clear our own entry.
		if m.inflight[r.key] == r {
			delete(m.inflight, r.key)
		}
		m.mu.Unlock()
	}
}

// execute runs one portfolio solve and fans the outcome out to every
// attached job.
func (m *Manager) execute(r *run) {
	defer r.cancel()
	r.mu.Lock()
	r.started = true
	jobs := append([]*Job(nil), r.jobs...)
	r.mu.Unlock()
	if len(jobs) == 0 {
		return // everyone canceled while queued
	}
	if err := r.ctx.Err(); err != nil {
		// Drain timeout hit while this run sat in the queue; release any
		// still-attached waiters.
		for _, j := range r.complete() {
			m.settle(j, StateCanceled, nil, err)
		}
		return
	}
	now := time.Now()
	for _, j := range jobs {
		m.metrics.queueWait.ObserveDuration(now.Sub(j.queuedAt))
		m.metrics.tenantQueueWait.With(j.tenant).ObserveDuration(now.Sub(j.queuedAt))
		j.start(now)
	}

	c, err := model.Compile(r.canon)
	if err != nil {
		// Unreachable for instances that passed Submit validation.
		m.fail(r, err)
		return
	}
	cs := sched.PrecedenceSet(r.canon)
	if r.params.pruneEnabled() {
		cs, _ = prune.Analyze(c, prune.Options{})
	}

	// Warm-start admission: the seed must be feasible under the final
	// constraint set (the pruning analysis may have added precedence
	// edges the prior incumbent never saw — RepairInitial reorders it
	// stably against them). A seed that cannot be repaired degrades the
	// run to a cold start instead of failing the attached jobs.
	initial := r.initial
	warmStarted := false
	if initial != nil {
		repaired, werr := portfolio.RepairInitial(c, cs, initial)
		if werr != nil {
			m.metrics.warmRejected.Add(1)
			r.record(obs.SpanWarmStart, "", "rejected: "+werr.Error())
			initial = nil
		} else {
			initial = repaired
			warmStarted = true
			m.metrics.warmStarts.Add(1)
			if r.warmHint {
				r.record(obs.SpanWarmStart, "", "seeded (structural-hash hint)")
			} else {
				r.record(obs.SpanWarmStart, "", "seeded")
			}
		}
	}

	// Server-wide default params underlay the request's own bag; any key
	// the request sets wins.
	bag := r.bag
	if len(m.cfg.DefaultParams) > 0 {
		bag = m.cfg.DefaultParams.Clone()
		for k, v := range r.bag {
			bag[k] = v
		}
	}
	opts := portfolio.Options{
		Backends:  r.params.Backends,
		Workers:   r.params.Workers,
		Budget:    r.budget,
		StepLimit: r.params.StepLimit,
		Params:    bag,
		Seed:      r.params.Seed,
		Initial:   initial,
		OnProgress: func(ev portfolio.ProgressEvent) {
			r.recordSpan(ev)
			if ev.Kind == portfolio.ProgressBackendStarted {
				// Trace-only: the SSE event set (queued, started,
				// incumbent, backend, proved, done) is a documented
				// wire contract; backend starts live in the trace.
				return
			}
			r.emit(progressToEvent(ev), ev.Order)
		},
	}

	// Cluster hookup: hand the distributor a shared store it can inject
	// remote incumbents into and announce every local improvement for
	// broadcast. Single-node mode (nil Distributor) takes neither
	// branch.
	if m.cfg.Distributor != nil {
		store := portfolio.NewStore(c.N, cs)
		ds := m.cfg.Distributor.SolveStarted(SolveStart{
			Key:         r.key,
			Compiled:    c,
			Constraints: cs,
			Store:       store,
		})
		defer ds.Done()
		opts.Store = store
		prevImprove := opts.OnImprove
		opts.OnImprove = func(b string, order []int, obj float64) {
			if prevImprove != nil {
				prevImprove(b, order, obj)
			}
			ds.Improved(order, obj)
		}
	}
	// The portfolio enforces its own budget; the outer timeout only
	// reaps a stuck backend, so give it headroom. Each attempt (routed
	// fast path, then the race on fallback) gets its own allowance.
	solveWith := func(f func(context.Context) (portfolio.Result, error)) (portfolio.Result, error) {
		ctx, cancel := context.WithTimeout(r.ctx, r.budget+r.budget/2+2*time.Second)
		defer cancel()
		return f(ctx)
	}

	start := time.Now()
	var res portfolio.Result
	routed := false
	// Fast path: when the request doesn't pin a backend set and the
	// instance is small, run A* straight to a proof instead of racing
	// the whole portfolio. The proof guarantees the objective is
	// identical to what the race would return; if it doesn't land within
	// budget, fall back to the full race.
	if len(r.params.Backends) == 0 {
		if name, ok := portfolio.Route(c.N); ok {
			res, err = solveWith(func(ctx context.Context) (portfolio.Result, error) {
				return portfolio.SolveSingle(ctx, c, cs, name, opts)
			})
			switch {
			case err == nil && res.Proved:
				routed = true
				m.metrics.fastpathRouted.With(name).Inc()
			case err == nil:
				m.metrics.fastpathFallback.Add(1)
				r.record(obs.SpanFastPath, name, "unproved → race")
			}
		}
	}
	if !routed && err == nil {
		res, err = solveWith(func(ctx context.Context) (portfolio.Result, error) {
			return portfolio.Solve(ctx, c, cs, opts)
		})
	}
	wall := time.Since(start)
	if err != nil {
		m.fail(r, err)
		return
	}
	result := &SolveResult{
		Order:       res.Order,
		Objective:   res.Objective,
		Proved:      res.Proved,
		Winner:      res.Winner,
		Routed:      routed,
		WarmStarted: warmStarted,
		Wall:        Duration(wall),
		Backends:    make([]BackendSummary, 0, len(res.Backends)),
	}
	result.Names = make([]string, len(res.Order))
	for k, ix := range res.Order {
		result.Names[k] = r.canon.Indexes[ix].Name
	}
	_, deploy, final := c.Evaluate(res.Order)
	result.DeployTime = deploy
	result.BaseRuntime = c.Base
	result.FinalRuntime = final
	for _, b := range res.Backends {
		bs := BackendSummary{
			Name: b.Name, Proved: b.Proved, Improvements: b.Improvements,
			Iterations: b.Iterations, Wall: Duration(b.Wall), Skipped: b.Skipped,
			Counters: b.Counters,
		}
		if !math.IsInf(b.Objective, 1) {
			bs.Objective = fptr(b.Objective)
		}
		if b.Err != nil {
			bs.Error = b.Err.Error()
		}
		result.Backends = append(result.Backends, bs)
	}

	// Cache the result unless the solve was cut short externally
	// (cancellation or drain timeout) without reaching a proof — a
	// truncated incumbent under-serves future identical requests.
	if r.ctx.Err() == nil || res.Proved {
		m.cache.put(r.key, result)
		if m.cfg.Distributor != nil {
			// Replicate the canonical-space result so the identical
			// request is a cache hit on every peer.
			m.cfg.Distributor.ResultCached(r.key, result)
		}
	}
	// Any finished order — even a truncated incumbent — is a useful warm
	// seed for the next structurally identical request.
	if len(result.Names) > 0 {
		m.hints.put(r.structHash, result.Names)
	}
	m.metrics.recordSolve(res.Winner, res.Proved, wall)

	finalJobs := r.complete()
	shared := len(finalJobs) > 1
	for _, j := range finalJobs {
		jr := *result
		jr.Order = j.translate(result.Order)
		jr.Shared = shared
		m.settle(j, StateDone, &jr, nil)
	}
}

func (m *Manager) fail(r *run, err error) {
	for _, j := range r.complete() {
		m.settle(j, StateFailed, nil, err)
	}
}

// progressToEvent maps a portfolio progress event onto the wire event
// (order translation happens per job in run.emit).
func progressToEvent(ev portfolio.ProgressEvent) Event {
	out := Event{Backend: ev.Backend}
	switch ev.Kind {
	case portfolio.ProgressImproved:
		out.Type = EventIncumbent
		out.Objective = fptr(ev.Objective)
	case portfolio.ProgressProved:
		out.Type = EventProved
		out.Objective = fptr(ev.Objective)
	case portfolio.ProgressBackendDone:
		out.Type = EventBackend
		out.Skipped = ev.Skipped
		out.Iterations = ev.Iterations
		out.Wall = Duration(ev.Wall)
		if !math.IsInf(ev.Objective, 1) {
			out.Objective = fptr(ev.Objective)
		}
		if ev.Err != nil {
			out.Error = ev.Err.Error()
		}
	default:
		out.Type = ev.Kind.String()
	}
	return out
}
