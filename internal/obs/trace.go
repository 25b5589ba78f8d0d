package obs

import (
	"sync"
	"time"
)

// Span kinds recorded by the flight recorder. They mirror the job
// lifecycle: queued → started → per-backend start/finish → every
// incumbent improvement → proved → done.
const (
	SpanQueued       = "queued"
	SpanStarted      = "started"
	SpanBackendStart = "backend-start"
	SpanBackendDone  = "backend-done"
	SpanIncumbent    = "incumbent"
	SpanProved       = "proved"
	SpanDone         = "done"
	SpanCacheHit     = "cache-hit"
	SpanError        = "error"
	// SpanWarmStart records warm-start admission on re-solves: the detail
	// says whether the prior incumbent seeded the run or was rejected
	// (infeasible under the new instance) and the run degraded to cold.
	SpanWarmStart = "warm-start"
	// SpanFastPath records a routed fast-path attempt that ended without
	// a proof, so the solve fell back to the full portfolio race.
	SpanFastPath = "fastpath"
)

// Span is one timestamped event in a solve's flight-recorder trace.
// ElapsedMS is measured from the trace's start (its first event), so a
// trace replays as an anytime quality-over-time curve without absolute
// clocks. Objective is set only on incumbent (and some terminal) spans.
type Span struct {
	Seq       int      `json:"seq"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Kind      string   `json:"kind"`
	Backend   string   `json:"backend,omitempty"`
	Objective *float64 `json:"objective,omitempty"`
	Detail    string   `json:"detail,omitempty"`
}

// Trace is the per-solve flight recorder: an append-only list of spans.
// It holds every span its solve records; what bounds its memory is the
// lifetime of its owner (a service job lives until the retention cap
// evicts it). All methods are safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	spans []Span
}

// NewTrace returns an empty flight recorder. The trace clock starts at
// the first Record.
func NewTrace() *Trace { return &Trace{} }

// Record appends a span with the given kind at time now.
func (t *Trace) Record(kind string) { t.record(kind, "", nil, "") }

// RecordBackend appends a span attributed to a backend.
func (t *Trace) RecordBackend(kind, backend, detail string) {
	t.record(kind, backend, nil, detail)
}

// RecordObjective appends a span carrying an objective value — an
// incumbent improvement, or a terminal span restating the final result.
func (t *Trace) RecordObjective(kind, backend string, objective float64, detail string) {
	t.record(kind, backend, &objective, detail)
}

func (t *Trace) record(kind, backend string, objective *float64, detail string) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		t.start = now
	}
	t.spans = append(t.spans, Span{
		Seq:       len(t.spans) + 1,
		ElapsedMS: float64(now.Sub(t.start)) / float64(time.Millisecond),
		Kind:      kind,
		Backend:   backend,
		Objective: objective, // RecordObjective's own copy
		Detail:    detail,
	})
}

// TraceSnapshot is a consistent copy of a trace: its spans in record
// order.
type TraceSnapshot struct {
	StartedAt time.Time `json:"started_at"`
	Spans     []Span    `json:"spans"`
}

// Snapshot copies the trace, oldest span first.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		StartedAt: t.start,
		Spans:     append(make([]Span, 0, len(t.spans)), t.spans...),
	}
}
