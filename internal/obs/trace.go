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

// Trace is a bounded ring of spans: the per-solve flight recorder.
// When full it drops the oldest spans and counts them, so a pathological
// solve with millions of incumbent improvements costs bounded memory
// and the tail of the story (which is the interesting part) survives.
// All methods are safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	buf     []Span
	head    int // next write position
	n       int // live entries
	seq     int // total spans ever recorded
	dropped int
}

// DefaultTraceCap is the ring capacity used when NewTrace is given 0.
const DefaultTraceCap = 512

// NewTrace returns a flight recorder holding at most capacity spans
// (0 = DefaultTraceCap). The trace clock starts at the first Record.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Span, capacity)}
}

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
	if t.seq == 0 {
		t.start = now
	}
	t.seq++
	s := Span{
		Seq:       t.seq,
		ElapsedMS: float64(now.Sub(t.start)) / float64(time.Millisecond),
		Kind:      kind,
		Backend:   backend,
		Detail:    detail,
	}
	if objective != nil {
		v := *objective
		s.Objective = &v
	}
	t.buf[t.head] = s
	t.head = (t.head + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
}

// TraceSnapshot is a consistent copy of a trace: the surviving spans in
// record order plus bookkeeping about what the ring dropped.
type TraceSnapshot struct {
	StartedAt time.Time `json:"started_at"`
	Total     int       `json:"total_spans"`
	Dropped   int       `json:"dropped_spans"`
	Spans     []Span    `json:"spans"`
}

// Snapshot copies the trace. Spans are ordered oldest first; if the
// ring overflowed, Dropped counts the spans lost from the front and the
// surviving spans keep their original Seq numbers.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, t.n)
	for i := 0; i < t.n; i++ {
		spans[i] = t.buf[(t.head-t.n+i+len(t.buf))%len(t.buf)]
	}
	return TraceSnapshot{
		StartedAt: t.start,
		Total:     t.seq,
		Dropped:   t.dropped,
		Spans:     spans,
	}
}
