package service

// Event logs. Every job, batch and session keeps its full ordered event
// history so an SSE subscriber can attach at any time (or reconnect with
// Last-Event-ID) and replay from any sequence number; live subscribers
// block on a notification channel that the next append closes. A job's
// events end with exactly one terminal "done" event carrying its final
// state.

// Event types, in the order they can appear in a job's stream:
// one "queued", at most one "started", any number of "incumbent" /
// "backend" in solve order, at most one "proved", and a final "done".
// Batch streams use "queued", one "item" per finished sub-solve, and a
// final "batch_done". Session streams use one "plan" for the initial
// deployment plan, one "delta" per applied workload delta (carrying
// only the changed tail of the plan), and a final "session_closed".
const (
	EventQueued        = "queued"
	EventStarted       = "started"
	EventIncumbent     = "incumbent"
	EventBackend       = "backend"
	EventProved        = "proved"
	EventDone          = "done"
	EventItem          = "item"
	EventBatchDone     = "batch_done"
	EventPlan          = "plan"
	EventDelta         = "delta"
	EventSessionClosed = "session_closed"
)

// Event is one entry of a job's progress stream. Seq is contiguous from
// 0 within a job. Orders are in the requesting instance's index space.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"`
	Backend string `json:"backend,omitempty"`
	// Objective accompanies incumbent/backend/proved events; omitted when
	// the backend produced nothing.
	Objective *float64 `json:"objective,omitempty"`
	Order     []int    `json:"order,omitempty"`
	// State accompanies the terminal done event.
	State      string   `json:"state,omitempty"`
	Error      string   `json:"error,omitempty"`
	Skipped    bool     `json:"skipped,omitempty"`
	Iterations int64    `json:"iterations,omitempty"`
	Wall       Duration `json:"wall,omitempty"`
	// CacheHit marks a done event served straight from the cache; Shared
	// marks one that attached to an identical in-flight solve.
	CacheHit bool `json:"cache_hit,omitempty"`
	Shared   bool `json:"shared,omitempty"`
	// Item and JobID identify the finished sub-solve on batch "item"
	// events: Item is the instance's position in the batch request,
	// JobID the per-item job whose /jobs endpoints hold the details.
	Item  *int   `json:"item,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Session stream fields: Revision counts applied deltas (0 = the
	// initial solve), Names is the deployment plan by index name — the
	// full plan on "plan" events, only the changed tail on "delta"
	// events (TailFrom is the position the tail starts at; the plan
	// prefix before it is unchanged from the previous revision).
	// WarmStarted mirrors the underlying solve's warm-start flag.
	Revision    *int     `json:"revision,omitempty"`
	Names       []string `json:"names,omitempty"`
	TailFrom    *int     `json:"tail_from,omitempty"`
	WarmStarted bool     `json:"warm_started,omitempty"`
}

// eventSource is any ordered event log an SSE handler can stream: jobs,
// batches and sessions all implement it.
type eventSource interface {
	eventsSince(seq int) (evs []Event, terminal bool, notify <-chan struct{})
}

// eventLog is the event history jobs, batches and sessions keep. Its
// owner guards it with its own mutex and decides when it is terminal.
// The zero value is an empty log.
type eventLog struct {
	events []Event
	notify chan struct{} // closed on the next append; nil until a reader waits
}

// append records ev, assigning its Seq, and wakes subscribers.
func (l *eventLog) append(ev Event) {
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// since returns a snapshot of the events from seq on and the channel
// that signals the next append; the owner adds its terminal state to
// answer eventsSince.
func (l *eventLog) since(seq int) (evs []Event, notify <-chan struct{}) {
	if seq < 0 {
		seq = 0
	}
	if seq < len(l.events) {
		evs = append(evs, l.events[seq:]...)
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return evs, l.notify
}

// eventsSince returns a snapshot of the events from seq on, whether the
// job is terminal, and the channel that signals the next append.
func (j *Job) eventsSince(seq int) (evs []Event, terminal bool, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs, notify = j.log.since(seq)
	return evs, isTerminal(j.state), notify
}

func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

func fptr(v float64) *float64 { return &v }
