package service

import (
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/model"
)

// Batches: POST /batch accepts N instances in one request and fans them
// out as ordinary sub-solve jobs on the worker pool, so every item gets
// the full single-job machinery — canonical-hash caching, single-flight
// dedup, fast-path routing, its own /jobs endpoints and trace. The
// batch itself aggregates: an SSE stream emits one "item" event per
// completed sub-solve (in completion order, not index order) and a
// terminal "batch_done"; DELETE cancels every outstanding item at once.
// Admission is atomic per batch: the tenant's rate limit is charged the
// whole item count up front, so an over-limit batch is rejected in full
// rather than half-admitted.

// maxFinishedBatches bounds how many terminal batches stay queryable.
const maxFinishedBatches = 512

// Batch is one accepted POST /batch request.
type Batch struct {
	ID        string
	tenant    string
	createdAt time.Time

	mu         sync.Mutex
	items      []batchItem
	log        eventLog
	done       chan struct{} // closed when every item is terminal
	remaining  int
	finishedAt time.Time
}

// batchItem is one instance's slot: either a live job or the error
// that kept it from being submitted.
type batchItem struct {
	job *Job
	err error
}

// BatchItemStatus is one item's row in the batch wire status.
type BatchItemStatus struct {
	Index int    `json:"index"`
	JobID string `json:"job_id,omitempty"`
	State string `json:"state"`
	// Objective/Proved/Routed/CacheHit/Shared summarize a finished
	// item's result; the full SolveResult lives at /jobs/{job_id}.
	Objective *float64 `json:"objective,omitempty"`
	Proved    bool     `json:"proved,omitempty"`
	Routed    bool     `json:"routed,omitempty"`
	CacheHit  bool     `json:"cache_hit,omitempty"`
	Shared    bool     `json:"shared,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// BatchStatus is the wire form of GET /batch/{id}.
type BatchStatus struct {
	ID         string            `json:"id"`
	Tenant     string            `json:"tenant"`
	State      string            `json:"state"` // running | done
	Remaining  int               `json:"remaining"`
	CreatedAt  time.Time         `json:"created_at"`
	FinishedAt *time.Time        `json:"finished_at,omitempty"`
	Items      []BatchItemStatus `json:"items"`
}

// Status snapshots the batch and all its items.
func (b *Batch) Status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{
		ID:        b.ID,
		Tenant:    b.tenant,
		State:     "running",
		Remaining: b.remaining,
		CreatedAt: b.createdAt,
		Items:     make([]BatchItemStatus, len(b.items)),
	}
	if b.remaining == 0 {
		st.State = "done"
		t := b.finishedAt
		st.FinishedAt = &t
	}
	for i, it := range b.items {
		row := BatchItemStatus{Index: i}
		if it.err != nil {
			row.State = StateFailed
			row.Error = it.err.Error()
		} else {
			js := it.job.Status()
			row.JobID = js.ID
			row.State = js.State
			row.Error = js.Error
			if js.Result != nil {
				row.Objective = fptr(js.Result.Objective)
				row.Proved = js.Result.Proved
				row.Routed = js.Result.Routed
				row.CacheHit = js.Result.CacheHit
				row.Shared = js.Result.Shared
			}
		}
		st.Items[i] = row
	}
	return st
}

// Done returns a channel closed once every item is terminal.
func (b *Batch) Done() <-chan struct{} { return b.done }

// Jobs returns the per-item jobs (nil entries for items that failed
// submission), index-aligned with the request.
func (b *Batch) Jobs() []*Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Job, len(b.items))
	for i, it := range b.items {
		out[i] = it.job
	}
	return out
}

// eventsSince implements eventSource for the shared SSE handler.
func (b *Batch) eventsSince(seq int) (evs []Event, terminal bool, notify <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	evs, notify = b.log.since(seq)
	return evs, b.remaining == 0, notify
}

// itemDone records one finished sub-solve: an "item" event in
// completion order, and the terminal "batch_done" when it was the last.
// Reports whether the batch just turned terminal.
func (b *Batch) itemDone(index int, j *Job) bool {
	st := j.Status()
	ev := Event{Type: EventItem, Item: intPtr(index), JobID: j.ID, State: st.State}
	if st.Result != nil {
		ev.Objective = fptr(st.Result.Objective)
		ev.CacheHit = st.Result.CacheHit
		ev.Shared = st.Result.Shared
	}
	ev.Error = st.Error

	b.mu.Lock()
	defer b.mu.Unlock()
	b.log.append(ev)
	b.remaining--
	if b.remaining > 0 {
		return false
	}
	b.finishedAt = time.Now()
	b.log.append(Event{Type: EventBatchDone, State: "done"})
	close(b.done)
	return true
}

func intPtr(v int) *int { return &v }

// SubmitBatch validates and admits a batch, then fans its instances out
// as individual jobs. The tenant rate limit is charged len(instances)
// tokens atomically; per-item submission failures (an invalid instance,
// a full queue) fail only that item. The returned batch is registered
// and observable immediately.
func (m *Manager) SubmitBatch(instances []*model.Instance, p Params) (*Batch, error) {
	if len(instances) == 0 {
		return nil, invalidf("batch carries no instances")
	}
	if len(instances) > m.cfg.MaxBatchItems {
		return nil, invalidf("batch has %d instances, server accepts at most %d",
			len(instances), m.cfg.MaxBatchItems)
	}
	tenant, err := normalizeTenant(p.Tenant)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if err := m.admitTenant(tenant, len(instances)); err != nil {
		m.mu.Unlock()
		m.metrics.tenantRejected.With(tenant).Inc()
		return nil, err
	}
	m.metrics.batchesSubmitted.Add(1)
	m.metrics.batchItems.Add(int64(len(instances)))
	m.mu.Unlock()

	b := &Batch{
		ID:        m.newID(),
		tenant:    tenant,
		createdAt: time.Now(),
		items:     make([]batchItem, len(instances)),
		done:      make(chan struct{}),
	}
	b.log.append(Event{Type: EventQueued})

	live := 0
	for i, in := range instances {
		j, err := m.submit(in, p, true)
		if err != nil {
			b.items[i] = batchItem{err: err}
			continue
		}
		b.items[i] = batchItem{job: j}
		live++
	}
	b.remaining = live

	// Failed items are terminal from birth: emit their "item" events
	// before registration so any subscriber sees a complete history.
	for i, it := range b.items {
		if it.err != nil {
			b.log.append(Event{Type: EventItem, Item: intPtr(i),
				State: StateFailed, Error: it.err.Error()})
		}
	}
	if live == 0 {
		b.finishedAt = time.Now()
		b.log.append(Event{Type: EventBatchDone, State: "done"})
		close(b.done)
	}

	m.mu.Lock()
	m.batches[b.ID] = b
	m.mu.Unlock()
	if live == 0 {
		m.noteFinishedBatch(b.ID)
	}

	// One watcher per live item relays job completion into the batch
	// stream the moment it happens.
	for i, it := range b.items {
		if it.job == nil {
			continue
		}
		go func(index int, j *Job) {
			<-j.Done()
			if b.itemDone(index, j) {
				m.noteFinishedBatch(b.ID)
			}
		}(i, it.job)
	}
	return b, nil
}

// GetBatch looks a batch up by id.
func (m *Manager) GetBatch(id string) (*Batch, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[id]
	return b, ok
}

// CancelBatch aborts every outstanding item of a batch. Items already
// terminal are left untouched; the batch turns terminal once the last
// cancellation lands (its watchers observe each job's Done).
func (m *Manager) CancelBatch(id string) error {
	m.mu.Lock()
	b, ok := m.batches[id]
	m.mu.Unlock()
	if !ok {
		return ErrUnknownBatch
	}
	for _, j := range b.Jobs() {
		if j == nil {
			continue
		}
		// ErrJobDone/ErrUnknownJob mean the item finished (and may have
		// been evicted) before we got to it — not a batch-level failure.
		_ = m.Cancel(j.ID)
	}
	return nil
}

// noteFinishedBatch records a terminal batch and evicts the oldest
// beyond the retention cap.
func (m *Manager) noteFinishedBatch(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishedBatches = retain(m.finishedBatches, id, maxFinishedBatches, m.batches)
}
