package service

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
)

// Sessions: the online re-solve loop of the paper's incremental design
// vision, served. POST /sessions pins a long-lived advisor conversation:
// the initial workload is solved cold and its deployment plan becomes
// the session's state. Each POST /sessions/{id}/delta mutates the
// workload (query weights, index adds/drops, new plans/precedences,
// indexes marked as already built) and re-solves it *warm-started* from
// the previous incumbent — the prior order is repaired against the
// delta (removed indexes dropped, added ones greedy-inserted at their
// best feasible position) and seeds the portfolio through
// Options.Initial; only when repair is impossible does the re-solve
// fall back to the cold greedy seed. The session's SSE stream carries
// one "plan" event for the initial order and one "delta" event per
// revision with only the changed tail of the plan, so a deployment
// driver replays exactly the suffix it has to re-schedule.

// maxActiveSessions bounds concurrently open sessions; maxClosedSessions
// bounds how many closed ones stay queryable.
const (
	maxActiveSessions = 1024
	maxClosedSessions = 256
)

// Session is one accepted POST /sessions conversation.
type Session struct {
	ID        string
	tenant    string
	createdAt time.Time
	m         *Manager

	// solveMu serializes deltas: one re-solve in flight per session.
	solveMu sync.Mutex

	mu        sync.Mutex
	instance  *model.Instance // current full workload, request space
	params    Params
	built     map[string]bool // index names already deployed
	revision  int
	planNames []string // deployment order of the not-yet-built indexes
	result    *SolveResult
	lastJobID string
	updatedAt time.Time
	log       eventLog
	closed    bool
}

// SessionStatus is the wire form of GET /sessions/{id}.
type SessionStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"` // active | closed
	// Revision counts applied deltas; 0 is the initial solve.
	Revision int `json:"revision"`
	// Plan is the deployment order (by index name) of the indexes still
	// to be built; Built lists those already deployed.
	Plan      []string     `json:"plan"`
	Built     []string     `json:"built,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	UpdatedAt time.Time    `json:"updated_at"`
	LastJobID string       `json:"last_job_id,omitempty"`
	Result    *SolveResult `json:"result,omitempty"`
}

// SessionDelta is the JSON body of POST /sessions/{id}/delta: a patch
// over the session's workload. All fields are optional; an empty delta
// still re-solves (useful after marking indexes built).
type SessionDelta struct {
	// Weights reassigns query weights by query name.
	Weights map[string]float64 `json:"weights,omitempty"`
	// AddIndexes/DropIndexes change the candidate set. Dropping an index
	// also drops every plan, interaction and precedence mentioning it.
	AddIndexes  []model.Index `json:"add_indexes,omitempty"`
	DropIndexes []string      `json:"drop_indexes,omitempty"`
	// AddQueries/DropQueries change the workload; dropping a query drops
	// its plans.
	AddQueries  []model.Query `json:"add_queries,omitempty"`
	DropQueries []string      `json:"drop_queries,omitempty"`
	// AddPlans and AddPrecedences reference indexes and queries by name.
	AddPlans       []SessionPlan       `json:"add_plans,omitempty"`
	AddPrecedences []SessionPrecedence `json:"add_precedences,omitempty"`
	// Built marks indexes as deployed: they are projected out of the
	// re-solve (their plans lower the baselines, their helper discounts
	// fold into create costs — see evolve.ProjectDelta) and leave the
	// plan.
	Built []string `json:"built,omitempty"`
	// Params overrides the session's solve knobs from this delta on.
	Params *Params `json:"params,omitempty"`
}

// SessionPlan is a name-addressed model.Plan.
type SessionPlan struct {
	Query   string   `json:"query"`
	Indexes []string `json:"indexes"`
	Speedup float64  `json:"speedup"`
}

// SessionPrecedence is a name-addressed model.Precedence.
type SessionPrecedence struct {
	Before string `json:"before"`
	After  string `json:"after"`
}

// SessionDeltaResult is the response of POST /sessions/{id}/delta.
type SessionDeltaResult struct {
	SessionStatus
	// TailFrom is the first plan position that changed relative to the
	// previous revision; Tail is the plan from there on. A deployment
	// driver keeps the prefix and re-schedules only the tail.
	TailFrom int      `json:"tail_from"`
	Tail     []string `json:"tail"`
}

// Status snapshots the session.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:        s.ID,
		Tenant:    s.tenant,
		State:     "active",
		Revision:  s.revision,
		Plan:      append([]string(nil), s.planNames...),
		CreatedAt: s.createdAt,
		UpdatedAt: s.updatedAt,
		LastJobID: s.lastJobID,
		Result:    s.result,
	}
	if s.closed {
		st.State = "closed"
	}
	if len(s.built) > 0 {
		st.Built = make([]string, 0, len(s.built))
		for name := range s.built {
			st.Built = append(st.Built, name)
		}
		sort.Strings(st.Built)
	}
	return st
}

// eventsSince implements eventSource for the shared SSE handler.
func (s *Session) eventsSince(seq int) (evs []Event, terminal bool, notify <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, notify = s.log.since(seq)
	return evs, s.closed, notify
}

// CreateSession runs the initial solve synchronously and, on success,
// registers a session holding the instance and its deployment plan.
// ctx cancellation aborts the initial solve and the creation.
func (m *Manager) CreateSession(ctx context.Context, in *model.Instance, p Params) (*Session, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	active := 0
	for _, s := range m.sessions {
		s.mu.Lock()
		if !s.closed {
			active++
		}
		s.mu.Unlock()
	}
	m.mu.Unlock()
	if active >= maxActiveSessions {
		return nil, ErrTooManySessions
	}

	j, err := m.Submit(in, p)
	if err != nil {
		return nil, err
	}
	if err := waitJob(ctx, m, j); err != nil {
		return nil, err
	}
	st := j.Status()
	if st.State != StateDone || st.Result == nil {
		return nil, &InvalidError{Err: errSessionSolve(st)}
	}

	s := &Session{
		ID:        m.newID(),
		tenant:    j.tenant,
		createdAt: time.Now(),
		m:         m,
		instance:  cloneInstance(in),
		params:    p,
		built:     map[string]bool{},
		planNames: append([]string(nil), st.Result.Names...),
		result:    st.Result,
		lastJobID: j.ID,
		updatedAt: time.Now(),
	}
	rev := 0
	s.log.append(Event{Type: EventPlan,
		Revision: &rev, Names: append([]string(nil), s.planNames...),
		Objective: fptr(st.Result.Objective), JobID: j.ID})

	m.mu.Lock()
	m.sessions[s.ID] = s
	m.mu.Unlock()
	m.metrics.sessionsCreated.Add(1)
	return s, nil
}

// GetSession looks a session up by id.
func (m *Manager) GetSession(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// CloseSession closes a session: its event stream turns terminal and
// further deltas are rejected. The session stays queryable until the
// retention cap evicts it; it releases its workload at once, since
// neither Status nor the event stream reads it.
func (m *Manager) CloseSession(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownSession
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.closed = true
	s.instance = nil
	s.updatedAt = time.Now()
	s.log.append(Event{Type: EventSessionClosed, State: "closed"})
	s.mu.Unlock()

	m.mu.Lock()
	m.closedSessions = retain(m.closedSessions, id, maxClosedSessions, m.sessions)
	m.mu.Unlock()
	return s, nil
}

// SessionDelta applies a workload delta and re-solves warm-started from
// the session's previous incumbent. One delta runs at a time per
// session; a concurrent delta is rejected with ErrSessionBusy.
func (m *Manager) SessionDelta(ctx context.Context, id string, d SessionDelta) (*SessionDeltaResult, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownSession
	}
	if !s.solveMu.TryLock() {
		return nil, ErrSessionBusy
	}
	defer s.solveMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	prevInstance := s.instance
	prevPlan := append([]string(nil), s.planNames...)
	params := s.params
	built := make(map[string]bool, len(s.built))
	for name := range s.built {
		built[name] = true
	}
	s.mu.Unlock()

	next, err := applySessionDelta(prevInstance, d)
	if err != nil {
		return nil, err
	}
	if d.Params != nil {
		params = *d.Params
	}
	params.Tenant = s.tenant
	for _, name := range d.DropIndexes {
		delete(built, name)
	}
	have := map[string]bool{}
	for _, ix := range next.Indexes {
		have[ix.Name] = true
	}
	for _, name := range d.Built {
		if !have[name] {
			return nil, invalidf("built names unknown index %q", name)
		}
		built[name] = true
	}

	// Project already-built indexes out of the re-solve: their plans
	// lower the baselines, their helper discounts fold into create
	// costs, and only the rest remain as decisions.
	solveInst := next
	if len(built) > 0 {
		isNew := make([]bool, next.N())
		for i, ix := range next.Indexes {
			isNew[i] = !built[ix.Name]
		}
		proj, _, perr := evolve.ProjectDelta(next, isNew)
		if perr != nil {
			return nil, &InvalidError{Err: perr}
		}
		solveInst = proj
	}

	var (
		result    *SolveResult
		jobID     string
		planNames []string
	)
	if solveInst.N() > 0 {
		// Repair the previous order against the delta; fall back to a
		// cold submission when repair fails, which only an invalid
		// instance does (Submit then reports it).
		var j *Job
		var serr error
		if warmNames, rerr := evolve.RepairOrder(solveInst, prevPlan); rerr == nil {
			j, serr = m.SubmitWarm(solveInst, params, warmNames)
		} else {
			j, serr = m.Submit(solveInst, params)
		}
		if serr != nil {
			return nil, serr
		}
		if werr := waitJob(ctx, m, j); werr != nil {
			return nil, werr
		}
		st := j.Status()
		if st.State != StateDone || st.Result == nil {
			return nil, errSessionSolve(st)
		}
		result = st.Result
		jobID = j.ID
		planNames = append([]string(nil), st.Result.Names...)
	}

	tailFrom := commonPrefix(prevPlan, planNames)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.instance = next
	s.params = params
	s.built = built
	s.revision++
	s.planNames = planNames
	s.result = result
	s.lastJobID = jobID
	s.updatedAt = time.Now()
	rev := s.revision
	ev := Event{Type: EventDelta, Revision: &rev,
		TailFrom: intPtr(tailFrom), Names: append([]string(nil), planNames[tailFrom:]...),
		JobID: jobID}
	if result != nil {
		ev.Objective = fptr(result.Objective)
		ev.WarmStarted = result.WarmStarted
	}
	s.log.append(ev)
	s.mu.Unlock()
	m.metrics.sessionDeltas.Add(1)

	out := &SessionDeltaResult{
		SessionStatus: s.Status(),
		TailFrom:      tailFrom,
		Tail:          append([]string(nil), planNames[tailFrom:]...),
	}
	return out, nil
}

// waitJob blocks until the job is terminal, cancelling it when ctx
// expires first.
func waitJob(ctx context.Context, m *Manager, j *Job) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.Done():
		return nil
	case <-ctx.Done():
		_ = m.Cancel(j.ID)
		<-j.Done()
		return ctx.Err()
	}
}

func errSessionSolve(st JobStatus) error {
	if st.Error != "" {
		return &sessionSolveError{msg: "session solve " + st.State + ": " + st.Error}
	}
	return &sessionSolveError{msg: "session solve " + st.State}
}

type sessionSolveError struct{ msg string }

func (e *sessionSolveError) Error() string { return e.msg }

// commonPrefix returns the length of the longest common prefix of a
// and b — the first position at which the new plan diverges.
func commonPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// cloneInstance deep-copies an instance so session state never aliases
// request bodies.
func cloneInstance(in *model.Instance) *model.Instance {
	out := &model.Instance{Name: in.Name}
	out.Indexes = make([]model.Index, len(in.Indexes))
	for i, ix := range in.Indexes {
		ix.Columns = append([]string(nil), ix.Columns...)
		ix.Include = append([]string(nil), ix.Include...)
		out.Indexes[i] = ix
	}
	out.Queries = append([]model.Query(nil), in.Queries...)
	for _, p := range in.Plans {
		out.Plans = append(out.Plans, model.Plan{
			Query: p.Query, Indexes: append([]int(nil), p.Indexes...), Speedup: p.Speedup,
		})
	}
	out.BuildInteractions = append([]model.BuildInteraction(nil), in.BuildInteractions...)
	out.Precedences = append([]model.Precedence(nil), in.Precedences...)
	return out
}

// applySessionDelta returns a new instance with the delta applied; the
// input is not mutated. Every name reference is checked, and the result
// must validate.
func applySessionDelta(in *model.Instance, d SessionDelta) (*model.Instance, error) {
	out := cloneInstance(in)

	// Drop indexes (and everything referencing them), then remap.
	if len(d.DropIndexes) > 0 {
		drop := map[string]bool{}
		for _, name := range d.DropIndexes {
			drop[name] = true
		}
		remap := make([]int, len(out.Indexes))
		var keptIx []model.Index
		found := map[string]bool{}
		for i, ix := range out.Indexes {
			if drop[ix.Name] {
				remap[i] = -1
				found[ix.Name] = true
				continue
			}
			remap[i] = len(keptIx)
			keptIx = append(keptIx, ix)
		}
		for name := range drop {
			if !found[name] {
				return nil, invalidf("drop_indexes names unknown index %q", name)
			}
		}
		out.Indexes = keptIx
		var keptPlans []model.Plan
		for _, p := range out.Plans {
			ok := true
			for k, ix := range p.Indexes {
				if remap[ix] < 0 {
					ok = false
					break
				}
				p.Indexes[k] = remap[ix]
			}
			if ok {
				keptPlans = append(keptPlans, p)
			}
		}
		out.Plans = keptPlans
		var keptBuilds []model.BuildInteraction
		for _, b := range out.BuildInteractions {
			if remap[b.Target] < 0 || remap[b.Helper] < 0 {
				continue
			}
			b.Target, b.Helper = remap[b.Target], remap[b.Helper]
			keptBuilds = append(keptBuilds, b)
		}
		out.BuildInteractions = keptBuilds
		var keptPrecs []model.Precedence
		for _, pr := range out.Precedences {
			if remap[pr.Before] < 0 || remap[pr.After] < 0 {
				continue
			}
			pr.Before, pr.After = remap[pr.Before], remap[pr.After]
			keptPrecs = append(keptPrecs, pr)
		}
		out.Precedences = keptPrecs
	}

	// Drop queries (and their plans), then remap.
	if len(d.DropQueries) > 0 {
		drop := map[string]bool{}
		for _, name := range d.DropQueries {
			drop[name] = true
		}
		remap := make([]int, len(out.Queries))
		var keptQ []model.Query
		found := map[string]bool{}
		for q, qu := range out.Queries {
			if drop[qu.Name] {
				remap[q] = -1
				found[qu.Name] = true
				continue
			}
			remap[q] = len(keptQ)
			keptQ = append(keptQ, qu)
		}
		for name := range drop {
			if !found[name] {
				return nil, invalidf("drop_queries names unknown query %q", name)
			}
		}
		out.Queries = keptQ
		var keptPlans []model.Plan
		for _, p := range out.Plans {
			if remap[p.Query] < 0 {
				continue
			}
			p.Query = remap[p.Query]
			keptPlans = append(keptPlans, p)
		}
		out.Plans = keptPlans
	}

	// Additions.
	ixPos := map[string]int{}
	for i, ix := range out.Indexes {
		ixPos[ix.Name] = i
	}
	for _, ix := range d.AddIndexes {
		if _, dup := ixPos[ix.Name]; dup {
			return nil, invalidf("add_indexes: index %q already exists", ix.Name)
		}
		ixPos[ix.Name] = len(out.Indexes)
		out.Indexes = append(out.Indexes, ix)
	}
	qPos := map[string]int{}
	for q, qu := range out.Queries {
		qPos[qu.Name] = q
	}
	for _, qu := range d.AddQueries {
		qPos[qu.Name] = len(out.Queries)
		out.Queries = append(out.Queries, qu)
	}

	// Weight reassignment by query name.
	for name, w := range d.Weights {
		q, ok := qPos[name]
		if !ok {
			return nil, invalidf("weights names unknown query %q", name)
		}
		out.Queries[q].Weight = w
	}

	// Name-addressed plans and precedences.
	for _, sp := range d.AddPlans {
		q, ok := qPos[sp.Query]
		if !ok {
			return nil, invalidf("add_plans names unknown query %q", sp.Query)
		}
		p := model.Plan{Query: q, Speedup: sp.Speedup}
		for _, name := range sp.Indexes {
			i, ok := ixPos[name]
			if !ok {
				return nil, invalidf("add_plans names unknown index %q", name)
			}
			p.Indexes = append(p.Indexes, i)
		}
		out.Plans = append(out.Plans, p)
	}
	for _, pr := range d.AddPrecedences {
		b, ok := ixPos[pr.Before]
		if !ok {
			return nil, invalidf("add_precedences names unknown index %q", pr.Before)
		}
		a, ok := ixPos[pr.After]
		if !ok {
			return nil, invalidf("add_precedences names unknown index %q", pr.After)
		}
		out.Precedences = append(out.Precedences, model.Precedence{Before: b, After: a})
	}

	if err := out.Validate(); err != nil {
		return nil, &InvalidError{Err: err}
	}
	return out, nil
}
