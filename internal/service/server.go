package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/solver/backend"
)

// Server wires the job manager into HTTP handlers.
type Server struct {
	cfg Config
	m   *Manager
	mux *http.ServeMux
}

// New builds a server and starts its manager's worker pool.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), m: NewManager(cfg)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("POST /batch", s.handleBatchSubmit)
	mux.HandleFunc("GET /batch/{id}", s.handleBatchGet)
	mux.HandleFunc("DELETE /batch/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /batch/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /batch/{id}/trace", s.handleBatchTrace)
	mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /sessions/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("GET /sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /solvers", s.handleSolvers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the underlying job manager (used by tests and by
// embedders that submit jobs in-process).
func (s *Server) Manager() *Manager { return s.m }

// Shutdown drains the manager (see Manager.Shutdown).
func (s *Server) Shutdown(ctx context.Context) {
	s.m.Shutdown(ctx)
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeErr maps manager errors onto HTTP status codes.
func writeErr(w http.ResponseWriter, err error) {
	var inv *InvalidError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &inv):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: inv.Error()})
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull),
		errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownBatch),
		errors.Is(err, ErrUnknownSession):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrJobDone), errors.Is(err, ErrSessionClosed),
		errors.Is(err, ErrSessionBusy):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	case errors.Is(err, ErrTooManySessions):
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// parseRequest reads an instance plus solve parameters from the request.
// Three body shapes are accepted: the JSON envelope
// {"instance": ..., "budget": ...}, a bare JSON instance, and the
// compact text matrix format. For the latter two the solve knobs come
// from the URL query (budget, backends, workers, seed, step_limit,
// priority, prune and tenant).
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*model.Instance, Params, error) {
	var p Params
	limited := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer limited.Close()
	body, err := io.ReadAll(limited)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, p, err
		}
		return nil, p, invalidf("read request: %v", err)
	}

	// Decide by Content-Type when it names JSON, else by sniffing: both
	// JSON shapes start with '{', the text matrix format never does.
	// (Sniffing matters because curl --data-binary defaults to
	// application/x-www-form-urlencoded.)
	isJSON := strings.Contains(r.Header.Get("Content-Type"), "json")
	if !isJSON {
		trimmed := strings.TrimLeftFunc(string(body), func(c rune) bool {
			return c == ' ' || c == '\t' || c == '\r' || c == '\n'
		})
		isJSON = strings.HasPrefix(trimmed, "{")
	}

	if isJSON {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req solveRequest
		envErr := dec.Decode(&req)
		if req.Instance != nil {
			// An envelope: a field it does not know is the error to
			// report, not the bare-instance fallback's.
			if envErr != nil {
				return nil, p, invalidf("parse request: %v", envErr)
			}
			return req.Instance, req.Params, nil
		}
		// Not an envelope — try a bare instance with query-string knobs.
		bare, bareErr := codec.ReadJSON(bytes.NewReader(body))
		if bareErr != nil {
			return nil, p, invalidf("parse request (neither {\"instance\": ...} envelope nor instance JSON): %v", bareErr)
		}
		if p, err = queryParams(r); err != nil {
			return nil, p, err
		}
		return bare, p, nil
	}

	in, err := codec.ReadText(bytes.NewReader(body))
	if err != nil {
		return nil, p, &InvalidError{Err: err}
	}
	if p, err = queryParams(r); err != nil {
		return nil, p, err
	}
	return in, p, nil
}

// queryParams parses solve parameters from the URL query.
func queryParams(r *http.Request) (Params, error) {
	var p Params
	q := r.URL.Query()
	if v := q.Get("budget"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return p, invalidf("bad budget %q: %v", v, err)
		}
		p.Budget = Duration(d)
	}
	if v := q.Get("backends"); v != "" {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				p.Backends = append(p.Backends, name)
			}
		}
	}
	for _, f := range []struct {
		key string
		dst *int64
	}{{"seed", &p.Seed}, {"step_limit", &p.StepLimit}} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return p, invalidf("bad %s %q", f.key, v)
			}
			*f.dst = n
		}
	}
	for _, f := range []struct {
		key string
		dst *int
	}{{"workers", &p.Workers}, {"priority", &p.Priority}} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return p, invalidf("bad %s %q", f.key, v)
			}
			*f.dst = n
		}
	}
	if v := q.Get("prune"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, invalidf("bad prune %q", v)
		}
		p.Prune = &b
	}
	if v := q.Get("tenant"); v != "" {
		p.Tenant = v
	}
	// Refused rather than ignored: a client sending it expects it to
	// change the solve.
	if _, ok := q["param"]; ok {
		return p, invalidf("backend params were removed: the cp tail bound is always on; drop the param= query key")
	}
	return p, nil
}

// TenantHeader carries the tenant id on HTTP requests; it overrides
// the body's "tenant" field and the ?tenant= query knob.
const TenantHeader = "X-Tenant"

// applyTenant resolves the request's tenant id: header > body/query.
func applyTenant(r *http.Request, p *Params) {
	if v := r.Header.Get(TenantHeader); v != "" {
		p.Tenant = v
	}
}

// handleSolve is the synchronous endpoint: submit, wait, respond with
// the result. Client disconnection cancels the job like DELETE would.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	in, p, err := s.parseRequest(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	applyTenant(r, &p)
	j, err := s.m.Submit(in, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		_ = s.m.Cancel(j.ID)
		<-j.Done()
	}
	st := j.Status()
	switch st.State {
	case StateDone:
		writeJSON(w, http.StatusOK, st.Result)
	case StateCanceled:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "solve canceled: " + st.Error})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error})
	}
}

// handleSubmit is the asynchronous endpoint: 202 with the job status
// (200 when the cache already had the answer).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	in, p, err := s.parseRequest(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	applyTenant(r, &p)
	j, err := s.m.Submit(in, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	st := j.Status()
	w.Header().Set("Location", "/jobs/"+j.ID)
	code := http.StatusAccepted
	if isTerminal(st.State) {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Hold the job before cancelling: retention eviction may drop it from
	// the map the instant it turns terminal.
	j, ok := s.m.Get(id)
	if !ok {
		writeErr(w, ErrUnknownJob)
		return
	}
	if err := s.m.Cancel(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// JobTrace is the wire form of GET /jobs/{id}/trace: the job's
// flight-recorder snapshot plus enough identity to read it standalone.
type JobTrace struct {
	ID    string `json:"id"`
	State string `json:"state"`
	obs.TraceSnapshot
}

// handleJobTrace returns the job's flight-recorder trace: every span
// from queued to done, including per-backend starts (which the SSE
// stream omits) and every incumbent improvement with its objective.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, JobTrace{
		ID:            j.ID,
		State:         j.Status().State,
		TraceSnapshot: j.TraceSnapshot(),
	})
}

// handleJobEvents streams the job's progress as server-sent events:
// replayed from the beginning (or from Last-Event-ID / ?from=<seq>),
// then live until the terminal done event closes the stream.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownJob)
		return
	}
	streamEvents(w, r, j)
}

// streamEvents is the SSE loop shared by job and batch streams: replay
// from the beginning (or from Last-Event-ID / ?from=<seq>), then live
// until the source turns terminal.
func streamEvents(w http.ResponseWriter, r *http.Request, src eventSource) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "response writer cannot stream"})
		return
	}
	cursor := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			cursor = n + 1
		}
	}
	if v := r.URL.Query().Get("from"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			cursor = n
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		evs, terminal, notify := src.eventsSince(cursor)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		}
		if len(evs) > 0 {
			cursor = evs[len(evs)-1].Seq + 1
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// batchRequest is the JSON envelope accepted by POST /batch: N
// instances sharing one set of solve knobs (tenant included).
type batchRequest struct {
	Instances []*model.Instance `json:"instances"`
	Params
}

// handleBatchSubmit accepts a batch, fans it out and answers 202 with
// the batch status (200 when every item finished at submission — all
// cache hits or all rejected).
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	limited := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer limited.Close()
	dec := json.NewDecoder(limited)
	dec.DisallowUnknownFields()
	var req batchRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, err)
			return
		}
		writeErr(w, invalidf("parse batch request: %v", err))
		return
	}
	applyTenant(r, &req.Params)
	b, err := s.m.SubmitBatch(req.Instances, req.Params)
	if err != nil {
		writeErr(w, err)
		return
	}
	st := b.Status()
	w.Header().Set("Location", "/batch/"+b.ID)
	code := http.StatusAccepted
	if st.State == "done" {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.m.GetBatch(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownBatch)
		return
	}
	writeJSON(w, http.StatusOK, b.Status())
}

// handleBatchCancel aborts every outstanding item and returns the
// resulting batch status.
func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := s.m.GetBatch(id)
	if !ok {
		writeErr(w, ErrUnknownBatch)
		return
	}
	if err := s.m.CancelBatch(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, b.Status())
}

// handleBatchEvents streams per-item completions as server-sent events
// over the same replayable protocol as job streams.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.m.GetBatch(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownBatch)
		return
	}
	streamEvents(w, r, b)
}

// BatchTrace is the wire form of GET /batch/{id}/trace: one
// flight-recorder timeline per sub-solve, index-aligned with the
// request's instances (submission-failed items have no trace and are
// marked by an empty id).
type BatchTrace struct {
	ID    string     `json:"id"`
	State string     `json:"state"`
	Items []JobTrace `json:"items"`
}

func (s *Server) handleBatchTrace(w http.ResponseWriter, r *http.Request) {
	b, ok := s.m.GetBatch(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownBatch)
		return
	}
	st := b.Status()
	out := BatchTrace{ID: b.ID, State: st.State}
	for _, j := range b.Jobs() {
		if j == nil {
			out.Items = append(out.Items, JobTrace{})
			continue
		}
		out.Items = append(out.Items, JobTrace{
			ID:            j.ID,
			State:         j.Status().State,
			TraceSnapshot: j.TraceSnapshot(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionCreate accepts the same request shapes as POST /solve,
// runs the initial solve synchronously and answers 201 with the session
// status (its deployment plan included).
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	in, p, err := s.parseRequest(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	applyTenant(r, &p)
	sess, err := s.m.CreateSession(r.Context(), in, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.m.GetSession(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// handleSessionDelta applies a workload delta, re-solves warm-started
// from the previous incumbent, and answers with the new session status
// plus the changed tail of the plan.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	limited := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer limited.Close()
	dec := json.NewDecoder(limited)
	dec.DisallowUnknownFields()
	var d SessionDelta
	if err := dec.Decode(&d); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, err)
			return
		}
		writeErr(w, invalidf("parse session delta: %v", err))
		return
	}
	out, err := s.m.SessionDelta(r.Context(), r.PathValue("id"), d)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionEvents streams the session's plan revisions as
// server-sent events over the same replayable protocol as job streams.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.m.GetSession(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrUnknownSession)
		return
	}
	streamEvents(w, r, sess)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, err := s.m.CloseSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// SolverInfo is one entry of GET /solvers: a registered backend's
// self-description, straight from the registry.
type SolverInfo struct {
	Name string `json:"name"`
	// Kind is "constructive", "exact" or "anytime".
	Kind string `json:"kind"`
	// Proves marks backends whose results can carry an optimality
	// proof: exactly the exact kind.
	Proves  bool   `json:"proves,omitempty"`
	Summary string `json:"summary,omitempty"`
}

// Solvers snapshots the registry in its listing order (also used by
// embedders that want the catalogue without HTTP).
func Solvers() []SolverInfo {
	var out []SolverInfo
	for _, b := range backend.All() {
		info := b.Info()
		out = append(out, SolverInfo{
			Name:    info.Name,
			Kind:    info.Kind.String(),
			Proves:  info.Kind == backend.KindExact,
			Summary: info.Summary,
		})
	}
	return out
}

// handleSolvers lists every registered backend, so clients can discover
// valid "backends" values instead of learning them from 400 responses.
func (s *Server) handleSolvers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"solvers": Solvers()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.m.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the JSON snapshot by default and the Prometheus
// text exposition format when the client asks for it — either
// ?format=prometheus or an Accept header naming text/plain or
// openmetrics (what a Prometheus scraper sends).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	wantText := r.URL.Query().Get("format") == "prometheus" ||
		strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
	if wantText {
		w.Header().Set("Content-Type", obs.TextContentType)
		w.WriteHeader(http.StatusOK)
		_ = s.m.ObsRegistry().RenderText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.m.Metrics())
}
