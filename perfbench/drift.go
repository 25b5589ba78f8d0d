package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

// Session shape of serve-drift: each connection keeps driftSlots
// sessions open and sends their deltas in turn; a session is closed and
// replaced by a fresh one after driftDeltas deltas, so the workload a
// run sees is the same however long it runs.
const (
	driftSlots  = 2
	driftDeltas = 8
)

// driftPool is how many base instances sessions start from, in turn.
// The pool is the same for every seed (driftPoolSeed); the run seed
// draws every delta. A run opens several dozen sessions, so it solves
// every base instance several times under different deltas, and seeds
// differ in their deltas rather than in how hard a few base instances
// happen to be. Set-up opens the first sessions, so it does the same
// work for every seed.
const (
	driftPool     = 12
	driftPoolSeed = 20120327
)

// driftSizes are the index counts of the pool's instances, in turn;
// deltas keep a session's open decisions within 14 to 18.
var driftSizes = []int{15, 16, 17}

// driftSession is the client's mirror of one server session: the
// instance with every delta applied, the built set, and the plan the
// server last returned.
type driftSession struct {
	id     string
	label  string
	rng    *rand.Rand
	full   *model.Instance
	built  map[string]bool
	plan   []string
	deltas int
	added  int
	// history holds the query weights after each delta since the last
	// structural change; a revert delta returns to an earlier entry.
	history [][]float64
}

type serveDrift struct {
	seed     int64
	srv      *server
	sessions [serveConns][driftSlots]*driftSession
	gens     [serveConns][driftSlots]int64
	turn     [serveConns]int
	req      atomic.Int64
	// ratioSum and ratioN are kept per connection, each written only by
	// its own goroutine and summed in connection order, so obj_ratio
	// does not depend on which connection finished first.
	ratioSum [serveConns]float64
	ratioN   [serveConns]int
	stats    *serveStats
}

func newServeDrift(seed int64) (workload, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w := &serveDrift{seed: seed, srv: srv}
	// Open every connection's first sessions: their initial solves are
	// part of set-up, like a deployment driver attaching to a server.
	for conn := 0; conn < serveConns; conn++ {
		for slot := 0; slot < driftSlots; slot++ {
			if err := w.open(conn, slot); err != nil {
				srv.close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *serveDrift) tailPct() float64 { return 95 }
func (w *serveDrift) close()           { w.srv.close() }
func (w *serveDrift) objRatio() float64 {
	return objRatioOf(w.ratioSum[:], w.ratioN[:])
}

// open replaces the session in (conn, slot) with the slot's next
// generation, started from the next pool instance.
func (w *serveDrift) open(conn, slot int) error {
	if old := w.sessions[conn][slot]; old != nil {
		code, out, err := w.srv.do(http.MethodDelete, "/sessions/"+old.id, nil, 0, 0)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("close %s: status %d err %v: %.200s", old.label, code, err, out)
		}
	}
	gen := w.gens[conn][slot]
	w.gens[conn][slot]++
	base := (gen*serveConns*driftSlots + int64(conn*driftSlots+slot)) % driftPool
	in := driftBase(base)
	s := &driftSession{
		label: fmt.Sprintf("drift-%d-%d-%d", conn, slot, gen),
		rng:   rand.New(rand.NewSource(splitmix(w.seed, 1000+int64(conn), int64(slot), gen))),
		full:  in, built: map[string]bool{},
	}
	rng := s.rng
	body, err := json.Marshal(solveRequest{Instance: in, Params: service.Params{
		Budget: service.Duration(serveBudget), StepLimit: raceStepLimit, Workers: solveWorkers, Seed: rng.Int63(),
	}})
	if err != nil {
		return err
	}
	code, out, err := w.srv.do(http.MethodPost, "/sessions", body, 0, 0)
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("create %s: status %d err %v: %.200s", s.label, code, err, out)
	}
	var st service.SessionStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return fmt.Errorf("create %s: %w", s.label, err)
	}
	s.id, s.plan = st.ID, st.Plan
	s.history = [][]float64{s.weights()}
	w.sessions[conn][slot] = s
	return nil
}

// driftBase builds pool instance i.
func driftBase(i int64) *model.Instance {
	rng := rand.New(rand.NewSource(splitmix(driftPoolSeed, i)))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = driftSizes[i%int64(len(driftSizes))]
	cfg.Queries = cfg.Indexes
	in := randgen.New(rng, cfg)
	in.Name = fmt.Sprintf("drift-base-%d", i)
	return in
}

func (s *driftSession) weights() []float64 {
	ws := make([]float64, len(s.full.Queries))
	for q, qu := range s.full.Queries {
		ws[q] = qu.Weight
	}
	return ws
}

// nextDelta draws the session's next delta from its own stream. About a
// third change two query weights, a fifth return the weights to an
// earlier state, and the rest change the index set: a built marker on
// the plan's head paired with a new index, or a lone add or drop that
// keeps the open decision count within 14 to 18.
func (s *driftSession) nextDelta() service.SessionDelta {
	var d service.SessionDelta
	open := len(s.plan)
	r := s.rng.Float64()
	switch {
	case r < 0.35 || (r < 0.55 && len(s.history) < 2):
		d.Weights = map[string]float64{}
		for k := 0; k < 2; k++ {
			q := s.full.Queries[s.rng.Intn(len(s.full.Queries))]
			d.Weights[q.Name] = 0.5 + 1.5*s.rng.Float64()
		}
	case r < 0.55:
		back := s.history[len(s.history)-2]
		d.Weights = map[string]float64{}
		for q, qu := range s.full.Queries {
			if qu.Weight != back[q] {
				d.Weights[qu.Name] = back[q]
			}
		}
	case r < 0.8 && open > 1:
		d.Built = []string{s.plan[0]}
		s.addIndex(&d)
	case (r < 0.9 && open < 18) || open <= 14:
		s.addIndex(&d)
	default:
		d.DropIndexes = []string{s.plan[1+s.rng.Intn(open-1)]}
	}
	return d
}

// addIndex adds one new index to d with one or two plans using it,
// each optionally together with an index still to be built.
func (s *driftSession) addIndex(d *service.SessionDelta) {
	name := fmt.Sprintf("%s-x%d", s.label, s.added)
	s.added++
	d.AddIndexes = append(d.AddIndexes, model.Index{Name: name, CreateCost: 10 + 110*s.rng.Float64()})
	for k := 1 + s.rng.Intn(2); k > 0; k-- {
		q := s.full.Queries[s.rng.Intn(len(s.full.Queries))]
		ixs := []string{name}
		if len(s.plan) > 0 && s.rng.Intn(2) == 0 {
			ixs = append(ixs, s.plan[s.rng.Intn(len(s.plan))])
		}
		d.AddPlans = append(d.AddPlans, service.SessionPlan{
			Query: q.Name, Indexes: ixs, Speedup: q.Runtime * (0.05 + 0.35*s.rng.Float64()),
		})
	}
}

// apply mirrors the service's delta semantics on the client's copy:
// drops (with everything naming the index), additions, weights, plans.
func (s *driftSession) apply(d service.SessionDelta) error {
	in := s.full
	if len(d.DropIndexes) > 0 {
		drop := map[string]bool{}
		for _, name := range d.DropIndexes {
			drop[name] = true
			delete(s.built, name)
		}
		remap := make([]int, len(in.Indexes))
		out := &model.Instance{Name: in.Name, Queries: append([]model.Query(nil), in.Queries...)}
		for i, ix := range in.Indexes {
			remap[i] = -1
			if !drop[ix.Name] {
				remap[i] = len(out.Indexes)
				out.Indexes = append(out.Indexes, ix)
			}
		}
	plans:
		for _, p := range in.Plans {
			np := model.Plan{Query: p.Query, Speedup: p.Speedup}
			for _, ix := range p.Indexes {
				if remap[ix] < 0 {
					continue plans
				}
				np.Indexes = append(np.Indexes, remap[ix])
			}
			out.Plans = append(out.Plans, np)
		}
		for _, b := range in.BuildInteractions {
			if remap[b.Target] >= 0 && remap[b.Helper] >= 0 {
				out.BuildInteractions = append(out.BuildInteractions,
					model.BuildInteraction{Target: remap[b.Target], Helper: remap[b.Helper], Speedup: b.Speedup})
			}
		}
		for _, p := range in.Precedences {
			if remap[p.Before] >= 0 && remap[p.After] >= 0 {
				out.Precedences = append(out.Precedences, model.Precedence{Before: remap[p.Before], After: remap[p.After]})
			}
		}
		in = out
	} else {
		cp := *in
		cp.Queries = append([]model.Query(nil), in.Queries...)
		cp.Indexes = append([]model.Index(nil), in.Indexes...)
		cp.Plans = append([]model.Plan(nil), in.Plans...)
		in = &cp
	}
	pos := map[string]int{}
	for i, ix := range in.Indexes {
		pos[ix.Name] = i
	}
	for _, ix := range d.AddIndexes {
		pos[ix.Name] = len(in.Indexes)
		in.Indexes = append(in.Indexes, ix)
	}
	qpos := map[string]int{}
	for q, qu := range in.Queries {
		qpos[qu.Name] = q
	}
	for name, wt := range d.Weights {
		in.Queries[qpos[name]].Weight = wt
	}
	for _, sp := range d.AddPlans {
		p := model.Plan{Query: qpos[sp.Query], Speedup: sp.Speedup}
		for _, name := range sp.Indexes {
			p.Indexes = append(p.Indexes, pos[name])
		}
		in.Plans = append(in.Plans, p)
	}
	for _, name := range d.Built {
		s.built[name] = true
	}
	s.full = in
	if d.Weights != nil {
		s.history = append(s.history, s.weights())
	} else {
		s.history = [][]float64{s.weights()}
	}
	return in.Validate()
}

// solveInstance is what the server solves after this delta: the full
// instance with the built indexes projected out.
func (s *driftSession) solveInstance() (*model.Instance, error) {
	if len(s.built) == 0 {
		return s.full, nil
	}
	isNew := make([]bool, len(s.full.Indexes))
	for i, ix := range s.full.Indexes {
		isNew[i] = !s.built[ix.Name]
	}
	proj, _, err := evolve.ProjectDelta(s.full, isNew)
	return proj, err
}

func (w *serveDrift) run(ph *phase) {
	w.stats = newServeStats()
	w.stats.start = w.srv.counts()
	w.srv.tr.Store(ph.tr)
	var wg sync.WaitGroup
	for conn := 0; conn < serveConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for done := 0; ph.more(done); done++ {
				// Every session of the connection takes its turn in a
				// round, so traced and untraced rounds see the same
				// sessions.
				tr, log := ph.pick(done / driftSlots)
				slot := w.turn[conn]
				w.turn[conn] = (slot + 1) % driftSlots
				s := w.sessions[conn][slot]
				if s.deltas == driftDeltas {
					if err := w.open(conn, slot); err != nil {
						log.wrongOutput("%v", err)
						return
					}
					s = w.sessions[conn][slot]
				}
				w.delta(tr, log, conn, s)
			}
		}(conn)
	}
	wg.Wait()
	w.stats.final = w.srv.counts()
	w.srv.tr.Store(untraced)
	ph.after = func() { replayLayers(ph.tr, w.stats.replays) }
}

// delta is one op: POST /sessions/{id}/delta with the session's next
// seeded delta.
func (w *serveDrift) delta(tr *tracer, log *opLog, conn int, s *driftSession) {
	d := s.nextDelta()
	s.deltas++
	body, err := json.Marshal(d)
	if err != nil {
		log.fail("encode delta: %v", err)
		return
	}
	prevPlan := s.plan
	req := w.req.Add(1)
	root := tr.begin(req, 0, "op")
	start := time.Now()
	code, out, err := w.srv.do(http.MethodPost, "/sessions/"+s.id+"/delta", body, req, root)
	dur := time.Since(start)
	tr.end(root)
	label := fmt.Sprintf("%s delta %d", s.label, s.deltas)
	if err != nil || code != http.StatusOK {
		log.wrongOutput("%s: status %d err %v: %.200s", label, code, err, out)
		return
	}
	var res service.SessionDeltaResult
	if err := json.Unmarshal(out, &res); err != nil || res.Result == nil {
		log.wrongOutput("%s: decode reply: %v", label, err)
		return
	}
	s.plan = res.Plan
	if err := s.apply(d); err != nil {
		log.wrongOutput("%s: client mirror: %v", label, err)
		return
	}
	projStart := time.Now()
	solveIn, err := s.solveInstance()
	projDur := time.Since(projStart)
	if err != nil {
		log.wrongOutput("%s: project: %v", label, err)
		return
	}
	if time.Duration(res.Result.Wall) >= serveBudget*9/10 && !res.Result.CacheHit {
		log.fail("%s: solve hit the %v safety budget", label, serveBudget)
		return
	}
	if !sameNames(res.Plan, res.Result.Names) {
		log.wrongOutput("%s: session plan %v is not the solve's order %v", label, res.Plan, res.Result.Names)
		return
	}
	ratio, class, msg := verify(solveIn, res.Result, w.stats)
	if msg != "" {
		log.wrongOutput("%s: %s", label, msg)
		return
	}
	if h := w.srv.handlerSpanOf(req); h != 0 {
		td, err := w.srv.transport(body, len(out), tr.dur(h))
		if err != nil {
			log.wrongOutput("%s: %v", label, err)
			return
		}
		tr.add(req, root, "http.transport", td)
		if len(s.built) > 0 {
			tr.add(req, h, "evolve.project", projDur)
		}
		if j, ok := w.srv.svc.Manager().Get(res.LastJobID); ok {
			if st := j.Status(); st.StartedAt != nil {
				tr.add(req, h, "service.queue_wait", st.StartedAt.Sub(st.QueuedAt))
			}
		}
		if !res.Result.CacheHit {
			tr.add(req, h, "service.solve", time.Duration(res.Result.Wall))
		}
		w.stats.keep(replay{req: req, handler: h, body: body, decodeInto: func() any { return &service.SessionDelta{} },
			reply: &res, in: solveIn, prevPlan: prevPlan})
	}
	w.stats.note(res.Result, class)
	w.stats.mu.Lock()
	if len(prevPlan) > 0 {
		w.stats.tailKept = append(w.stats.tailKept, float64(res.TailFrom)/float64(len(prevPlan)))
	}
	w.stats.mu.Unlock()
	w.ratioSum[conn] += ratio
	w.ratioN[conn]++
	log.ok(dur)
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *serveDrift) layers(a attribution, m map[string]float64) {
	w.stats.fill(a, m)
	m["evolve.repair_us"] = a.SelfMedianMS["evolve.repair"] * 1e3
	m["evolve.project_us"] = a.SelfMedianMS["evolve.project"] * 1e3
	m["service.queue_wait_ms"] = a.SelfMedianMS["service.queue_wait"]
	var sum float64
	for _, k := range w.stats.tailKept {
		sum += k
	}
	if n := len(w.stats.tailKept); n > 0 {
		m["session.tail_kept_frac"] = sum / float64(n)
	}
}
