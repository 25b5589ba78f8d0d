package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share
// Req; Parent is the span that caused this one (0 for the op's root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(req, parent int64, name string) int64 {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a child span whose duration was measured elsewhere: a
// split the server reports (its solve wall, its mean queue wait) or a
// client-side replay of a server layer on the request's own input. It
// ends at the moment it is recorded; only its duration is used.
func (t *tracer) add(req, parent int64, name string, d time.Duration) {
	if !t.on {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now - int64(d), End: now})
	t.mu.Unlock()
}

// dur is the duration of a closed span.
func (t *tracer) dur(id int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].End - t.spans[id-1].Start)
}

// timed runs f inside a span.
func (t *tracer) timed(req, parent int64, name string, f func()) {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
}

// attribution is the per-layer breakdown of the traced run.
type attribution struct {
	// Ops is the number of traced ops; Band the ops in the median band.
	Ops  int `json:"ops"`
	Band int `json:"band_ops"`
	// E2EMedianMS is the median root-span duration.
	E2EMedianMS float64 `json:"e2e_median_ms"`
	// SelfMedianMS is, per layer, the median over ops of the layer's
	// self time in one op (its duration minus its children's).
	SelfMedianMS map[string]float64 `json:"self_median_ms"`
	// DurMedianMS is, per layer, the median over ops of the layer's
	// whole duration in one op, children included.
	DurMedianMS map[string]float64 `json:"dur_median_ms"`
	// BandMeanMS is, per layer, the mean self time over the ops whose
	// e2e lies in the middle tenth (45th to 55th percentile). These
	// add up to the median op.
	BandMeanMS map[string]float64 `json:"band_mean_ms"`
	// BandE2EMS is the mean e2e of the ops in the median band.
	BandE2EMS float64 `json:"band_e2e_ms"`
	// Unattributed is the root's own self time in the band, as a share
	// of the band's e2e: time inside an op that no layer span covers.
	Unattributed float64 `json:"unattributed_frac"`
	// SumFrac is the sum of the named layers' band means over the
	// band's e2e; the check wants it within 5% of 1. The band's mean
	// rather than the e2e median is the reference, so that the check
	// tests whether the layers cover the ops near the median, not how
	// close a mean of a few ops lies to a median.
	SumFrac float64 `json:"sum_frac"`
	// MinSelfMS is the smallest band-mean self time of any layer; a
	// clearly negative one means a layer claims time the op never spent.
	MinSelfMS float64 `json:"min_self_ms"`
	OK        bool    `json:"ok"`
}

// attribute computes self times per op and checks that the named layers
// account for the median op. The root span's own self time, the part of
// an op no layer span covers, is left unattributed.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	childSum := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	type opSelf struct {
		e2e    float64
		layers map[string]float64
		durs   map[string]float64
	}
	byReq := map[int64]*opSelf{}
	var reqs []int64
	for _, s := range spans {
		o := byReq[s.Req]
		if o == nil {
			o = &opSelf{layers: map[string]float64{}, durs: map[string]float64{}}
			byReq[s.Req] = o
			reqs = append(reqs, s.Req)
		}
		self := float64(s.End-s.Start-childSum[s.ID]) / 1e6
		name := s.Name
		if s.Parent == 0 {
			o.e2e = float64(s.End-s.Start) / 1e6
			name = "unattributed"
		}
		o.layers[name] += self
		o.durs[name] += float64(s.End-s.Start) / 1e6
	}
	a := attribution{Ops: len(reqs), SelfMedianMS: map[string]float64{},
		DurMedianMS: map[string]float64{}, BandMeanMS: map[string]float64{}}
	if len(reqs) == 0 {
		return a
	}
	selfs, durs := map[string][]float64{}, map[string][]float64{}
	ops := make([]*opSelf, 0, len(reqs))
	for _, r := range reqs {
		o := byReq[r]
		ops = append(ops, o)
		for name, v := range o.layers {
			selfs[name] = append(selfs[name], v)
			durs[name] = append(durs[name], o.durs[name])
		}
	}
	for name, vs := range selfs {
		a.SelfMedianMS[name] = median(vs)
		a.DurMedianMS[name] = median(durs[name])
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].e2e < ops[j].e2e })
	e2es := make([]float64, len(ops))
	for i, o := range ops {
		e2es[i] = o.e2e
	}
	a.E2EMedianMS = quantile(e2es, 0.5)
	lo := int(math.Floor(0.45 * float64(len(ops))))
	hi := int(math.Ceil(0.55 * float64(len(ops))))
	if hi <= lo {
		hi = lo + 1
	}
	band := ops[lo:hi]
	a.Band = len(band)
	for _, o := range band {
		a.BandE2EMS += o.e2e / float64(len(band))
		for name, v := range o.layers {
			a.BandMeanMS[name] += v / float64(len(band))
		}
	}
	named := 0.0
	a.MinSelfMS = math.Inf(1)
	for name, v := range a.BandMeanMS {
		if name == "unattributed" {
			continue
		}
		named += v
		a.MinSelfMS = math.Min(a.MinSelfMS, v)
	}
	a.Unattributed = a.BandMeanMS["unattributed"] / a.BandE2EMS
	a.SumFrac = named / a.BandE2EMS
	// A remainder may dip below zero by timer jitter; more than 2% of
	// the op means measured or replayed layers claim time the op never
	// spent.
	a.OK = math.Abs(a.SumFrac-1) <= 0.05 && a.MinSelfMS >= -0.02*a.BandE2EMS
	return a
}
