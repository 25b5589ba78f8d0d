package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default bucket layout for durations in seconds:
// exponential-ish from 1ms to 2min, which brackets everything from a
// cache hit to a max-budget proof search.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative le-bounded buckets plus a sum and a count. Observe is a
// bucket scan and three atomics — lock-free, allocation-free, safe from
// any goroutine. Quantiles are estimated from the bucket counts by
// linear interpolation, exactly like PromQL's histogram_quantile.
type Histogram struct {
	bounds  []float64      // finite upper bounds, strictly increasing
	counts  []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		panic("obs: +Inf bucket is implicit, do not declare it")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// snapshot copies per-bucket counts (not cumulative).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that straddles rank q. Values landing in the +Inf
// overflow bucket report the largest finite bound — an understatement,
// which is the honest direction for a tail estimate with no upper
// limit. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) { // overflow bucket
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

type histogramMetric struct {
	desc
	h *Histogram
}

func (m *histogramMetric) typ() string { return "histogram" }

// samples emits the Prometheus histogram triplet: cumulative _bucket
// series per le bound (ending with le="+Inf"), then _sum and _count.
// extra carries the family label of a vec child ("" = plain histogram).
func histogramSamples(h *Histogram, extra Label, fn func(string, []Label, float64)) {
	counts := h.snapshot()
	labels := func(le string) []Label {
		if extra.Name == "" {
			return []Label{{"le", le}}
		}
		return []Label{{extra.Name, extra.Value}, {"le", le}}
	}
	var tail []Label
	if extra.Name != "" {
		tail = []Label{extra}
	}
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fn("_bucket", labels(le), float64(cum))
	}
	fn("_sum", tail, h.Sum())
	fn("_count", tail, float64(h.Count()))
}

func (m *histogramMetric) samples(fn func(string, []Label, float64)) {
	histogramSamples(m.h, Label{}, fn)
}

// HistogramVec is a histogram family keyed by one label value. Children
// share the family's bucket layout, are created on first use and never
// removed; With takes a mutex only on the first sighting of a label
// value, and the returned child is a plain Histogram the caller may
// cache, so the observe path stays lock-free.
type HistogramVec struct {
	label    string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[value] = h
	}
	return h
}

// Snapshot copies the family as {label value: child histogram}.
func (v *HistogramVec) Snapshot() map[string]*Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]*Histogram, len(v.children))
	for k, h := range v.children {
		out[k] = h
	}
	return out
}

type histogramVecMetric struct {
	desc
	v *HistogramVec
}

func (m *histogramVecMetric) typ() string { return "histogram" }

// samples emits the per-child histogram triplets in sorted label order:
// each child's buckets carry both the family label and its le bound.
func (m *histogramVecMetric) samples(fn func(string, []Label, float64)) {
	snap := m.v.Snapshot()
	for _, k := range sortedKeys(snap) {
		histogramSamples(snap[k], Label{m.v.label, k}, fn)
	}
}

// RateWindow estimates an event rate over a sliding time window from a
// bounded ring of event timestamps — the fix for the "solves per
// second = lifetime count / lifetime uptime" fallacy, where one busy
// minute after an idle day reads as ~0. Rate counts only the events
// inside the window; before a full window has elapsed since Reset the
// denominator is the elapsed time, so a fresh server is not
// under-reported either.
type RateWindow struct {
	window time.Duration
	mu     sync.Mutex
	buf    []int64 // unix-nano timestamps, ring
	head   int     // next write position
	n      int     // live entries
	start  time.Time
}

// NewRateWindow returns a rate estimator over the given window keeping
// at most capacity timestamps (0 = 4096). If more events than capacity
// land inside one window the rate is a lower bound; size the capacity
// to the peak rate you care to resolve.
func NewRateWindow(capacity int, window time.Duration) *RateWindow {
	if capacity <= 0 {
		capacity = 4096
	}
	if window <= 0 {
		window = time.Minute
	}
	return &RateWindow{window: window, buf: make([]int64, capacity), start: time.Now()}
}

// Mark records one event at t.
func (r *RateWindow) Mark(t time.Time) {
	r.mu.Lock()
	r.buf[r.head] = t.UnixNano()
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Rate returns events per second over the window ending at now.
func (r *RateWindow) Rate(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := now.Add(-r.window).UnixNano()
	recent := 0
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head-1-i+2*len(r.buf))%len(r.buf)] < cutoff {
			break // ring is time-ordered newest-first from head-1
		}
		recent++
	}
	denom := r.window
	if up := now.Sub(r.start); up < denom {
		denom = up
	}
	if denom <= 0 {
		return 0
	}
	return float64(recent) / denom.Seconds()
}
