// Package obs is the zero-dependency observability core: atomic
// counters, render-time gauges and fixed-bucket histograms behind a
// registry that renders the Prometheus text exposition format, a
// sliding-window rate estimator, and an append-only per-solve "flight
// recorder" trace of timestamped span events.
//
// Everything here is built for hot paths: Counter.Add and
// Histogram.Observe are single atomic operations (plus a bounded bucket
// scan), allocate nothing, and never take a lock. The registry is only
// locked at registration and render time. Search engines that cannot
// afford even an atomic per node (the CP branch-and-bound) accumulate
// plain ints in per-worker scratch and fold them into obs counters once
// per solve — the package is the sink, not the accumulator.
//
// There is no process-wide registry: every subsystem (the solve
// service, tests) creates its own with NewRegistry, so counters never
// bleed between instances.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Label is one name="value" pair on an exposition sample. Vec metrics
// carry their family label; histogram bucket samples additionally carry
// the "le" bound, so a sample may have zero, one or two labels.
type Label struct {
	Name  string
	Value string
}

// metric is one registered instrument. samples streams the exposition
// samples (suffix and optional labels appended to the metric name).
type metric interface {
	name() string
	help() string
	typ() string
	samples(fn func(suffix string, labels []Label, v float64))
}

// desc is the shared name/help header of every metric.
type desc struct {
	mname string
	mhelp string
}

func (d desc) name() string { return d.mname }
func (d desc) help() string { return d.mhelp }

// Registry holds a set of named metrics and renders them. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds m or panics: metric registration happens at package or
// subsystem init, and a duplicate or malformed name there is a
// programming error no caller can meaningfully handle.
func (r *Registry) register(m metric) {
	if !validName(m.name()) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[m.name()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name()))
	}
	r.names[m.name()] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// each visits the metrics in registration order under the lock.
func (r *Registry) each(fn func(metric)) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		fn(m)
	}
}

// Counter registers and returns a monotonically increasing counter.
// Prometheus convention: name it <thing>_total.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&counterMetric{desc: desc{name, help}, c: c})
	return c
}

// GaugeFunc registers a gauge whose value is computed at render time.
// fn must be safe to call from any goroutine and must not call back
// into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFuncMetric{desc: desc{name, help}, fn: fn})
}

// CounterVec registers a counter family keyed by one label (e.g.
// backend wins by backend name). Children are created on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if !validName(label) || label[0] == ':' {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	v := &CounterVec{label: label, children: make(map[string]*Counter)}
	r.register(&counterVecMetric{desc: desc{name, help}, v: v})
	return v
}

// Histogram registers a fixed-bucket histogram. bounds are the
// inclusive bucket upper limits in seconds (or any unit), strictly
// increasing and finite; an implicit +Inf bucket is appended. nil uses
// LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&histogramMetric{desc: desc{name, help}, h: h})
	return h
}

// HistogramVec registers a histogram family keyed by one label (e.g.
// queue wait by tenant). Children share one bucket layout (nil =
// LatencyBuckets) and are created on first use, never removed — keep
// the label's cardinality bounded by construction (tenant ids, backend
// names), not by this package.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if !validName(label) || label[0] == ':' {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	v := &HistogramVec{label: label, bounds: bounds, children: make(map[string]*Histogram)}
	r.register(&histogramVecMetric{desc: desc{name, help}, v: v})
	return v
}

// sortedKeys returns the map's keys in deterministic order (exposition
// output must be stable for diffing and for the format lint).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
