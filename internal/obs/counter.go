package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer. Add/Inc are single
// atomic adds: safe from any goroutine, allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

type counterMetric struct {
	desc
	c *Counter
}

func (m *counterMetric) typ() string { return "counter" }
func (m *counterMetric) samples(fn func(string, []Label, float64)) {
	fn("", nil, float64(m.c.Value()))
}

type gaugeFuncMetric struct {
	desc
	fn func() float64
}

func (m *gaugeFuncMetric) typ() string { return "gauge" }
func (m *gaugeFuncMetric) samples(fn func(string, []Label, float64)) {
	fn("", nil, m.fn())
}

// CounterVec is a counter family keyed by one label value (created on
// first use, never removed). With takes a mutex only on the first
// sighting of a label value; the returned child is a plain Counter the
// caller may cache.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Snapshot copies the family as {label value: count}.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.children))
	for k, c := range v.children {
		out[k] = c.Value()
	}
	return out
}

type counterVecMetric struct {
	desc
	v *CounterVec
}

func (m *counterVecMetric) typ() string { return "counter" }
func (m *counterVecMetric) samples(fn func(string, []Label, float64)) {
	snap := m.v.Snapshot()
	for _, k := range sortedKeys(snap) {
		fn("", []Label{{m.v.label, k}}, float64(snap[k]))
	}
}
