package cluster

import "sync"

// Cross-node incumbent exchange is coordinator-free because an
// incumbent is a natural CRDT: merge = take the better schedule, with a
// deterministic total order breaking ties. Every node applies every
// delivery through Merge, so any delivery order, any duplication, and
// any regrouping converge to the same state — the property tests in
// lww_test.go pin exactly that.

// Clock is a Lamport logical clock: Tick stamps local events, Witness
// folds in stamps observed from peers so local stamps always move past
// anything already seen cluster-wide.
type Clock struct {
	mu  sync.Mutex
	now uint64
}

// clockCap bounds the stamps a node accepts from peers: frames stamped
// at or above it are rejected before Witness. Honest clocks start at 0
// and move by one per event, so they never get near it; without the cap
// one frame stamped 2^64-1 would make the next Tick wrap to 0, and every
// later local stamp would lose the LWW ties it should win.
const clockCap = 1 << 62

// Tick advances the clock and returns a fresh stamp.
func (c *Clock) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now++
	return c.now
}

// Witness folds a remotely observed stamp into the clock. It adopts at
// most clockCap/2: a peer frame stamped just below clockCap is still
// accepted, and the 2^61 ticks of headroom this leaves keep every stamp
// the node later sends below the cap its peers enforce.
func (c *Clock) Witness(t uint64) {
	t = min(t, clockCap/2)
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// Incumbent is one replicated best-known schedule for a solve key. The
// order is in canonical index space — every node canonicalizes
// identically, so a schedule found anywhere is meaningful everywhere.
// Objectives are finite: local ones come from feasible orders, and
// handleIncumbent rejects a peer frame with a non-finite objective, so
// NaN (which would never lose a merge) cannot enter one.
type Incumbent struct {
	// Objective is the schedule's objective (lower is better).
	Objective float64 `json:"objective"`
	// Order is the schedule itself, canonical index space.
	Order []int `json:"order"`
	// Clock is the publisher's Lamport stamp: among equal objectives,
	// the *latest* writer wins (the LWW in the merge's name).
	Clock uint64 `json:"clock"`
	// Node is the publishing node's name, the next tie-break.
	Node string `json:"node"`
}

// zero reports the empty incumbent (no schedule known).
func (a Incumbent) zero() bool { return a.Order == nil }

// Dominates reports whether a strictly beats b in the merge's total
// order: better (lower) objective first — a better objective is NEVER
// displaced by a worse one, whatever the clocks say — then, among equal
// objectives, the higher Lamport stamp (last writer wins), then the
// smaller node name, then the lexicographically smaller order. The
// final tie-breaks exist only to make the order total, which is what
// makes Merge commutative.
func (a Incumbent) Dominates(b Incumbent) bool {
	switch {
	case a.zero():
		return false
	case b.zero():
		return true
	case a.Objective != b.Objective:
		return a.Objective < b.Objective
	case a.Clock != b.Clock:
		return a.Clock > b.Clock
	case a.Node != b.Node:
		return a.Node < b.Node
	}
	for i := range a.Order {
		if i >= len(b.Order) {
			return false
		}
		if a.Order[i] != b.Order[i] {
			return a.Order[i] < b.Order[i]
		}
	}
	return false
}

// Merge returns the winner of two incumbents. Commutative, associative,
// and idempotent (see Dominates for the total order), so replicas
// converge under any delivery schedule.
func Merge(a, b Incumbent) Incumbent {
	if a.Dominates(b) {
		return a
	}
	return b
}

// lwwMap is the replicated incumbent table: solve key → merged best.
// Bounded FIFO eviction keeps a long-lived node from accumulating one
// entry per solve ever seen; evicting an old key only costs a re-learn.
type lwwMap struct {
	mu    sync.Mutex
	m     map[string]Incumbent
	fifo  []string
	limit int
}

func newLWWMap(limit int) *lwwMap {
	if limit <= 0 {
		limit = 1024
	}
	return &lwwMap{m: make(map[string]Incumbent), limit: limit}
}

// apply merges inc into the entry for key. It reports whether inc won
// the merge (i.e. the stored value is now inc) — the signal for
// offering a remote incumbent to a live solve and for the
// broadcasts-applied metric.
func (t *lwwMap) apply(key string, inc Incumbent) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.m[key]
	if !ok {
		if len(t.fifo) >= t.limit {
			delete(t.m, t.fifo[0])
			t.fifo = t.fifo[1:]
		}
		t.fifo = append(t.fifo, key)
	}
	merged := Merge(cur, inc)
	t.m[key] = merged
	return !ok || merged.Dominates(cur) // inc won iff the entry changed
}

// get returns the merged incumbent for key.
func (t *lwwMap) get(key string) (Incumbent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	inc, ok := t.m[key]
	return inc, ok
}
