// Subset-dominance memo. The evaluation core is set-pure: the runtime
// after any prefix is Base − Σ best[q] over the deployed set, build
// costs depend only on the built set, and position windows, precedences
// and frozen positions depend only on the set and its size. Two prefixes
// that place the same set therefore face the same remaining subproblem,
// and the one that got there with the larger accumulated area can never
// finish better. The memo records, per placed set, the smallest area it
// has been reached with, and the search cuts any node whose area is no
// smaller — the depth-first, bounded-memory counterpart of Held–Karp
// subset DP, which astar applies to the same lattice.
//
// The cut is exact, not a heuristic: floating-point addition is
// monotone and every later term is a function of the set alone, so every
// leaf, boundBelow value and tail-bound lookup under the cut node is >=
// its counterpart under the recorded one, whose subtree was already
// explored against an incumbent no better than today's. Proved optima,
// improving-solution sequences and objective bits are unchanged; only
// the node count drops.
package cp

import "math"

const (
	// memoInitBits sizes a fresh table (2^8 slots, 4 KB for n <= 64):
	// the many short solves a server runs, such as fast-path proofs of
	// small instances, never pay for more; long proofs grow it.
	memoInitBits = 8
	// memoMaxBits caps a table at 2^20 slots (2^(n+1) for n < 20, which
	// holds every subset at half load); past half of the cap, new sets
	// overwrite their home slot instead of growing the table further.
	memoMaxBits = 20
)

// setTable is an open-addressing table keyed by the placed bitset, shared
// by the memo and the set-value cache (cache.go). Each slot is stride =
// words+payload consecutive uint64s in one flat arena: the exact key
// words followed by the owner's payload words. Keys are compared word for
// word, never by hash alone.
//
// An unstamped table (gen == 0) marks a free slot by an all-zero key —
// the empty set is never stored. A stamped table marks live slots with
// its generation in the high bits of payload word 0 (the low stampBits
// are the owner's); bumping gen frees every slot at once, so a table is
// reset without touching its memory.
type setTable struct {
	words   int
	stride  int
	slots   []uint64
	shift   uint // 64 − log2(slot count): hashes index by their top bits
	mask    int  // slot count − 1
	used    int
	maxBits int
	gen     uint64
}

// stampBits is how many low bits of a stamped table's payload word 0
// belong to the owner rather than to the generation.
const stampBits = 8

func newSetTable(n, payload, initBits, maxBits int) *setTable {
	words := (n + 63) / 64
	t := &setTable{words: words, stride: words + payload, maxBits: min(maxBits, n+1)}
	t.alloc(min(initBits, t.maxBits))
	return t
}

func (t *setTable) alloc(bits int) {
	t.slots = make([]uint64, (1<<bits)*t.stride)
	t.shift = uint(64 - bits)
	t.mask = 1<<bits - 1
	t.used = 0
}

// reset frees every slot of a stamped table by starting a new generation.
func (t *setTable) reset() {
	t.gen++
	t.used = 0
}

func (t *setTable) size() int { return t.mask + 1 }

// home returns the key's first probe slot (Fibonacci hashing over the
// key words).
func (t *setTable) home(key []uint64) int {
	var h uint64
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
	}
	return int(h >> t.shift)
}

// free reports whether slot e holds no live entry.
func (t *setTable) free(e []uint64) bool {
	if t.gen != 0 {
		return e[t.words]>>stampBits != t.gen
	}
	return isEmpty(e[:t.words])
}

// entry returns the payload of key's entry and whether key was present.
// An absent key is inserted with a zeroed payload (stamped in a stamped
// table). The load stays at most one half: below the size cap the table
// doubles first; at the cap the key replaces whatever occupies its home
// slot (lossy — a forgotten set only costs a recomputation), or is
// dropped when that slot is free, and entry returns nil. key must be
// non-empty as a set. The payload is valid until the next insertion.
func (t *setTable) entry(key []uint64) ([]uint64, bool) {
	home := t.home(key)
	for p := home; ; p = (p + 1) & t.mask {
		e := t.slots[p*t.stride : (p+1)*t.stride]
		switch {
		case t.free(e):
			if 2*(t.used+1) <= t.size() {
				t.used++
				return t.claim(e, key), false
			}
			if bits := 64 - int(t.shift); bits < t.maxBits {
				t.grow(bits + 1)
				return t.entry(key) // absent, so this inserts
			}
			if h := t.slots[home*t.stride : (home+1)*t.stride]; !t.free(h) {
				return t.claim(h, key), false
			}
			return nil, false
		case equalWords(e[:t.words], key):
			return e[t.words:], true
		}
	}
}

// claim writes key into slot e with a zeroed payload and returns the
// payload.
func (t *setTable) claim(e, key []uint64) []uint64 {
	copy(e, key)
	pl := e[t.words:]
	clear(pl)
	pl[0] = t.gen << stampBits
	return pl
}

// grow rehashes every live entry into a table of 2^bits slots.
func (t *setTable) grow(bits int) {
	old, stride := t.slots, t.stride
	t.alloc(bits)
	for off := 0; off < len(old); off += stride {
		e := old[off : off+stride]
		if t.free(e) {
			continue
		}
		p := t.home(e[:t.words])
		for !t.free(t.slots[p*stride : (p+1)*stride]) {
			p = (p + 1) & t.mask
		}
		copy(t.slots[p*stride:(p+1)*stride], e)
		t.used++
	}
}

// memo is the subset-dominance table: an unstamped setTable whose
// one-word payload holds the bits of the smallest area each placed set
// was reached with.
type memo struct{ setTable }

// newMemo returns an empty memo for n-index instances.
func newMemo(n int) *memo {
	return &memo{*newSetTable(n, 1, memoInitBits, memoMaxBits)}
}

// dominated reports whether the placed set key was already reached with
// an accumulated area no larger than area. When it was not, area becomes
// the set's recorded area (inserting the set if absent) and the caller
// explores the node. key must be non-empty as a set.
func (m *memo) dominated(key []uint64, area float64) bool {
	e, found := m.entry(key)
	if e == nil {
		return false
	}
	if found && area >= math.Float64frombits(e[0]) {
		return true
	}
	e[0] = math.Float64bits(area)
	return false
}

func isEmpty(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
