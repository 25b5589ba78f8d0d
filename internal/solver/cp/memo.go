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

// memo is an open-addressing table keyed by the placed bitset. Each slot
// is stride = words+1 consecutive uint64s in one flat arena: the exact
// key words (an all-zero key marks an empty slot — the empty set is
// never recorded) followed by the bits of the recorded area. Keys are
// compared word for word, never by hash alone.
type memo struct {
	words   int
	stride  int
	slots   []uint64
	shift   uint // 64 − log2(slot count): hashes index by their top bits
	used    int
	maxBits int
}

// newMemo returns an empty table for n-index instances.
func newMemo(n int) *memo {
	m := &memo{words: (n + 63) / 64, maxBits: min(memoMaxBits, n+1)}
	m.stride = m.words + 1
	m.alloc(min(memoInitBits, m.maxBits))
	return m
}

func (m *memo) alloc(bits int) {
	m.slots = make([]uint64, (1<<bits)*m.stride)
	m.shift = uint(64 - bits)
	m.used = 0
}

func (m *memo) size() int { return len(m.slots) / m.stride }

// home returns the key's first probe slot (Fibonacci hashing over the
// key words).
func (m *memo) home(key []uint64) int {
	var h uint64
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
	}
	return int(h >> m.shift)
}

// dominated reports whether the placed set key was already reached with
// an accumulated area no larger than area. When it was not, area becomes
// the set's recorded area (inserting the set if absent) and the caller
// explores the node. key must be non-empty as a set.
func (m *memo) dominated(key []uint64, area float64) bool {
	mask := m.size() - 1
	home := m.home(key)
	for p := home; ; p = (p + 1) & mask {
		e := m.slots[p*m.stride : (p+1)*m.stride]
		switch {
		case isEmpty(e[:m.words]):
			m.insert(key, area, home, e)
			return false
		case equalWords(e[:m.words], key):
			if area >= math.Float64frombits(e[m.words]) {
				return true
			}
			e[m.words] = math.Float64bits(area)
			return false
		}
	}
}

// insert records an absent key whose probe ended at the empty slot e.
// The load stays at most one half: below the size cap the table doubles
// first; at the cap the key replaces whatever occupies its home slot
// (lossy — a forgotten set only costs a missed cut), or is dropped when
// that slot is empty.
func (m *memo) insert(key []uint64, area float64, home int, e []uint64) {
	if 2*(m.used+1) <= m.size() {
		copy(e, key)
		e[m.words] = math.Float64bits(area)
		m.used++
		return
	}
	if bits := 64 - int(m.shift); bits < m.maxBits {
		m.grow(bits + 1)
		m.dominated(key, area) // absent, so this inserts
		return
	}
	h := m.slots[home*m.stride : (home+1)*m.stride]
	if !isEmpty(h[:m.words]) {
		copy(h, key)
		h[m.words] = math.Float64bits(area)
	}
}

// grow rehashes every entry into a table of 2^bits slots.
func (m *memo) grow(bits int) {
	old, stride := m.slots, m.stride
	m.alloc(bits)
	mask := m.size() - 1
	for off := 0; off < len(old); off += stride {
		e := old[off : off+stride]
		if isEmpty(e[:m.words]) {
			continue
		}
		p := m.home(e[:m.words])
		for !isEmpty(m.slots[p*stride : p*stride+m.words]) {
			p = (p + 1) & mask
		}
		copy(m.slots[p*stride:(p+1)*stride], e)
		m.used++
	}
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
