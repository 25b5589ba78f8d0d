// Set-value cache. A fail-limited search (an LNS or VNS relaxation) runs
// without the memo, and most of its nodes revisit a placed set it has
// already expanded: every frozen position below a free one is reached
// once per ordering of the free indexes above it. Everything a node
// computes besides its area is a function of the placed set alone (see
// memo.go) — the runtime R(S), the bound's sums over the unplaced
// indexes, the tail lookup and the branching order — so the cache keeps
// them per set and a revisit reads them back instead of walking the
// walker forward, the unplaced list and the candidate scan again. The
// comparisons against the incumbent still run at every visit with the
// node's own area and the current bound, so nodes, fails, prune causes
// and improving solutions are exactly those of a search without it.
package cp

const (
	// cacheInitBits sizes the table a Searcher starts with (2^5 slots,
	// under 2 KB for n <= 64); it grows with the relaxations it serves
	// and keeps its size across them.
	cacheInitBits = 5
	// cacheMaxBits caps the table at 2^16 slots; past half of that, new
	// sets overwrite their home slot, which costs only recomputation.
	cacheMaxBits = 16
	// cacheRowsCap bounds the candidate rows one search may keep. Past
	// it, rows of new sets are recomputed at every visit.
	cacheRowsCap = 1 << 18
)

// Payload words of a set's values. The scratch values of a node that
// is not cached share the layout.
const (
	vStamp   = iota // the table's generation << stampBits | the has* flags
	vRun            // R(S), the runtime after the set is deployed
	vRestSum        // Σ MinCost over the unplaced indexes, ascending
	vRestMin        // min MinCost over the unplaced indexes
	vTail           // the tail bound's lookup of the unplaced set
	vCands          // branching order: row offset << 32 | length (0: dead end)
	valueWords
)

// Flags of vStamp's low bits: which optional values are filled in.
const (
	hasRest uint64 = 1 << iota
	hasTail
	tailHit // the tail lookup found the set (vTail is valid)
	hasCands
)

// setCache is the set-value table of a Searcher, reset per search by a
// generation stamp, with the arena its candidate rows live in.
type setCache struct {
	setTable
	rows []int
}

func newSetCache(n int) *setCache {
	t := newSetTable(n, valueWords, cacheInitBits, cacheMaxBits)
	t.gen = 1
	return &setCache{setTable: *t}
}

// reset empties the cache for a new search.
func (c *setCache) reset() {
	c.setTable.reset()
	c.rows = c.rows[:0]
}

// keepRow stores row as the branching order of the set whose values are
// v, when the arena has room.
func (c *setCache) keepRow(v []uint64, row []int) {
	if len(c.rows)+len(row) > cacheRowsCap {
		return
	}
	v[vCands] = uint64(len(c.rows))<<32 | uint64(len(row))
	v[vStamp] |= hasCands
	c.rows = append(c.rows, row...)
}

// row returns the branching order stored in v (nil for a dead end). The
// slice stays valid for the rest of the search: the arena only grows.
func (c *setCache) row(v []uint64) []int {
	off, n := v[vCands]>>32, v[vCands]&(1<<32-1)
	if n == 0 {
		return nil
	}
	return c.rows[off : off+n : off+n]
}
