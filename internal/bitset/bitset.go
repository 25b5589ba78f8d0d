// Package bitset provides a small fixed-size bitset used for index sets
// and reachability matrices in the pruning analysis and the CP engine.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bitset. The zero value has capacity zero; use
// New. Sets of different capacities must not be mixed.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n bits.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the capacity in bits.
func (s Set) Cap() int { return s.n }

// Words returns the backing words: element i is bit i&63 of word i>>6.
// The slice aliases the set, so it changes with every Add and Remove and
// must not be mutated.
func (s Set) Words() []uint64 { return s.words }

// Clone returns a copy.
func (s Set) Clone() Set {
	out := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// Add sets bit i.
func (s Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears bit i.
func (s Set) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every bit of o to s (in place).
func (s Set) UnionWith(o Set) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// IntersectWith keeps only bits present in both (in place).
func (s Set) IntersectWith(o Set) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// SubtractWith clears every bit of o from s (in place).
func (s Set) SubtractWith(o Set) {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// ContainsAll reports whether every bit of o is also in s.
func (s Set) ContainsAll(o Set) bool {
	for i := range s.words {
		if o.words[i]&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share any bit.
func (s Set) Intersects(o Set) bool {
	for i := range s.words {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same bits.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Clear removes all bits.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls f for every set bit in ascending order; f returning false
// stops the iteration.
func (s Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*64 + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the set bits in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Min returns the smallest set bit, or -1 if empty.
func (s Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest set bit, or -1 if empty.
func (s Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// FromSlice builds a set of capacity n with the given bits.
func FromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// String renders like {1,4,7}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
