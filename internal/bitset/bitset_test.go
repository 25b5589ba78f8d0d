package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 || s.Cap() != 130 {
		t.Fatal("fresh set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Errorf("missing bit %d", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("spurious bits")
	}
	if s.Min() != 0 || s.Max() != 129 {
		t.Errorf("min/max = %d/%d", s.Min(), s.Max())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("remove failed")
	}
	if got := s.String(); got != "{0,129}" {
		t.Errorf("String = %q", got)
	}
	s.Clear()
	if !s.Empty() {
		t.Error("clear failed")
	}
	if New(0).Min() != -1 || New(5).Max() != -1 {
		t.Error("empty min/max should be -1")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(100, []int{1, 5, 70})
	b := FromSlice(100, []int{5, 70, 99})

	u := a.Clone()
	u.UnionWith(b)
	if got := u.Slice(); len(got) != 4 {
		t.Errorf("union = %v", got)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got := i.Slice(); len(got) != 2 || got[0] != 5 || got[1] != 70 {
		t.Errorf("intersect = %v", got)
	}

	d := a.Clone()
	d.SubtractWith(b)
	if got := d.Slice(); len(got) != 1 || got[0] != 1 {
		t.Errorf("subtract = %v", got)
	}

	if !u.ContainsAll(a) || !u.ContainsAll(b) {
		t.Error("union must contain operands")
	}
	if a.ContainsAll(b) {
		t.Error("a should not contain b")
	}
	if !a.Intersects(b) {
		t.Error("a and b intersect")
	}
	if a.Intersects(FromSlice(100, []int{2, 3})) {
		t.Error("disjoint sets reported intersecting")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	if a.Equal(b) || a.Equal(New(50)) {
		t.Error("unequal sets reported equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(20, []int{3, 7, 11})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 7 {
		t.Errorf("early stop walk = %v", seen)
	}
}

// Property: Slice round-trips through FromSlice, and Count matches a naive
// reference implementation on random sets.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%200
		rng := rand.New(rand.NewSource(seed))
		ref := map[int]bool{}
		s := New(n)
		for k := 0; k < n/2+1; k++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Add(i)
				ref[i] = true
			} else {
				s.Remove(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, i := range s.Slice() {
			if !ref[i] {
				return false
			}
		}
		return s.Equal(FromSlice(n, s.Slice()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
