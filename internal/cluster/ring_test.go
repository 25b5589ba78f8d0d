package cluster

import (
	"slices"
	"strconv"
	"testing"
)

func TestRingDeterministicAndStable(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, r2 := newRing(addrs), newRing([]string{addrs[2], addrs[0], addrs[1]})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := string(rune('a'+i%26)) + "key" + string(rune('0'+i%10)) + string(rune('a'+(i/26)%26))
		o1, o2 := r1.owner(key), r2.owner(key)
		if o1 != o2 {
			t.Fatalf("ring owner depends on input order: %q vs %q", o1, o2)
		}
		counts[o1]++
	}
	for _, a := range addrs {
		if counts[a] == 0 {
			t.Fatalf("member %s owns nothing: %v", a, counts)
		}
	}
}

func TestRingEmptyOwnsNothing(t *testing.T) {
	if o := newRing(nil).owner("k"); o != "" {
		t.Fatalf("empty ring owner %q, want none", o)
	}
}

func TestRingSingleMemberOwnsAll(t *testing.T) {
	r := newRing([]string{"http://a:1"})
	for i := 0; i < 100; i++ {
		if o := r.owner(strconv.Itoa(i)); o != "http://a:1" {
			t.Fatalf("key %d owned by %q", i, o)
		}
	}
}

// TestRingGrowthMovesKeysOnlyToNewMember: adding a member reassigns a
// share of the keys to it and moves no key between the old members.
func TestRingGrowthMovesKeysOnlyToNewMember(t *testing.T) {
	old := []string{"http://a:1", "http://b:1", "http://c:1"}
	r3, r4 := newRing(old), newRing(append(slices.Clone(old), "http://d:1"))
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		k := "key" + strconv.Itoa(i)
		o3, o4 := r3.owner(k), r4.owner(k)
		if o3 == o4 {
			continue
		}
		if o4 != "http://d:1" {
			t.Fatalf("key %q moved from %s to %s, an old member", k, o3, o4)
		}
		moved++
	}
	// The new member's fair share is a quarter of the keys.
	if moved < keys/8 || moved > keys/2 {
		t.Fatalf("new member took %d of %d keys, want about a quarter", moved, keys)
	}
}

// TestRingOwnerAtOrAfterKey pins the lookup rule on a hand-built ring:
// a point at the key's hash owns it, and a key past the top point
// wraps to the first one.
func TestRingOwnerAtOrAfterKey(t *testing.T) {
	const k = "key"
	h := hashPoint(k)
	if h < 2 || h == ^uint64(0) {
		t.Fatalf("hash of %q is %#x, at the edge of the ring", k, h)
	}
	t.Run("point at the key's hash", func(t *testing.T) {
		r := &ring{points: []ringPoint{{h - 1, "a"}, {h, "b"}, {h + 1, "c"}}}
		if o := r.owner(k); o != "b" {
			t.Fatalf("owner %q, want b", o)
		}
	})
	t.Run("wraps past the top point", func(t *testing.T) {
		r := &ring{points: []ringPoint{{1, "a"}, {h - 1, "b"}}}
		if o := r.owner(k); o != "a" {
			t.Fatalf("owner %q, want a", o)
		}
	})
}
