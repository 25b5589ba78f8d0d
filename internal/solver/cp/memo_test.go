package cp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/bruteforce"
	"github.com/evolving-olap/idd/internal/solver/greedy"
	"github.com/evolving-olap/idd/internal/solver/solvertest"
)

// memoCorpus is every corpus instance the memo's exactness is pinned on:
// the brute-force-verified conformance corpus plus the tight-cost corpus,
// where the objective bound is weakest and the memo does the most work.
func memoCorpus() []*model.Instance {
	return append(solvertest.CorpusInstances(), solvertest.TightCorpusInstances()...)
}

// requireSameSearch asserts that a memo run found exactly what the
// memo-free run found — same optimal order, same objective bits, same
// improving-solution count — with no more nodes.
func requireSameSearch(t *testing.T, tag string, on, off Result) {
	t.Helper()
	if !on.Proved || !off.Proved {
		t.Fatalf("%s: proved on=%v off=%v", tag, on.Proved, off.Proved)
	}
	if !slices.Equal(on.Order, off.Order) {
		t.Fatalf("%s: order %v with memo, %v without", tag, on.Order, off.Order)
	}
	if math.Float64bits(on.Objective) != math.Float64bits(off.Objective) {
		t.Fatalf("%s: objective %x with memo, %x without", tag,
			math.Float64bits(on.Objective), math.Float64bits(off.Objective))
	}
	if on.Solutions != off.Solutions {
		t.Fatalf("%s: %d improving solutions with memo, %d without", tag, on.Solutions, off.Solutions)
	}
	if on.Nodes > off.Nodes {
		t.Fatalf("%s: memo expanded %d nodes, more than the %d without", tag, on.Nodes, off.Nodes)
	}
	if off.Stats.PrunedMemo != 0 {
		t.Fatalf("%s: NoMemo run recorded %d memo cuts", tag, off.Stats.PrunedMemo)
	}
}

// TestMemoSerialIdenticalToNoMemo: on every corpus instance, with the
// tail bound off and on, the serial engine with the memo returns the
// memo-free search's order, objective bits and solution count, and
// expands no more nodes. Corpus-wide the memo must actually cut.
func TestMemoSerialIdenticalToNoMemo(t *testing.T) {
	var nodesOn, nodesOff, cuts int64
	for _, in := range memoCorpus() {
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		tb := prune.NewTailBound(c, cs, prune.Options{})
		for _, tail := range []*prune.TailBound{nil, tb} {
			on := Solve(c, cs, Options{TailBound: tail})
			off := Solve(c, cs, Options{TailBound: tail, NoMemo: true})
			requireSameSearch(t, in.Name, on, off)
			checkStats(t, in.Name, on)
			nodesOn += on.Nodes
			nodesOff += off.Nodes
			cuts += on.Stats.PrunedMemo
		}
	}
	t.Logf("corpus nodes: %d with memo, %d without (%d memo cuts)", nodesOn, nodesOff, cuts)
	if cuts == 0 || nodesOn >= nodesOff {
		t.Fatalf("memo never cut: %d nodes with it, %d without", nodesOn, nodesOff)
	}
}

// TestMemoSeededIdenticalToNoMemo repeats the comparison the way the
// proof pipeline runs: §5 analysis constraints and a greedy incumbent.
func TestMemoSeededIdenticalToNoMemo(t *testing.T) {
	for _, in := range solvertest.TightCorpusInstances() {
		c := model.MustCompile(in)
		cs, _ := prune.Analyze(c, prune.Options{})
		seed := greedy.Solve(c, cs)
		tb := prune.NewTailBound(c, cs, prune.Options{})
		on := Solve(c, cs, Options{Incumbent: seed, TailBound: tb})
		off := Solve(c, cs, Options{Incumbent: seed, TailBound: tb, NoMemo: true})
		requireSameSearch(t, in.Name, on, off)
	}
}

// TestMemoMultiWordKeys exercises keys wider than one word: an n=72
// instance with all but eight positions frozen proves quickly, and the
// memo, keyed on two-word sets, must cut without changing the search.
func TestMemoMultiWordKeys(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 72
	cfg.Queries = 20
	cfg.BuildInteractionProb = 0.05
	in := randgen.New(rand.New(rand.NewSource(3)), cfg)
	c := model.MustCompile(in)
	cs := sched.PrecedenceSet(in)
	seed := greedy.Solve(c, cs)
	fixed := append([]int(nil), seed...)
	// Free two clusters of positions on either side of the word boundary.
	for _, p := range []int{2, 5, 6, 9, 61, 63, 66, 70} {
		fixed[p] = -1
	}
	for _, inc := range [][]int{nil, seed} {
		on := Solve(c, cs, Options{Fixed: fixed, Incumbent: inc})
		off := Solve(c, cs, Options{Fixed: fixed, Incumbent: inc, NoMemo: true})
		requireSameSearch(t, "n72", on, off)
		if on.Stats.PrunedMemo == 0 {
			t.Fatalf("no memo cuts on the n=72 neighbourhood (%d nodes)", on.Nodes)
		}
		checkStats(t, "n72", on)
		t.Logf("n=72: %d nodes with memo (%d cuts), %d without", on.Nodes, on.Stats.PrunedMemo, off.Nodes)
	}
}

// TestMemoTableAgainstMap drives the table directly against a map: it
// may forget a set once it is at its size cap, but it must never report
// a set it has not seen at no larger area, and below the cap it must
// agree with the map exactly.
func TestMemoTableAgainstMap(t *testing.T) {
	for _, tc := range []struct {
		n       int
		maxBits int
		keys    int
	}{
		{n: 12, maxBits: 12, keys: 300},  // grows 256 -> 1024, never lossy
		{n: 70, maxBits: 20, keys: 3000}, // two-word keys, grows
		{n: 10, maxBits: 6, keys: 500},   // capped at 64 slots: lossy
		{n: 130, maxBits: 5, keys: 400},  // three-word keys, lossy
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		m := newMemo(tc.n)
		m.maxBits = tc.maxBits
		if 64-int(m.shift) > tc.maxBits {
			m.alloc(tc.maxBits)
		}
		lossy := 1<<(tc.maxBits-1) < tc.keys
		ref := map[string]float64{}
		words := (tc.n + 63) / 64
		for op := 0; op < 20*tc.keys; op++ {
			key := make([]uint64, words)
			r := rng.Intn(tc.keys) + 1
			for w := range key {
				key[w] = uint64(r) * uint64(w+1) << (w % 3)
			}
			if tc.n < 64 {
				key[0] &= 1<<tc.n - 1
			}
			if isEmpty(key) {
				continue
			}
			area := float64(rng.Intn(50))
			id := fmt.Sprint(key)
			prev, seen := ref[id]
			got := m.dominated(key, area)
			want := seen && area >= prev
			if got && !want {
				t.Fatalf("n=%d op %d: key %x area %v reported dominated (seen=%v prev=%v)", tc.n, op, key, area, seen, prev)
			}
			if !lossy && got != want {
				t.Fatalf("n=%d op %d: key %x area %v dominated=%v, want %v", tc.n, op, key, area, got, want)
			}
			if !got && (!seen || area < prev) {
				ref[id] = area
			}
		}
		if 2*m.used > m.size() {
			t.Fatalf("n=%d: load %d/%d above one half", tc.n, m.used, m.size())
		}
		if bits := 64 - int(m.shift); bits > tc.maxBits {
			t.Fatalf("n=%d: table grew to 2^%d slots past its cap 2^%d", tc.n, bits, tc.maxBits)
		}
	}
}

// FuzzCPMemo cross-checks the serial engine with the memo against
// exhaustive enumeration and against itself without the memo: same
// objective as brute force, and the same order, objective bits and
// solution count as the memo-free search, on any instance shape,
// precedence density, tail-bound length and frozen-position mask.
func FuzzCPMemo(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), uint8(0), uint16(0))
	f.Add(int64(7), uint8(8), uint8(0), uint8(3), uint16(0x21))
	f.Add(int64(42), uint8(4), uint8(45), uint8(1), uint16(0x1ff))
	f.Fuzz(func(t *testing.T, seed int64, n, precPct, tail uint8, freeze uint16) {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 3 + int(n%6) // 3..8: brute force is instant
		cfg.Queries = 3 + int(n%4)
		cfg.PrecedenceProb = float64(precPct%50) / 100
		cfg.BuildInteractionProb = 0.15
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		c := model.MustCompile(in)
		cs := sched.PrecedenceSet(in)
		bf, err := bruteforce.Solve(c, cs, true)
		if err != nil {
			t.Fatal(err)
		}
		var tb *prune.TailBound
		if tail%5 != 0 {
			tb = prune.NewTailBound(c, cs, prune.Options{TailLength: int(tail % 5)})
		}
		opt := Options{TailBound: tb}
		if freeze != 0 {
			// Freeze the masked positions of the optimum, as LNS would.
			opt.Fixed = append([]int(nil), bf.Order...)
			for p := range opt.Fixed {
				if freeze&(1<<p) == 0 {
					opt.Fixed[p] = -1
				}
			}
		}
		on := Solve(c, cs, opt)
		opt.NoMemo = true
		off := Solve(c, cs, opt)
		requireSameSearch(t, in.Name, on, off)
		if math.Abs(on.Objective-bf.Objective) > 1e-9*(1+bf.Objective) {
			t.Fatalf("memo cp %v != bruteforce %v", on.Objective, bf.Objective)
		}
		if err := in.ValidOrder(on.Order); err != nil {
			t.Fatalf("infeasible order: %v", err)
		}
	})
}
