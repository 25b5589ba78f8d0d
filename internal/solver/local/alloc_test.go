package local

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestAllocVNSRunTPCDS pins the bytes one 200k-step VNS run on full
// TPC-DS allocates. A run builds its CP search state once and solves its
// ~130 relaxations on it, so what is left is that setup plus one order
// per relaxation; a search state rebuilt per relaxation (walker, bound
// tables, candidate arena) would cost about 14 MB.
func TestAllocVNSRunTPCDS(t *testing.T) {
	if raceEnabled {
		t.Skip("a 200k-step TPC-DS search is slow under the race detector")
	}
	c, cs, init := tpcdsStart()
	run := func() Result {
		return VNS(c, cs, Options{Initial: init, MaxSteps: 200_000, Rng: rand.New(rand.NewSource(1))})
	}
	run() // warm up lazily built model state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d steps, %d accepted: %.2f MB", res.Steps, res.Accepted, float64(bytes)/(1<<20))
	const budget = 2 << 20
	if bytes > budget {
		t.Fatalf("VNS run allocates %d B (budget %d): per-relaxation search state is back", bytes, budget)
	}
}
