package evolve

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/randgen"
)

// FuzzRepairOrder feeds RepairOrder a seeded random instance and an
// arbitrary prior name list (comma-separated: partial, duplicated, or
// naming indexes the instance does not have). It must never panic, and
// whatever it returns without an error must be a precedence-feasible
// permutation of the instance's index names.
func FuzzRepairOrder(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), "ix00,ix01,ix02,ix03,ix04,ix05")
	f.Add(int64(2), uint8(8), uint8(40), "ix07,ix03,ix03,gone,ix00")
	f.Add(int64(3), uint8(5), uint8(200), "")
	f.Add(int64(4), uint8(1), uint8(10), "ix00,ix00,,ix99")
	f.Add(int64(5), uint8(12), uint8(25), "ix11,ix10,ix09,ix08,ix07,ix06,ix05,ix04,ix03,ix02,ix01,ix00")
	f.Fuzz(func(t *testing.T, seed int64, n, precPct uint8, prior string) {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 1 + int(n)%12
		cfg.Queries = 1 + int(n)%5
		cfg.PrecedenceProb = float64(precPct%101) / 100
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		if in.Validate() != nil {
			return // the generator's precedences formed a cycle
		}

		names, err := RepairOrder(in, strings.Split(prior, ","))
		if err != nil {
			return
		}
		pos := make(map[string]int, in.N())
		for i, ix := range in.Indexes {
			pos[ix.Name] = i
		}
		order := make([]int, len(names))
		for k, name := range names {
			i, ok := pos[name]
			if !ok {
				t.Fatalf("repaired order names unknown index %q: %v", name, names)
			}
			order[k] = i
		}
		if err := in.ValidOrder(order); err != nil {
			t.Fatalf("repaired order %v: %v", names, err)
		}
	})
}
