package evolve

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
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

// FuzzProjectDelta feeds ProjectDelta a seeded random instance and an
// arbitrary isNew mask (the bits of mask, repeated across the indexes;
// lenSkew of 1 or 2 makes the mask one entry short or long). It must
// never panic; a wrong-length mask must be refused; and an accepted
// projection must Validate and Compile, keeping exactly the new indexes
// in their original order.
func FuzzProjectDelta(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), []byte{0xff}, uint8(0))
	f.Add(int64(2), uint8(8), uint8(40), []byte{0x5a}, uint8(0))
	f.Add(int64(3), uint8(5), uint8(200), []byte{}, uint8(0))
	f.Add(int64(4), uint8(11), uint8(10), []byte{0x01, 0x80}, uint8(1))
	f.Add(int64(5), uint8(12), uint8(25), []byte{0xfe, 0x0f}, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, precPct uint8, mask []byte, lenSkew uint8) {
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 1 + int(n)%12
		cfg.Queries = 1 + int(n)%5
		cfg.PrecedenceProb = float64(precPct%101) / 100
		in := randgen.New(rand.New(rand.NewSource(seed)), cfg)
		if in.Validate() != nil {
			return // the generator's precedences formed a cycle
		}

		size := in.N()
		switch lenSkew % 3 {
		case 1:
			size--
		case 2:
			size++
		}
		isNew := make([]bool, size)
		if len(mask) > 0 {
			for i := range isNew {
				isNew[i] = mask[(i/8)%len(mask)]>>(i%8)&1 == 1
			}
		}

		delta, kept, err := ProjectDelta(in, isNew)
		if size != in.N() {
			if err == nil {
				t.Fatalf("mask of %d entries for %d indexes accepted", size, in.N())
			}
			return
		}
		if err != nil {
			return
		}
		if err := delta.Validate(); err != nil {
			t.Fatalf("accepted projection does not validate: %v", err)
		}
		if _, err := model.Compile(delta); err != nil {
			t.Fatalf("accepted projection does not compile: %v", err)
		}
		var want []int
		for i, nw := range isNew {
			if nw {
				want = append(want, i)
			}
		}
		if len(kept) != len(want) || delta.N() != len(want) {
			t.Fatalf("kept %v (delta n=%d), want the new indexes %v", kept, delta.N(), want)
		}
		for j, i := range kept {
			if i != want[j] || delta.Indexes[j].Name != in.Indexes[i].Name {
				t.Fatalf("kept %v, want the new indexes %v", kept, want)
			}
		}
	})
}
