package backend

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/evolving-olap/idd/internal/model"
)

// fake is a minimal well-formed backend for registry tests. It must
// stay valid under the integrity test, which sees everything registered
// in this test binary.
type fake struct {
	info Info
}

func (f fake) Info() Info { return f.info }
func (f fake) Solve(_ context.Context, req Request) Outcome {
	order := append([]int(nil), req.Initial...)
	if order == nil {
		order = make([]int, req.Compiled.N)
		for i := range order {
			order[i] = i
		}
	}
	return Outcome{Order: order, Objective: req.Compiled.Objective(order)}
}

func fakeInfo(name string, rank int) Info {
	return Info{
		Name:    name,
		Kind:    KindConstructive,
		Summary: "registry test fixture",
		Rank:    rank,
	}
}

func init() {
	Register(fake{fakeInfo("zfake-b", 9001)})
	Register(fake{info: Info{
		Name: "zfake-a", Kind: KindAnytime, Summary: "registry test fixture",
		Rank:       9000,
		Applicable: func(c *model.Compiled) bool { return c.N <= 4 },
	}})
	Register(fake{info: Info{
		Name: "zfake-c", Kind: KindAnytime, Summary: "registry test fixture",
		Rank: 9000,
	}})
}

func tiny(t *testing.T, n int) *model.Compiled {
	t.Helper()
	in := &model.Instance{Name: "tiny"}
	for i := 0; i < n; i++ {
		in.Indexes = append(in.Indexes, model.Index{Name: string(rune('a' + i)), CreateCost: 1})
	}
	in.Queries = []model.Query{{Name: "q", Runtime: 10}}
	in.Plans = []model.Plan{{Query: 0, Indexes: []int{0}, Speedup: 5}}
	c, err := model.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterRejectsMalformed(t *testing.T) {
	mustPanic := func(name string, b Backend) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(b)
	}
	mustPanic("nil", nil)
	mustPanic("empty name", fake{info: Info{}})
	mustPanic("duplicate", fake{fakeInfo("zfake-b", 1)})
}

func TestRankOrderAndLookup(t *testing.T) {
	names := Names()
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	for _, want := range []string{"zfake-a", "zfake-b", "zfake-c"} {
		if _, ok := pos[want]; !ok {
			t.Fatalf("Names() missing %s: %v", want, names)
		}
		if _, ok := Lookup(want); !ok {
			t.Fatalf("Lookup(%s) failed", want)
		}
	}
	// Rank ascending, name tie-break: zfake-a (9000) < zfake-c (9000) <
	// zfake-b (9001).
	if !(pos["zfake-a"] < pos["zfake-c"] && pos["zfake-c"] < pos["zfake-b"]) {
		t.Fatalf("rank order violated: %v", names)
	}
	if _, ok := Lookup("no-such-backend"); ok {
		t.Fatal("Lookup invented a backend")
	}
}

func TestDefaultHonorsApplicability(t *testing.T) {
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	small, big := Default(tiny(t, 3)), Default(tiny(t, 6))
	if !has(small, "zfake-a") {
		t.Fatalf("Default(n=3) dropped applicable zfake-a: %v", small)
	}
	if has(big, "zfake-a") {
		t.Fatalf("Default(n=6) kept inapplicable zfake-a: %v", big)
	}
	if !has(big, "zfake-b") {
		t.Fatalf("Default(n=6) dropped always-applicable zfake-b: %v", big)
	}
}

// TestDefaultRankOrder: the default roster is the race order, so it
// follows declared rank (ties by name) like every other listing.
func TestDefaultRankOrder(t *testing.T) {
	var fakes []string
	for _, n := range Default(tiny(t, 3)) {
		if strings.HasPrefix(n, "zfake-") {
			fakes = append(fakes, n)
		}
	}
	if strings.Join(fakes, ",") != "zfake-a,zfake-c,zfake-b" {
		t.Fatalf("Default(n=3) fixture order = %v, want zfake-a,zfake-c,zfake-b", fakes)
	}
}

func TestCheckNames(t *testing.T) {
	if err := CheckNames([]string{"zfake-a", "zfake-b"}); err != nil {
		t.Fatal(err)
	}
	err := CheckNames([]string{"zfake-a", "bogus"})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	if !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "zfake-a") {
		t.Fatalf("error does not name the offender and the valid set: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	if KindExact.String() != "exact" || KindAnytime.String() != "anytime" ||
		KindConstructive.String() != "constructive" || Kind(99).String() != "unknown" {
		t.Fatal("Kind strings wrong")
	}
}

func TestFakeSolveIsFeasibleFixture(t *testing.T) {
	// The fixture itself must behave, since the integrity test audits it.
	c := tiny(t, 3)
	b, _ := Lookup("zfake-b")
	out := b.Solve(context.Background(), Request{Compiled: c})
	if len(out.Order) != c.N || math.IsNaN(out.Objective) {
		t.Fatalf("fixture outcome malformed: %+v", out)
	}
}
