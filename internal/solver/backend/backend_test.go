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

func fptr(f float64) *float64 { return &f }

func fakeInfo(name string, rank int) Info {
	return Info{
		Name:    name,
		Kind:    KindConstructive,
		Summary: "registry test fixture",
		Rank:    rank,
		Params: []ParamSpec{
			{Name: name + ".knob", Type: ParamInt, Default: 2, Min: fptr(0), Max: fptr(16),
				Help: "test knob"},
			{Name: name + ".ratio", Type: ParamFloat, Default: 0.5, Min: fptr(0), Max: fptr(1),
				Help: "test ratio"},
			{Name: name + ".flip", Type: ParamBool, Default: false, Help: "test flip"},
			{Name: name + ".tag", Type: ParamString, Default: "", Help: "test tag"},
		},
	}
}

func init() {
	Register(fake{fakeInfo("zfake-b", 9001)})
	Register(fake{info: Info{
		Name: "zfake-a", Kind: KindAnytime, Summary: "registry test fixture",
		Rank: 9000, Finisher: 3,
		Applicable: func(c *model.Compiled) bool { return c.N <= 4 },
	}})
	Register(fake{info: Info{
		Name: "zfake-c", Kind: KindAnytime, Summary: "registry test fixture",
		Rank: 9000, Finisher: 7,
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
	mustPanic("unqualified param", fake{info: Info{
		Name: "zfake-bad", Summary: "x",
		Params: []ParamSpec{{Name: "workers", Type: ParamInt}},
	}})
	mustPanic("ill-typed default", fake{info: Info{
		Name: "zfake-bad2", Summary: "x",
		Params: []ParamSpec{{Name: "zfake-bad2.k", Type: ParamInt, Default: "four"}},
	}})
	mustPanic("out-of-range default", fake{info: Info{
		Name: "zfake-bad3", Summary: "x",
		Params: []ParamSpec{{Name: "zfake-bad3.k", Type: ParamInt, Default: 99, Max: fptr(8)}},
	}})
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

func TestFinisherRanking(t *testing.T) {
	if got := Finisher([]string{"zfake-b"}); got != "" {
		t.Fatalf("non-anytime finisher %q", got)
	}
	if got := Finisher([]string{"zfake-a", "zfake-c"}); got != "zfake-c" {
		t.Fatalf("finisher = %q, want zfake-c (higher declared rank)", got)
	}
	if got := Finisher([]string{"zfake-a", "no-such"}); got != "zfake-a" {
		t.Fatalf("finisher = %q, want zfake-a", got)
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

func TestValidateParams(t *testing.T) {
	// JSON-shaped input: numbers arrive as float64.
	p, err := ValidateParams(map[string]any{
		"zfake-b.knob":  float64(4),
		"zfake-b.ratio": 0.25,
		"zfake-b.flip":  true,
		"zfake-b.tag":   "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Int("zfake-b.knob", -1); got != 4 {
		t.Fatalf("knob = %d (%T in bag)", got, p["zfake-b.knob"])
	}
	if got := p.Float("zfake-b.ratio", -1); got != 0.25 {
		t.Fatalf("ratio = %v", got)
	}
	if !p.Bool("zfake-b.flip", false) || p.Str("zfake-b.tag", "") != "x" {
		t.Fatalf("bool/string params lost: %v", p)
	}

	for name, raw := range map[string]map[string]any{
		"unknown key":   {"zfake-b.nope": 1},
		"fractional":    {"zfake-b.knob": 2.5},
		"out of range":  {"zfake-b.knob": float64(99)},
		"wrong type":    {"zfake-b.flip": "yes"},
		"string number": {"zfake-b.knob": "4"},
	} {
		if _, err := ValidateParams(raw); err == nil {
			t.Errorf("%s accepted: %v", name, raw)
		}
	}
	if _, err := ValidateParams(map[string]any{"zfake-b.nope": 1}); err == nil ||
		!strings.Contains(err.Error(), "zfake-b.knob") {
		t.Fatalf("unknown-param error does not list the valid set: %v", err)
	}
	if p, err := ValidateParams(nil); err != nil || p != nil {
		t.Fatalf("empty input: %v %v", p, err)
	}
}

func TestParseParams(t *testing.T) {
	p, err := ParseParams([]string{"zfake-b.knob=8", "zfake-b.flip=true", "zfake-b.ratio=0.75"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Int("zfake-b.knob", -1) != 8 || !p.Bool("zfake-b.flip", false) ||
		p.Float("zfake-b.ratio", -1) != 0.75 {
		t.Fatalf("parsed bag wrong: %v", p)
	}
	for _, bad := range []string{"noequals", "zfake-b.nope=1", "zfake-b.knob=x", "zfake-b.knob=99"} {
		if _, err := ParseParams([]string{bad}); err == nil {
			t.Errorf("ParseParams accepted %q", bad)
		}
	}
}

func TestParamsCanonAndClone(t *testing.T) {
	p := Params{"b.z": 1, "a.a": true, "m.m": "v"}
	if got, want := p.Canon(), `a.a=true,b.z=1,m.m="v"`; got != want {
		t.Fatalf("Canon() = %q, want %q", got, want)
	}
	if Params(nil).Canon() != "" {
		t.Fatal("nil Canon not empty")
	}
	// String values are quoted so embedded separators cannot make two
	// distinct bags collide (cache-key soundness).
	tricky := Params{"a.x": `1",a.y="2`}
	flat := Params{"a.x": "1", "a.y": "2"}
	if tricky.Canon() == flat.Canon() {
		t.Fatalf("distinct bags share a canonical form: %q", flat.Canon())
	}
	c := p.Clone()
	c["a.a"] = false
	if p.Bool("a.a", false) != true {
		t.Fatal("Clone aliases the original")
	}
	var nilBag Params
	if nb := nilBag.Clone(); nb == nil {
		t.Fatal("Clone(nil) must return a writable map")
	}
}

func TestParamsTypedGetterDefaults(t *testing.T) {
	var p Params
	if p.Int("x", 7) != 7 || p.Float("x", 1.5) != 1.5 || !p.Bool("x", true) || p.Str("x", "d") != "d" {
		t.Fatal("getters on nil bag must fall back to defaults")
	}
	p = Params{"x": "wrong-type"}
	if p.Int("x", 7) != 7 {
		t.Fatal("ill-typed value must fall back to default")
	}
}

func TestKindAndTypeStrings(t *testing.T) {
	if KindExact.String() != "exact" || KindAnytime.String() != "anytime" ||
		KindConstructive.String() != "constructive" || Kind(99).String() != "unknown" {
		t.Fatal("Kind strings wrong")
	}
	if ParamInt.String() != "int" || ParamFloat.String() != "float" ||
		ParamBool.String() != "bool" || ParamString.String() != "string" {
		t.Fatal("ParamType strings wrong")
	}
}

func TestSpecsUnionSorted(t *testing.T) {
	specs := Specs()
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Fatalf("Specs() not strictly sorted at %d: %q >= %q", i, specs[i-1].Name, specs[i].Name)
		}
	}
	if _, ok := SpecFor("zfake-b.knob"); !ok {
		t.Fatal("SpecFor missed a declared spec")
	}
	if _, ok := SpecFor("zfake-b.absent"); ok {
		t.Fatal("SpecFor invented a spec")
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
