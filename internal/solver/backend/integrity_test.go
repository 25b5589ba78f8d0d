// The registry integrity audit: every backend linked into this test
// binary (all built-ins are blank-imported below, exactly the set a
// real binary gets through the portfolio) must carry a complete,
// well-formed self-description. CI runs this as its own named step so a
// sloppy registration fails the build with an attributable message, not
// a confusing downstream test.
package backend_test

import (
	"testing"

	"github.com/evolving-olap/idd/internal/solver/backend"

	_ "github.com/evolving-olap/idd/internal/solver/astar"
	_ "github.com/evolving-olap/idd/internal/solver/bruteforce"
	_ "github.com/evolving-olap/idd/internal/solver/cp"
	_ "github.com/evolving-olap/idd/internal/solver/dp"
	_ "github.com/evolving-olap/idd/internal/solver/greedy"
	_ "github.com/evolving-olap/idd/internal/solver/local"
)

func TestRegistryIntegrity(t *testing.T) {
	all := backend.All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	seen := map[string]bool{}
	for _, b := range all {
		info := b.Info()
		name := info.Name
		if name == "" {
			t.Fatal("backend with empty name in registry")
		}
		if seen[name] {
			t.Errorf("%s: duplicate name survived registration", name)
		}
		seen[name] = true
		if info.Summary == "" {
			t.Errorf("%s: empty Summary", name)
		}
		if k := info.Kind.String(); k == "unknown" {
			t.Errorf("%s: invalid Kind %d", name, info.Kind)
		}
		// Info must be stable: derivations call it repeatedly.
		again := b.Info()
		if again.Name != info.Name || again.Kind != info.Kind || again.Rank != info.Rank {
			t.Errorf("%s: Info() is not stable across calls", name)
		}
	}
	builtin := map[string]bool{}
	for _, want := range []string{"greedy", "dp", "bruteforce", "astar", "cp",
		"tabu-b", "tabu-f", "lns", "vns", "anneal"} {
		if !seen[want] {
			t.Errorf("built-in backend %q is not registered", want)
		}
		builtin[want] = true
	}
	// A sliced race runs in rank order, so the built-in ranks must put
	// constructive backends first, then exact, then anytime: the exact
	// ones prune against a constructive seed, and the anytime ones get
	// whatever budget is left.
	last := backend.KindConstructive
	for _, b := range all {
		info := b.Info()
		if !builtin[info.Name] {
			continue
		}
		if info.Kind < last {
			t.Errorf("%s (%s) ranks after a %s backend", info.Name, info.Kind, last)
		}
		last = info.Kind
	}
}
