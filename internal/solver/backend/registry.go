package backend

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/evolving-olap/idd/internal/model"
)

// The process-wide registry. Solver packages register themselves from
// init(), so any binary (or test) that imports a solver package — even
// a test-only backend registered from a single test file — shows up in
// every registry-derived surface: portfolio selection, the conformance
// sweep, -list-solvers, GET /solvers.
var reg = struct {
	sync.RWMutex
	backends map[string]Backend
}{backends: make(map[string]Backend)}

// Register adds a backend to the process-wide registry. It panics on a
// nil backend, an empty or duplicate name, or malformed param specs —
// registration happens in init(), where a panic is an immediate,
// attributable build-time failure rather than a latent runtime one.
func Register(b Backend) {
	if b == nil {
		panic("backend: Register(nil)")
	}
	info := b.Info()
	if info.Name == "" {
		panic("backend: Register with empty Info.Name")
	}
	if err := checkSpecs(info); err != nil {
		panic(fmt.Sprintf("backend: Register(%q): %v", info.Name, err))
	}
	reg.Lock()
	defer reg.Unlock()
	if _, dup := reg.backends[info.Name]; dup {
		panic(fmt.Sprintf("backend: Register(%q): duplicate name", info.Name))
	}
	reg.backends[info.Name] = b
}

// checkSpecs validates a backend's declared params at registration
// time: qualified names, no duplicates, defaults that pass their own
// spec.
func checkSpecs(info Info) error {
	seen := make(map[string]bool, len(info.Params))
	for _, s := range info.Params {
		if !strings.HasPrefix(s.Name, info.Name+".") || len(s.Name) <= len(info.Name)+1 {
			return fmt.Errorf("param %q not namespaced %q", s.Name, info.Name+".<key>")
		}
		if seen[s.Name] {
			return fmt.Errorf("param %q declared twice", s.Name)
		}
		seen[s.Name] = true
		if s.Default != nil {
			if err := s.check(s.Default); err != nil {
				return fmt.Errorf("default: %w", err)
			}
		}
	}
	return nil
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	reg.RLock()
	defer reg.RUnlock()
	b, ok := reg.backends[name]
	return b, ok
}

// All returns every registered backend in rank order (Info.Rank
// ascending, ties broken by name) — the deterministic listing order
// shared by Names, Default, -list-solvers and GET /solvers.
func All() []Backend {
	reg.RLock()
	out := make([]Backend, 0, len(reg.backends))
	for _, b := range reg.backends {
		out = append(out, b)
	}
	reg.RUnlock()
	sort.Slice(out, func(a, b int) bool {
		ia, ib := out[a].Info(), out[b].Info()
		if ia.Rank != ib.Rank {
			return ia.Rank < ib.Rank
		}
		return ia.Name < ib.Name
	})
	return out
}

// Names lists every registered backend name in rank order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Info().Name
	}
	return out
}

// Default derives the portfolio's default backend set for an instance
// from the declared applicability predicates, in rank order.
func Default(c *model.Compiled) []string {
	var out []string
	for _, b := range All() {
		if info := b.Info(); info.applicable(c) {
			out = append(out, info.Name)
		}
	}
	return out
}

// Finisher picks the backend that runs the portfolio's exploitation
// tail: among names, the one with the highest declared positive
// Finisher rank ("" when none of them is a finisher).
func Finisher(names []string) string {
	best, bestRank := "", 0
	for _, n := range names {
		b, ok := Lookup(n)
		if !ok {
			continue
		}
		if info := b.Info(); info.Finisher > bestRank {
			best, bestRank = info.Name, info.Finisher
		}
	}
	return best
}

// CheckNames validates a caller-supplied backend list against the
// registry; the error lists the valid set so HTTP handlers can forward
// it as a 400 body.
func CheckNames(names []string) error {
	for _, n := range names {
		if _, ok := Lookup(n); !ok {
			return fmt.Errorf("unknown backend %q (valid backends: %s)",
				n, strings.Join(Names(), ", "))
		}
	}
	return nil
}

// Specs returns the union of every registered backend's declared param
// specs, sorted by name.
func Specs() []ParamSpec {
	var out []ParamSpec
	for _, b := range All() {
		out = append(out, b.Info().Params...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// SpecFor returns the declared spec for a fully qualified param name.
func SpecFor(name string) (ParamSpec, bool) {
	for _, b := range All() {
		for _, s := range b.Info().Params {
			if s.Name == name {
				return s, true
			}
		}
	}
	return ParamSpec{}, false
}
