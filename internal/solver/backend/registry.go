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
// nil backend or an empty or duplicate name — registration happens in
// init(), where a panic is an immediate, attributable build-time
// failure rather than a latent runtime one.
func Register(b Backend) {
	if b == nil {
		panic("backend: Register(nil)")
	}
	info := b.Info()
	if info.Name == "" {
		panic("backend: Register with empty Info.Name")
	}
	reg.Lock()
	defer reg.Unlock()
	if _, dup := reg.backends[info.Name]; dup {
		panic(fmt.Sprintf("backend: Register(%q): duplicate name", info.Name))
	}
	reg.backends[info.Name] = b
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
