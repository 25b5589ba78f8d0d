package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/evolving-olap/idd/internal/model"
)

// opLog collects the outcome of every op a workload attempts. Workloads
// with two client goroutines share one log.
type opLog struct {
	mu        sync.Mutex
	latMS     []float64
	attempted int
	failed    int
	wrong     int      // failed ops whose output failed a check
	failures  []string // first few failure reasons, for the report
}

// ok records a successful op and its latency.
func (l *opLog) ok(d time.Duration) {
	l.mu.Lock()
	l.attempted++
	l.latMS = append(l.latMS, float64(d)/1e6)
	l.mu.Unlock()
}

// fail records a failed op. Its latency is kept out of the percentiles:
// a failed op counts against every latency limit through error_rate.
func (l *opLog) fail(format string, args ...any) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if len(l.failures) < 8 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// count returns the number of ops attempted so far.
func (l *opLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted
}

// wrongOutput records a failed op whose output failed a check.
func (l *opLog) wrongOutput(format string, args ...any) {
	l.mu.Lock()
	l.wrong++
	l.mu.Unlock()
	l.fail(format, args...)
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder is the set of percentiles tail_ms may report.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail reports the highest percentile no higher than want that still has
// at least ten samples beyond it, and its value. Each workload names the
// percentile its usual op count supports, so the reported percentile
// only moves when a run is far off its usual length.
func tail(sorted []float64, want float64) (pct, value float64) {
	n := float64(len(sorted))
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n*(1-p/100) >= 10 {
			return p, quantile(sorted, p/100)
		}
	}
	return 50, quantile(sorted, 0.5)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window snapshots the process counters at the edges of a timed window.
type window struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	numGC uint32
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// windowStats is what happened between two window snapshots.
type windowStats struct {
	elapsed time.Duration
	cpu     time.Duration
	allocKB float64
	gcs     float64
}

func (w window) close() windowStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return windowStats{
		elapsed: time.Since(w.wall),
		cpu:     cpuTime() - w.cpu,
		allocKB: float64(ms.TotalAlloc-w.alloc) / 1024,
		gcs:     float64(ms.NumGC - w.numGC),
	}
}

// liveHeapMB reports the live heap after two forced collections (the
// second one also empties what sync.Pool caches kept through the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostRefSink keeps the reference loops from being optimised away.
var hostRefSink uint64

// hostRef times a fixed stdlib-only loop and returns the median of five
// repetitions in ms. The loop has two halves: integer arithmetic in
// registers (xorshift and a multiply), and a dependent walk over a 16 MB
// random cycle, which runs at the speed of the caches and memory other
// tenants of the host share. It shows how fast the host ran around a
// workload run; nothing is normalised by it.
func hostRef() float64 {
	const cells = 1 << 22 // 16 MB of uint32
	next := make([]uint32, cells)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every cell, same every call.
	rng := rand.New(rand.NewSource(1))
	for i := cells - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	var ms []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		var acc uint64
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0xBF58476D1CE4E5B9
		}
		p := uint32(0)
		for i := 0; i < 400_000; i++ {
			p = next[p]
		}
		hostRefSink += acc + uint64(p)
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}

// gitSHA reads the commit of a git checkout rooted at dir without
// running git; a checkout exported without .git reports "unknown".
func gitSHA(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == name {
			return sha
		}
	}
	return "unknown"
}

// splitmix derives independent sub-seeds from the run seed, so every
// stream (a connection, a session, a cycle slot) is a pure function of
// the seed and its own index.
func splitmix(seed int64, stream ...int64) int64 {
	z := uint64(seed)
	for _, s := range stream {
		z += 0x9E3779B97F4A7C15 + uint64(s)*0xD1B54A32D192ED03
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// checkOrder checks a returned order against its instance: it must be a
// feasible permutation, and the objective the program reported must
// match the one recomputed from the order. It returns "" when both hold.
func checkOrder(in *model.Instance, order []int, reported, recomputed float64) string {
	if err := in.ValidOrder(order); err != nil {
		return "invalid order: " + err.Error()
	}
	if math.Abs(reported-recomputed) > 1e-9*math.Max(1, math.Abs(recomputed)) {
		return fmt.Sprintf("reported objective %v, recomputed %v", reported, recomputed)
	}
	return ""
}
