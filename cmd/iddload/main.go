// Command iddload is an open-loop load generator for iddserver: it
// fires a Poisson stream of mixed-size solve requests across a set of
// tenants and reports solves/sec, error rate, and p50/p99 latency per
// size class — the serving-side counterpart of iddbench.
//
// Arrivals are open-loop: each request is dispatched at its scheduled
// instant regardless of how many are still outstanding, so a slow
// server shows up as latency (and eventually 429s), never as a
// politely reduced offered load. The schedule — arrival times, sizes,
// tenants, instance seeds — is derived deterministically from -seed, so
// two runs offer byte-identical workloads.
//
// Usage:
//
//	iddload -target http://host:8080   drive a live server or cluster node
//	iddload                            serve in-process (no network)
//
// When -target points at one member of a cluster, that node routes each
// request to its ring owner itself; pass any member's URL.
//
// The -json report stamps cpus/gomaxprocs next to the numbers, since
// latency and throughput depend on the hardware. The repository's
// benchmark of record is perfbench (see BENCHMARK.json); iddload is a
// load tool for a live deployment.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

type arrival struct {
	at     time.Duration // offset from run start
	class  string        // "small" | "medium"
	tenant string
	in     *model.Instance
}

// schedule generates the deterministic open-loop workload: exponential
// inter-arrivals at -rate, size class by -small-frac, tenant uniform,
// one freshly generated instance per request (distinct seeds, so the
// solution cache cannot trivialize the run).
func schedule(seed int64, rate float64, duration time.Duration, smallFrac float64, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var t float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= duration {
			return out
		}
		class, n := "small", 5+rng.Intn(8) // 5..12: inside the fast-path window
		if rng.Float64() >= smallFrac {
			class, n = "medium", 14+rng.Intn(5) // 14..18: always a portfolio race
		}
		cfg := randgen.DefaultConfig()
		cfg.Indexes = n
		cfg.Queries = 3 + (3*n)/4
		out = append(out, arrival{
			at:     at,
			class:  class,
			tenant: fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
			in:     randgen.New(rand.New(rand.NewSource(seed<<20+int64(i))), cfg),
		})
	}
}

type sample struct {
	class   string
	latency time.Duration
	routed  bool
	cached  bool
	err     string
}

// classStats is the per-size-class slice of the report.
type classStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Routed   int     `json:"routed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// report is the -json output: the offered load, then what was served.
type report struct {
	GeneratedBy  string                `json:"generated_by"`
	CPUs         int                   `json:"cpus"`
	GOMAXPROCS   int                   `json:"gomaxprocs"`
	Rate         float64               `json:"rate_per_sec"`
	DurationS    float64               `json:"duration_s"`
	Tenants      int                   `json:"tenants"`
	SmallFrac    float64               `json:"small_frac"`
	Budget       string                `json:"budget"`
	Seed         int64                 `json:"seed"`
	Requests     int                   `json:"requests"`
	Errors       int                   `json:"errors"`
	ErrorRate    float64               `json:"error_rate"`
	SolvesPerSec float64               `json:"solves_per_sec"`
	P50Ms        float64               `json:"p50_ms"`
	P99Ms        float64               `json:"p99_ms"`
	Routed       int                   `json:"routed"`
	CacheHits    int                   `json:"cache_hits"`
	WallS        float64               `json:"wall_s"`
	Classes      map[string]classStats `json:"classes"`
	SampleErrors []string              `json:"sample_errors,omitempty"`
}

func percentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(ms)))) - 1
	if i < 0 {
		i = 0
	}
	return ms[i]
}

// drive replays the schedule against base, open-loop, and folds the
// responses into rep.
func drive(rep *report, base string, arrivals []arrival, budget time.Duration) {
	client := &http.Client{}
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arrivals {
		a := arrivals[i]
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			s := sample{class: a.class}
			body, err := json.Marshal(map[string]any{
				"instance": a.in,
				"budget":   budget.String(),
			})
			if err != nil {
				s.err = err.Error()
				samples[i] = s
				return
			}
			t0 := time.Now()
			req, _ := http.NewRequest("POST", base+"/solve", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(service.TenantHeader, a.tenant)
			resp, err := client.Do(req)
			if err != nil {
				s.err = err.Error()
				samples[i] = s
				return
			}
			var result service.SolveResult
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s.latency = time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				s.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
				samples[i] = s
				return
			}
			if err := json.Unmarshal(data, &result); err != nil {
				s.err = err.Error()
			} else {
				s.routed = result.Routed
				s.cached = result.CacheHit
			}
			samples[i] = s
		}(i, a)
	}
	wg.Wait()
	wall := time.Since(start)

	rep.Requests, rep.WallS = len(samples), wall.Seconds()
	rep.Classes = map[string]classStats{}
	var all []float64
	perClass := map[string][]float64{}
	for _, s := range samples {
		cs := rep.Classes[s.class]
		cs.Requests++
		if s.err != "" {
			rep.Errors++
			cs.Errors++
			if len(rep.SampleErrors) < 5 {
				rep.SampleErrors = append(rep.SampleErrors, s.err)
			}
			rep.Classes[s.class] = cs
			continue
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		perClass[s.class] = append(perClass[s.class], ms)
		if s.routed {
			rep.Routed++
			cs.Routed++
		}
		if s.cached {
			rep.CacheHits++
		}
		rep.Classes[s.class] = cs
	}
	sort.Float64s(all)
	rep.P50Ms = percentile(all, 50)
	rep.P99Ms = percentile(all, 99)
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	if wall > 0 {
		rep.SolvesPerSec = float64(len(all)) / wall.Seconds()
	}
	for class, ms := range perClass {
		sort.Float64s(ms)
		cs := rep.Classes[class]
		cs.P50Ms = percentile(ms, 50)
		cs.P99Ms = percentile(ms, 99)
		rep.Classes[class] = cs
	}
}

// inprocess starts a loopback iddserver and returns its base URL plus a
// shutdown func.
func inprocess(workers, queue int, budget time.Duration) (string, func()) {
	srv := service.New(service.Config{
		Workers:       workers,
		QueueCap:      queue,
		DefaultBudget: budget,
		MaxBudget:     2 * budget,
	})
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

func main() {
	var (
		target     = flag.String("target", "", "base URL of a live iddserver or cluster node (empty = serve in-process)")
		workers    = flag.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 1024, "in-process server queue capacity")
		duration   = flag.Duration("duration", 10*time.Second, "arrival window")
		rate       = flag.Float64("rate", 40, "mean arrivals per second (Poisson)")
		tenants    = flag.Int("tenants", 4, "distinct tenant ids in the mix")
		smallFrac  = flag.Float64("small-frac", 0.85, "fraction of arrivals in the small class (5-12 indexes); the rest are medium (14-18)")
		budget     = flag.Duration("budget", 300*time.Millisecond, "per-solve budget")
		seed       = flag.Int64("seed", 1, "workload seed (schedule + instances)")
		jsonOut    = flag.String("json", "", "write the full report to this file ('-' = stdout)")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit nonzero if the error rate exceeds this (negative = never)")
	)
	flag.Parse()

	arrivals := schedule(*seed, *rate, *duration, *smallFrac, *tenants)
	log.Printf("iddload: %d arrivals over %v (%.0f/s offered, %d tenants, %.0f%% small)",
		len(arrivals), *duration, *rate, *tenants, *smallFrac*100)

	rep := report{
		GeneratedBy: "cmd/iddload",
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Rate:        *rate,
		DurationS:   duration.Seconds(),
		Tenants:     *tenants,
		SmallFrac:   *smallFrac,
		Budget:      budget.String(),
		Seed:        *seed,
	}

	base := *target
	if base == "" {
		var stop func()
		base, stop = inprocess(*workers, *queue, *budget)
		defer stop()
	}
	log.Printf("iddload: driving %s", base)
	drive(&rep, base, arrivals, *budget)
	log.Printf("iddload: %5d ok %3d err  %7.1f solves/s  p50 %7.1fms  p99 %7.1fms  routed %d",
		rep.Requests-rep.Errors, rep.Errors, rep.SolvesPerSec, rep.P50Ms, rep.P99Ms, rep.Routed)
	for _, class := range []string{"small", "medium"} {
		if cs, ok := rep.Classes[class]; ok {
			log.Printf("iddload:   %-8s %5d req %3d err  p50 %7.1fms  p99 %7.1fms  routed %d",
				class, cs.Requests, cs.Errors, cs.P50Ms, cs.P99Ms, cs.Routed)
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		} else {
			log.Printf("iddload: wrote %s", *jsonOut)
		}
	}

	if *maxErrRate >= 0 && rep.ErrorRate > *maxErrRate {
		log.Printf("iddload: error rate %.3f exceeds -max-error-rate %.3f", rep.ErrorRate, *maxErrRate)
		for _, e := range rep.SampleErrors {
			log.Printf("iddload:   sample error: %s", e)
		}
		os.Exit(2)
	}
}
