// Example service: a client walkthrough of the iddserver HTTP API.
//
// The example starts the service in-process on a loopback listener (so
// it runs standalone, without a separately launched iddserver), then
// acts as a plain HTTP client: it discovers the solver roster through
// GET /solvers, shows the 400-with-valid-set response a typo'd backend
// name earns, submits an async cp proof job, follows the job's
// server-sent-event stream, prints every incumbent improvement as it
// lands, fetches the final result (with cp's prune counters echoed
// back), demonstrates the canonical-hash cache by resubmitting the same
// instance with its indexes relabeled, and solves a small batch.
//
// Run it with `go run ./examples/service`.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
)

func main() {
	// A local service, exactly what `iddserver -addr :8080` would run.
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// A random 7-index instance whose greedy seed is suboptimal, so the
	// event stream shows real incumbent improvements.
	in := randInstance()

	// 0. Discover the solver roster: GET /solvers lists every registered
	// backend with its kind — the same registry iddsolve -list-solvers
	// prints.
	resp0, err := http.Get(ts.URL + "/solvers")
	if err != nil {
		log.Fatal(err)
	}
	var catalogue struct {
		Solvers []service.SolverInfo `json:"solvers"`
	}
	if err := json.NewDecoder(resp0.Body).Decode(&catalogue); err != nil {
		log.Fatal(err)
	}
	resp0.Body.Close()
	fmt.Printf("server registers %d solver backends:\n", len(catalogue.Solvers))
	for _, s := range catalogue.Solvers {
		fmt.Printf("  %-11s %-13s %s\n", s.Name, s.Kind, s.Summary)
	}

	// Backend names are checked against that roster at submission — a
	// typo is an immediate 400 naming the valid set, not a late job
	// failure.
	bad, _ := json.Marshal(map[string]any{
		"instance": in, "backends": []string{"cpp"},
	})
	respBad, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(bad))
	if err != nil {
		log.Fatal(err)
	}
	var badBody struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(respBad.Body).Decode(&badBody)
	respBad.Body.Close()
	fmt.Printf("typo'd backend -> %d: %s\n", respBad.StatusCode, badBody.Error)

	// 1. Submit an async job: POST /jobs with the JSON envelope. The cp
	// proof search always folds the exact tail-completion bound (§5.5)
	// into its lower bound.
	body, _ := json.Marshal(map[string]any{
		"instance": in,
		"budget":   "10s",
		"backends": []string{"cp"},
	})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted job %s (state %s)\n", job.ID, job.State)

	// 2. Stream progress: GET /jobs/{id}/events (server-sent events).
	stream, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type      string   `json:"type"`
			Backend   string   `json:"backend"`
			Objective *float64 `json:"objective"`
			State     string   `json:"state"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			log.Fatal(err)
		}
		switch ev.Type {
		case "incumbent":
			fmt.Printf("  incumbent improved to %.2f (by %s)\n", *ev.Objective, ev.Backend)
		case "proved":
			fmt.Printf("  proved optimal at %.2f (by %s)\n", *ev.Objective, ev.Backend)
		case "done":
			fmt.Printf("  job finished: %s\n", ev.State)
		}
	}
	stream.Body.Close()

	// 3. Fetch the result: GET /jobs/{id}.
	resp, err = http.Get(ts.URL + "/jobs/" + job.ID)
	if err != nil {
		log.Fatal(err)
	}
	var status struct {
		Result *service.SolveResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("deployment order (objective %.2f, proved=%t): %s\n",
		status.Result.Objective, status.Result.Proved, strings.Join(status.Result.Names, " -> "))
	for _, b := range status.Result.Backends {
		if b.Name == "cp" {
			fmt.Printf("cp proof: %d nodes, %d cut by the tail bound\n",
				b.Counters["nodes"], b.Counters["pruned_tail"])
		}
	}

	// 4. Same problem, different labeling: the canonical hash routes it
	// to the solution cache — no second solve happens. The knobs must
	// match too: budget and backends are part of the cache key.
	body, _ = json.Marshal(map[string]any{
		"instance": reversed(in), "budget": "10s", "backends": []string{"cp"},
	})
	resp, err = http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var again service.SolveResult
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("relabeled resubmission: cache_hit=%t, objective %.2f\n", again.CacheHit, again.Objective)

	// 5. Batch solving: POST /batch fans N instances out as sub-solves
	// on the worker pool — each item is a real job (cache, dedup, own
	// /jobs/{id} endpoints), the batch adds an aggregate status and a
	// completion-ordered event stream. The X-Tenant header tags the
	// whole batch for fair scheduling against other tenants' traffic.
	instances := []*model.Instance{in, randSized(9), randSized(10), reversed(in)}
	body, _ = json.Marshal(map[string]any{
		"instances": instances,
		"budget":    "10s",
	})
	req, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TenantHeader, "examples")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var batch service.BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted batch %s: %d items for tenant %s\n", batch.ID, len(batch.Items), batch.Tenant)

	// Follow the batch stream: one "item" event per finished sub-solve
	// (in completion order, not submission order), then "batch_done".
	// Note item 3 is item 0's instance relabeled — the canonical hash
	// dedups the pair: one solve serves both, and both items report
	// shared=true (single-flight), or cache_hit=true had the first
	// already finished.
	stream, err = http.Get(ts.URL + "/batch/" + batch.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	sc = bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type      string   `json:"type"`
			Item      *int     `json:"item"`
			State     string   `json:"state"`
			Objective *float64 `json:"objective"`
			CacheHit  bool     `json:"cache_hit"`
			Shared    bool     `json:"shared"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			log.Fatal(err)
		}
		switch ev.Type {
		case "item":
			fmt.Printf("  item %d %s: objective %.2f (cache_hit=%t shared=%t)\n",
				*ev.Item, ev.State, *ev.Objective, ev.CacheHit, ev.Shared)
		case "batch_done":
			fmt.Println("  batch done")
		}
	}
	stream.Body.Close()

	// Small instances skip the portfolio race entirely: the fast path
	// sends them straight to A*, proof included — the result says so.
	resp, err = http.Get(ts.URL + "/batch/" + batch.ID)
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	routed := 0
	for _, item := range batch.Items {
		if item.Routed {
			routed++
		}
	}
	fmt.Printf("batch state %s: %d/%d items fast-path routed past the portfolio race\n",
		batch.State, routed, len(batch.Items))
}

// randSized is randInstance at a chosen size (distinct seeds per size,
// so batch items are genuinely different problems).
func randSized(n int) *model.Instance {
	rng := rand.New(rand.NewSource(int64(n)))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = n
	cfg.Queries = 3 + (3*n)/4
	return randgen.New(rng, cfg)
}

func randInstance() *model.Instance {
	rng := rand.New(rand.NewSource(2))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 7
	cfg.Queries = 6
	return randgen.New(rng, cfg)
}

// reversed writes the same instance with index positions reversed and
// every reference remapped.
func reversed(in *model.Instance) *model.Instance {
	n := len(in.Indexes)
	ip := func(i int) int { return n - 1 - i }
	out := &model.Instance{Name: in.Name, Indexes: make([]model.Index, n), Queries: in.Queries}
	for i, ix := range in.Indexes {
		out.Indexes[ip(i)] = ix
	}
	for _, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = ip(i)
		}
		out.Plans = append(out.Plans, model.Plan{Query: p.Query, Indexes: idx, Speedup: p.Speedup})
	}
	for _, b := range in.BuildInteractions {
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: ip(b.Target), Helper: ip(b.Helper), Speedup: b.Speedup,
		})
	}
	for _, pr := range in.Precedences {
		out.Precedences = append(out.Precedences, model.Precedence{Before: ip(pr.Before), After: ip(pr.After)})
	}
	return out
}
