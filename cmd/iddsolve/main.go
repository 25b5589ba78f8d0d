// Command iddsolve computes an index deployment order for a matrix file
// with a chosen method and prints the order, objective, and improvement
// curve.
//
// Usage:
//
//	iddsolve -list-solvers
//	iddsolve -method vns -budget 30s tpch.json
//	iddsolve -method cp -budget 60s -prune tpch13.json
//	iddsolve -method greedy tpcds.json
//	iddsolve -method portfolio -workers 8 -budget 30s tpcds.json
//	iddsolve -method portfolio -json r13.json | jq .objective
//	iddsolve -method portfolio -json r13.json > prior.json
//	iddsolve -warm-start-from prior.json r13_evolved.json
//
// Methods are the solver backends of the self-describing registry
// (internal/solver/backend; run -list-solvers for the roster) plus two
// pseudo-methods: random, and
// portfolio — which races a set of backends concurrently with a shared
// incumbent (see -workers and -solvers).
//
// -json replaces the human-readable report with a single JSON object on
// stdout so scripts (and the iddserver examples) can consume results
// programmatically.
//
// Exit codes: 0 = solved (for proof-capable methods: proved optimal, or
// a heuristic method returned a feasible order); 2 = invalid input,
// infeasible instance, or a method that cannot handle it; 3 = a
// proof-capable method (an exact backend — bruteforce, astar, cp — or
// portfolio) exhausted its budget — or was interrupted — without an
// optimality proof. The best incumbent is still printed in that case.
//
// -warm-start-from seeds the search with a previous run's order: the
// file is either a prior -json report (its "names" list is used) or a
// bare JSON array of index names. The order is repaired against the
// current instance first — dropped indexes removed, new ones inserted
// at their best feasible position — so a plan computed before the
// workload evolved remains a valid (and usually excellent) seed. An
// unrepairable seed degrades to a cold start with a warning.
//
// -budget (default 10s) bounds EVERY method uniformly. Note for
// pre-registry scripts: bruteforce and astar used to ignore -budget and
// run unbounded; they now stop at the budget like everything else and
// exit 3 when the proof did not finish — raise -budget to reproduce the
// old run-to-proof behavior.
//
// SIGINT cancels the search gracefully: the solver stops at the next
// cancellation point and the best incumbent found so far is printed
// (marked "interrupted"). A second SIGINT kills the process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/evolve"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/obs"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/sched"
	"github.com/evolving-olap/idd/internal/solver/backend"
	"github.com/evolving-olap/idd/internal/solver/portfolio"
)

// Exit codes for scripting.
const (
	exitSolved  = 0
	exitInvalid = 2 // bad usage, unreadable/invalid instance, method refused it
	exitNoProof = 3 // proof-capable method ran out of budget (or ^C) without a proof
)

// solveOutcome is what solve() reports beyond the order itself.
type solveOutcome struct {
	note string
	// proved is nil for methods with no proof concept (the heuristics),
	// otherwise whether an optimality proof landed.
	proved *bool
	winner string
	// counters are the engine counters of the solving backend (the
	// portfolio winner's, or the standalone backend's): cp's node and
	// prune-cause breakdown, the local searches' steps/accepted/adopted.
	counters map[string]int64
}

func main() {
	var (
		method   = flag.String("method", "vns", "solution method (a registered backend, random, or portfolio; see -list-solvers)")
		budget   = flag.Duration("budget", 10*time.Second, "time budget for search methods")
		usePrune = flag.Bool("prune", true, "run the §5 analysis and add its constraints")
		seed     = flag.Int64("seed", 1, "random seed for local search")
		curve    = flag.Bool("curve", false, "print the per-step improvement curve")
		jsonOut  = flag.Bool("json", false, "emit one JSON object instead of the text report")
		workers  = flag.Int("workers", 0, "portfolio: concurrent backends (0 = GOMAXPROCS)")
		solvers  = flag.String("solvers", "", "portfolio: comma-separated backend list (empty = auto; available: "+strings.Join(backend.Names(), ",")+")")
		warmFrom = flag.String("warm-start-from", "", "seed the search from a prior -json report (or a JSON array of index names), repaired against this instance")
		trace    = flag.Bool("trace", false, "record a flight-recorder trace and print its span timeline after the report")
		traceJS  = flag.Bool("trace-json", false, "like -trace but print the spans as JSON (inside the report when -json is set)")
		list     = flag.Bool("list-solvers", false, "list the registered solver backends, then exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	)
	flag.Parse()
	if *list {
		listSolvers(os.Stdout)
		exit(exitSolved)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iddsolve [flags] <instance file>")
		exit(exitInvalid)
	}
	startProfiles(*cpuProf, *memProf)
	in, err := codec.LoadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	c, err := model.Compile(in)
	if err != nil {
		fail(err)
	}

	cs := sched.PrecedenceSet(in)
	if *usePrune {
		start := time.Now()
		var rep prune.Report
		cs, rep = prune.Analyze(c, prune.Options{})
		fmt.Fprintf(os.Stderr, "analysis (%v): %v\n", time.Since(start).Round(time.Millisecond), rep)
	}

	var initial []int
	if *warmFrom != "" {
		warm, err := warmOrderFrom(*warmFrom, in, c, cs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iddsolve: warm start rejected (%v), starting cold\n", err)
		} else {
			initial = warm
			fmt.Fprintf(os.Stderr, "warm start: seeded from %s\n", *warmFrom)
		}
	}

	// SIGINT/SIGTERM cancel the search context; every method below polls
	// it and returns its best incumbent instead of dying mid-print. The
	// registration is dropped the moment the context fires (not when the
	// solver returns) so a second ^C gets the default kill behavior even
	// while a backend is still between cancellation points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	var tr *obs.Trace
	if *trace || *traceJS {
		tr = obs.NewTrace()
		tr.Record(obs.SpanStarted)
	}
	start := time.Now()
	order, outcome := solve(ctx, c, cs, *method, *budget, *seed, *workers, *solvers, initial, tr)
	elapsed := time.Since(start)
	interrupted := ctx.Err() != nil
	stop()

	obj, deploy, final := c.Evaluate(order)
	code := exitSolved
	if outcome.proved != nil && !*outcome.proved {
		code = exitNoProof
	}
	if tr != nil {
		note := "solved"
		if interrupted {
			note = "interrupted"
		}
		tr.RecordObjective(obs.SpanDone, outcome.winner, obj, note)
	}

	if *jsonOut {
		printJSON(in, c, *method, order, obj, deploy, final, elapsed, outcome, interrupted, *curve, code, tr)
		exit(code)
	}

	note := outcome.note
	if interrupted {
		note += " (interrupted)"
	}
	fmt.Printf("method:      %s%s\n", *method, note)
	fmt.Printf("elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("objective:   %.2f\n", obj)
	fmt.Printf("deploy time: %.2f\n", deploy)
	fmt.Printf("runtime:     %.2f -> %.2f\n", c.Base, final)
	fmt.Printf("order:\n")
	for k, ix := range order {
		fmt.Printf("  %3d. %s\n", k+1, in.Indexes[ix].Name)
	}
	if *curve {
		fmt.Println("improvement curve (elapsed, runtime):")
		for _, pt := range c.Curve(order) {
			fmt.Printf("  %10.2f %10.2f  (+%s)\n", pt.Elapsed, pt.Runtime, in.Indexes[pt.Index].Name)
		}
	}
	if len(outcome.counters) > 0 {
		fmt.Println("counters:")
		keys := make([]string, 0, len(outcome.counters))
		for k := range outcome.counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-18s %d\n", k, outcome.counters[k])
		}
	}
	if tr != nil {
		if *traceJS {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tr.Snapshot()); err != nil {
				fail(err)
			}
		} else {
			printTraceText(os.Stdout, tr.Snapshot())
		}
	}
	exit(code)
}

// printTraceText renders the flight-recorder timeline for humans.
func printTraceText(w io.Writer, snap obs.TraceSnapshot) {
	fmt.Fprintf(w, "trace (%d spans):\n", len(snap.Spans))
	for _, sp := range snap.Spans {
		line := fmt.Sprintf("  %4d %10.1fms  %-13s %-10s", sp.Seq, sp.ElapsedMS, sp.Kind, sp.Backend)
		if sp.Objective != nil {
			line += fmt.Sprintf(" obj=%.2f", *sp.Objective)
		}
		if sp.Detail != "" {
			line += " " + sp.Detail
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// jsonReport is the -json wire format.
type jsonReport struct {
	Method       string    `json:"method"`
	Instance     string    `json:"instance,omitempty"`
	N            int       `json:"n"`
	Objective    float64   `json:"objective"`
	DeployTime   float64   `json:"deploy_time"`
	BaseRuntime  float64   `json:"base_runtime"`
	FinalRuntime float64   `json:"final_runtime"`
	Proved       *bool     `json:"proved,omitempty"`
	Winner       string    `json:"winner,omitempty"`
	Interrupted  bool      `json:"interrupted,omitempty"`
	ElapsedMS    int64     `json:"elapsed_ms"`
	Order        []int     `json:"order"`
	Names        []string  `json:"names"`
	Curve        []curvePt `json:"curve,omitempty"`
	// Counters are the solving backend's engine counters (cp: nodes,
	// fails and the prune-cause breakdown pruned_incumbent + pruned_tail
	// + pruned_memo + infeasible = fails; locals: steps/accepted/adopted).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Trace is the flight-recorder span timeline (-trace / -trace-json).
	Trace    *obs.TraceSnapshot `json:"trace,omitempty"`
	ExitCode int                `json:"exit_code"`
}

type curvePt struct {
	Elapsed float64 `json:"elapsed"`
	Runtime float64 `json:"runtime"`
	Index   string  `json:"index"`
	Cost    float64 `json:"cost"`
}

func printJSON(in *model.Instance, c *model.Compiled, method string, order []int,
	obj, deploy, final float64, elapsed time.Duration, outcome solveOutcome,
	interrupted, withCurve bool, code int, tr *obs.Trace) {
	rep := jsonReport{
		Method:       method,
		Instance:     in.Name,
		N:            c.N,
		Objective:    obj,
		DeployTime:   deploy,
		BaseRuntime:  c.Base,
		FinalRuntime: final,
		Proved:       outcome.proved,
		Winner:       outcome.winner,
		Interrupted:  interrupted,
		ElapsedMS:    elapsed.Milliseconds(),
		Order:        order,
		Names:        make([]string, len(order)),
		Counters:     outcome.counters,
		ExitCode:     code,
	}
	if tr != nil {
		snap := tr.Snapshot()
		rep.Trace = &snap
	}
	for k, ix := range order {
		rep.Names[k] = in.Indexes[ix].Name
	}
	if withCurve {
		for _, pt := range c.Curve(order) {
			rep.Curve = append(rep.Curve, curvePt{
				Elapsed: pt.Elapsed, Runtime: pt.Runtime,
				Index: in.Indexes[pt.Index].Name, Cost: pt.Cost,
			})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail(err)
	}
}

// warmOrderFrom reads a prior order (a -json report's "names" or a bare
// JSON name array), repairs it against the current instance (dropped
// indexes removed, added ones greedy-inserted), then against the full
// constraint set, and returns it in position space.
func warmOrderFrom(path string, in *model.Instance, c *model.Compiled, cs *constraint.Set) ([]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var names []string
	var rep struct {
		Names []string `json:"names"`
	}
	if err := json.Unmarshal(data, &rep); err == nil && len(rep.Names) > 0 {
		names = rep.Names
	} else if err := json.Unmarshal(data, &names); err != nil {
		return nil, fmt.Errorf("%s: neither a -json report with names nor a name array: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: carries no index names", path)
	}
	repaired, err := evolve.RepairOrder(in, names)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, in.N())
	for i, ix := range in.Indexes {
		pos[ix.Name] = i
	}
	order := make([]int, len(repaired))
	for k, name := range repaired {
		order[k] = pos[name]
	}
	// The pruning analysis may have added precedence edges the prior
	// order never saw; the stable topological repair handles those.
	return portfolio.RepairInitial(c, cs, order)
}

func solve(ctx context.Context, c *model.Compiled, cs *constraint.Set, method string,
	budget time.Duration, seed int64, workers int, solvers string,
	initial []int, tr *obs.Trace) ([]int, solveOutcome) {
	switch method {
	case "random":
		rng := rand.New(rand.NewSource(seed))
		return sched.RandomFeasible(rng, cs), solveOutcome{}
	case "portfolio":
		var backends []string
		if solvers != "" {
			for _, name := range strings.Split(solvers, ",") {
				if name = strings.TrimSpace(name); name != "" {
					backends = append(backends, name)
				}
			}
		}
		res, err := portfolio.Solve(ctx, c, cs, portfolio.Options{
			Backends:   backends,
			Workers:    workers,
			Budget:     budget,
			Seed:       seed,
			Initial:    initial,
			OnProgress: func(ev portfolio.ProgressEvent) { portfolio.RecordSpan(tr, ev) },
		})
		if err != nil {
			fail(err)
		}
		for _, b := range res.Backends {
			switch {
			case b.Skipped:
				fmt.Fprintf(os.Stderr, "  %-10s skipped (budget exhausted or optimum already proved)\n", b.Name)
			case b.Err != nil:
				fmt.Fprintf(os.Stderr, "  %-10s error: %v\n", b.Name, b.Err)
			case b.Proved && math.IsInf(b.Objective, 1):
				// A* can prove the shared incumbent optimal via its bound
				// without ever reconstructing an order of its own.
				fmt.Fprintf(os.Stderr, "  %-10s proved the incumbent optimal (bound only, no own order) iters=%d wall=%v\n",
					b.Name, b.Iterations, b.Wall.Round(time.Millisecond))
			default:
				note := ""
				if b.Proved {
					note = " proved"
				}
				fmt.Fprintf(os.Stderr, "  %-10s obj=%.2f iters=%d wall=%v improved=%d%s\n",
					b.Name, b.Objective, b.Iterations, b.Wall.Round(time.Millisecond), b.Improvements, note)
			}
		}
		oc := solveOutcome{
			note:   fmt.Sprintf(" [winner %s]", res.Winner) + provedNote(res.Proved),
			proved: &res.Proved,
			winner: res.Winner,
		}
		for _, b := range res.Backends {
			if b.Name == res.Winner {
				oc.counters = b.Counters
			}
		}
		return res.Order, oc
	default:
		// Every other method is a registered backend, run as a one-name
		// portfolio roster with the full budget: the same code path, seed
		// and budget the service's fast path uses (the registry is also
		// what -list-solvers and the portfolio race draw from, so the
		// rosters always agree).
		b, ok := backend.Lookup(method)
		if !ok {
			fmt.Fprintf(os.Stderr, "iddsolve: unknown method %q (methods: %s, random, portfolio)\n",
				method, strings.Join(backend.Names(), ", "))
			exit(exitInvalid)
			return nil, solveOutcome{}
		}
		res, err := portfolio.Solve(ctx, c, cs, portfolio.Options{
			Backends:   []string{method},
			Workers:    1,
			Budget:     budget,
			Seed:       seed,
			Initial:    initial,
			OnProgress: func(ev portfolio.ProgressEvent) { portfolio.RecordSpan(tr, ev) },
		})
		if err != nil {
			fail(err)
		}
		br := res.Backends[0]
		if br.Err != nil {
			fail(br.Err)
		}
		// Report the backend's own order, even when the seed beats it (a
		// constructive baseline is shown as built); a search with no
		// order of its own (A* proving the seed by its bound, a search
		// cancelled before its first solution) reports the incumbent.
		order := br.Order
		if order == nil {
			order = res.Order
		}
		oc := solveOutcome{counters: br.Counters}
		if b.Info().Kind == backend.KindExact {
			oc.proved = &res.Proved
			oc.note = provedNote(res.Proved)
		}
		return order, oc
	}
}

// listSolvers prints the registry roster (-list-solvers).
func listSolvers(w io.Writer) {
	fmt.Fprintf(w, "%-11s %-13s %-7s %s\n", "NAME", "KIND", "PROVES", "SUMMARY")
	for _, b := range backend.All() {
		info := b.Info()
		proves := "-"
		if info.Kind == backend.KindExact {
			proves = "yes"
		}
		fmt.Fprintf(w, "%-11s %-13s %-7s %s\n", info.Name, info.Kind, proves, info.Summary)
	}
	fmt.Fprintln(w, "\npseudo-methods: portfolio (races backends, see -solvers/-workers), random")
}

func provedNote(p bool) string {
	if p {
		return " (proved optimal)"
	}
	return " (best found, no proof)"
}

// stopProfiles flushes any active pprof capture; set by startProfiles and
// run by exit so profiles survive every exit path (os.Exit skips defers).
var stopProfiles = func() {}

// startProfiles begins CPU profiling and arranges a heap snapshot at
// exit, making perf work on real instances reproducible:
//
//	iddsolve -method vns -budget 30s -cpuprofile cpu.out tpcds.json
//	go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(fmt.Errorf("cpuprofile: %w", err))
		}
		cpuFile = f
	}
	stopProfiles = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iddsolve: memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the snapshot shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "iddsolve: memprofile: %v\n", err)
			}
			f.Close()
			memPath = ""
		}
	}
}

// exit flushes profiles, then terminates with the given code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "iddsolve: %v\n", err)
	exit(exitInvalid)
}
