// Command perfbench is the repository's benchmark. It runs one named
// workload against the solver packages and the solve service, checks
// every output, and prints every metric by name and unit; the last line
// of standard output is one JSON object with the result.
//
//	go run . --workload proof-tpch --seed 1 --seconds 20 --trace 0
//
// Workloads: proof-tpch, anytime-tpcds, serve-fresh, serve-drift (see
// README.md for what each exercises and why). With --trace 1 every other
// round of ops is traced; the run prints the per-layer metrics, and the
// difference between the traced and the untraced ops is the tracing
// overhead. A full report, spans included, is written under
// .bench_build/perfbench/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed stretch of ops. It ends at the deadline, or, when
// limit is set, after limit rounds: whole cycles for the solver
// workloads, requests per connection for the serving ones.
type phase struct {
	// tr records the spans of traced ops; it is off in an untraced run.
	tr *tracer
	// log holds the untraced ops, tlog the traced ones.
	log, tlog *opLog
	deadline  time.Time
	limit     int
	stats     windowStats
	// after is work a workload leaves for after the measured window:
	// the client-side replays of a traced serving phase.
	after func()
}

func newPhase(traced bool) *phase {
	return &phase{tr: newTracer(traced), log: &opLog{}, tlog: &opLog{}}
}

// untraced is the tracer of the ops a traced run leaves untraced.
var untraced = newTracer(false)

// more reports whether the phase continues after done rounds. A timed
// phase does not end before it has logged an op, and a traced one not
// before it has logged a traced op, however short its deadline.
func (ph *phase) more(done int) bool {
	if ph.limit > 0 {
		return done < ph.limit
	}
	if ph.log.count() == 0 || ph.tr.on && ph.tlog.count() == 0 {
		return true
	}
	return time.Now().Before(ph.deadline)
}

// pick returns the tracer and log of the ops of a round. A traced run
// traces every other round, so traced and untraced ops share the host's
// state over the whole run and the difference of their medians is the
// tracing overhead.
func (ph *phase) pick(round int) (*tracer, *opLog) {
	if ph.tr.on && round%2 == 1 {
		return ph.tr, ph.tlog
	}
	return untraced, ph.log
}

// workload is one named mix of ops. Its constructor in workloads is the
// set-up that setup_s times; run executes ops closed-loop until the
// phase ends; layers reports the per-layer metrics of a traced phase.
type workload interface {
	run(ph *phase)
	// objRatio is the mean of final objective over greedy objective
	// across the checked ops of every phase so far.
	objRatio() float64
	// tailPct is the percentile tail_ms reports at the usual op count.
	tailPct() float64
	layers(a attribution, m map[string]float64)
	close()
}

var workloads = map[string]func(seed int64) (workload, error){
	"proof-tpch":    newProofTPCH,
	"anytime-tpcds": newAnytimeTPCDS,
	"serve-fresh":   newServeFresh,
	"serve-drift":   newServeDrift,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = trace every other round and report per-layer metrics")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report is the full record of one invocation, written beside the
// result line.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	GitSHA      string             `json:"git_sha"`
	HostRefMS   [2]float64         `json:"host_ref_ms_before_after"`
	SetupS      []float64          `json:"setup_s_each"`
	Ops         int                `json:"ops"`
	TailPct     float64            `json:"tail_percentile"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Attribution *attribution       `json:"attribution,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// setup_s is the median of setupSamples samples, half taken before the
// measured phase and half after it: the host's speed changes within
// seconds, so samples from both ends of the run give a steadier median
// than consecutive ones. Each sample sets the workload up repeatedly
// until setupSampleMin has passed and reports the mean time of one
// set-up, so a set-up of a few tens of ms is not timed alone. The
// workload the phase runs is the last one set up before it.
const (
	setupSamples   = 6
	setupSampleMin = 300 * time.Millisecond
)

func run(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		known := make([]string, 0, len(workloads))
		for k := range workloads {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, known)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: name, Seed: seed, Seconds: dur.Seconds(), Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA(wd),
	}
	rep.HostRefMS[0] = hostRef()

	// sample takes one setup_s sample and returns the last workload it
	// set up, still open.
	sample := func() (workload, error) {
		runtime.GC()
		var w workload
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < setupSampleMin {
			if w != nil {
				w.close()
			}
			var err error
			if w, err = mk(seed); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			n++
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds()/float64(n))
		return w, nil
	}
	var w workload
	for i := 0; i < setupSamples/2; i++ {
		if w != nil {
			w.close()
		}
		if w, err = sample(); err != nil {
			return nil, err
		}
	}

	// One untimed round first, so the timed window starts on code and
	// data the ops have already touched. Its ops are checked like the
	// timed ones and count in the result.
	warm := newPhase(false)
	warm.limit = 1
	w.run(warm)

	ph := newPhase(traced)
	runtime.GC()
	win := openWindow()
	ph.deadline = time.Now().Add(dur)
	w.run(ph)
	ph.stats = win.close()
	if ph.after != nil {
		ph.after()
	}
	lat := sortedLat(ph.log)
	if len(lat) == 0 {
		w.close()
		return nil, fmt.Errorf("%s: no op succeeded (%d attempted): %v", name, ph.log.attempted, ph.log.failures)
	}
	p50, tracedP50 := quantile(lat, 0.5), quantile(sortedLat(ph.tlog), 0.5)
	pct, tailMS := tail(lat, w.tailPct())
	rep.Ops, rep.TailPct = len(lat), pct
	// The op logs grow with the ops a run finishes. They are summarised
	// above and dropped before the live heap is measured, so that the
	// heap is the program's and not the benchmark's.
	ph.log.latMS, ph.tlog.latMS = nil, nil
	heap := liveHeapMB()
	w.close()
	for i := setupSamples / 2; i < setupSamples; i++ {
		extra, err := sample()
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	rep.HostRefMS[1] = hostRef()

	ops := float64(ph.log.attempted + ph.tlog.attempted)
	rep.Metrics = map[string]metric{
		"setup_s":       {median(rep.SetupS), "s"},
		"p50_ms":        {p50, "ms"},
		"tail_ms":       {tailMS, "ms"},
		"ops_per_s":     {ops / ph.stats.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_op": {float64(ph.stats.cpu) / 1e6 / ops, "ms"},
		"live_heap_mb":  {heap, "MB"},
		"obj_ratio":     {w.objRatio(), "ratio"},
	}

	res := &result{
		Correct:   warm.log.wrong+ph.log.wrong+ph.tlog.wrong == 0,
		Attempted: warm.log.attempted + ph.log.attempted + ph.tlog.attempted,
		Failed:    warm.log.failed + ph.log.failed + ph.tlog.failed,
		Metrics:   rep.Metrics,
	}
	rep.Failures = append(append(warm.log.failures, ph.log.failures...), ph.tlog.failures...)
	if traced {
		a := ph.tr.attribute()
		m := map[string]float64{}
		for _, l := range perLayerNames {
			m[l.name] = 0
		}
		w.layers(a, m)
		m["runtime.alloc_kb_per_op"] = ph.stats.allocKB / ops
		m["runtime.gc_per_op"] = ph.stats.gcs / ops
		m["host.ref_ms"] = (rep.HostRefMS[0] + rep.HostRefMS[1]) / 2
		m["trace.overhead_ms"] = tracedP50 - p50
		m["trace.sum_frac"] = a.SumFrac
		m["trace.unattributed_frac"] = a.Unattributed
		rep.Layers, rep.Attribution, rep.Spans = m, &a, ph.tr.spans
		res.Metrics = map[string]metric{}
		for _, l := range perLayerNames {
			res.Metrics[l.name] = metric{m[l.name], l.unit}
		}
		// A traced run whose layers do not account for its ops measured
		// something other than what it reports.
		if !a.OK {
			res.Correct = false
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"attribution check failed: layers sum to %.3f of the median band's e2e, smallest layer %.4f ms",
				a.SumFrac, a.MinSelfMS))
		}
	}

	printHuman(rep, res)
	if err := writeReport(wd, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report not written:", err)
	}
	return res, nil
}

// sortedLat returns a log's op latencies in ascending order.
func sortedLat(l *opLog) []float64 {
	lat := append([]float64(nil), l.latMS...)
	sort.Float64s(lat)
	return lat
}

func printHuman(rep *report, res *result) {
	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%v nproc=%d GOMAXPROCS=%d %s git=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.GitSHA)
	fmt.Printf("  host.ref_ms before=%.3f after=%.3f  setup_s each=%v\n", rep.HostRefMS[0], rep.HostRefMS[1], rep.SetupS)
	fmt.Printf("  ops=%d attempted=%d failed=%d correct=%v tail_ms is p%g over %d ops\n",
		rep.Ops, res.Attempted, res.Failed, res.Correct, rep.TailPct, rep.Ops)
	printMetrics := func(m map[string]metric) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	printMetrics(rep.Metrics)
	if rep.Attribution != nil {
		a := rep.Attribution
		fmt.Printf("  traced: %d ops, e2e median %.4f ms, median band (%d ops) mean %.4f ms; its self time per layer (ms):\n",
			a.Ops, a.E2EMedianMS, a.Band, a.BandE2EMS)
		keys := make([]string, 0, len(a.BandMeanMS))
		for k := range a.BandMeanMS {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("    %-32s %12.4f\n", k, a.BandMeanMS[k])
		}
		fmt.Printf("  attribution: named layers sum to %.4f of the band's e2e, unattributed %.4f, ok=%v\n",
			a.SumFrac, a.Unattributed, a.OK)
		fmt.Println("  per-layer metrics:")
		printMetrics(res.Metrics)
	}
	for _, f := range rep.Failures {
		fmt.Println("  failure:", f)
	}
}

func writeReport(wd string, rep *report) error {
	dir := filepath.Join(wd, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", rep.Workload, rep.Seed, rep.Trace))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
