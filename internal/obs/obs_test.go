package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("idd_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r.GaugeFunc("idd_test_gauge", "a gauge", func() float64 { return 1 })
	if text := render(t, r); !strings.Contains(text, "\nidd_test_gauge 1\n") {
		t.Fatalf("gauge sample missing:\n%s", text)
	}
	v := r.CounterVec("idd_test_wins_total", "wins", "backend")
	v.With("cp").Add(3)
	v.With("tabu").Inc()
	snap := v.Snapshot()
	if snap["cp"] != 3 || snap["tabu"] != 1 {
		t.Fatalf("vec snapshot = %v", snap)
	}
}

func TestRegistryPanicsOnDuplicateAndInvalid(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	mustPanic(t, "duplicate", func() { r.Counter("dup_total", "") })
	mustPanic(t, "invalid name", func() { r.Counter("9starts_with_digit", "") })
	mustPanic(t, "invalid name", func() { r.Counter("has-dash", "") })
	mustPanic(t, "invalid label", func() { r.CounterVec("vec_total", "", "bad-label") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	fn()
}

// TestConcurrentWriters hammers every instrument type from many
// goroutines while a reader renders; run under -race this is the
// registry's data-race proof.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("idd_conc_total", "")
	var gv atomic.Int64
	r.GaugeFunc("idd_conc_gauge", "", func() float64 { return float64(gv.Load()) })
	h := r.Histogram("idd_conc_seconds", "", nil)
	v := r.CounterVec("idd_conc_vec_total", "", "worker")
	labels := []string{"a", "b", "c", "d"}

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				gv.Add(1)
				h.Observe(float64(i%100) / 100)
				v.With(labels[w%len(labels)]).Inc()
			}
		}(w)
	}
	// A concurrent reader renders while writers run.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var sb strings.Builder
				if err := r.RenderText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if text := render(t, r); !strings.Contains(text, "\nidd_conc_gauge "+formatFloat(workers*perWorker)+"\n") {
		t.Fatalf("gauge sample is not %d:\n%s", workers*perWorker, text)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var vecTotal int64
	for _, n := range v.Snapshot() {
		vecTotal += n
	}
	if vecTotal != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", vecTotal, workers*perWorker)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	// Median interpolates to the middle of the (0,1] bucket.
	if p50 := h.Quantile(0.5); p50 != 0.5 {
		t.Fatalf("p50 = %v, want 0.5", p50)
	}
	// Push 100 more into (1,2]: overall median sits at the 1.0 boundary.
	for i := 1; i <= 100; i++ {
		h.Observe(1 + float64(i)/100)
	}
	if p50 := h.Quantile(0.5); p50 != 1.0 {
		t.Fatalf("p50 after second wave = %v, want 1.0", p50)
	}
	if p75 := h.Quantile(0.75); p75 != 1.5 {
		t.Fatalf("p75 = %v, want 1.5", p75)
	}
	// Overflow values clamp to the largest finite bound.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}
	// Empty histogram reports 0.
	if got := newHistogram(nil).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// Sum accumulates.
	h3 := newHistogram([]float64{10})
	h3.Observe(1.5)
	h3.Observe(2.5)
	if got := h3.Sum(); got != 4 {
		t.Fatalf("sum = %v, want 4", got)
	}
	if got := h3.Mean(); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	mustPanic(t, "non-increasing", func() { newHistogram([]float64{1, 1}) })
	mustPanic(t, "decreasing", func() { newHistogram([]float64{2, 1}) })
	mustPanic(t, "explicit +Inf", func() { newHistogram([]float64{1, math.Inf(1)}) })
}

func TestRateWindowIdleThenBusy(t *testing.T) {
	rw := NewRateWindow(64, time.Minute)
	base := time.Now()
	rw.start = base.Add(-24 * time.Hour) // pretend the server has been up a day

	// A day of idleness then 30 events in the last 10 seconds: the
	// lifetime average would be ~0.0003/s; the window sees 0.5/s.
	for i := 0; i < 30; i++ {
		rw.Mark(base.Add(-time.Duration(i) * 300 * time.Millisecond))
	}
	got := rw.Rate(base)
	want := 30.0 / 60.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want %v", got, want)
	}

	// Everything outside the window counts for nothing.
	if got := rw.Rate(base.Add(2 * time.Minute)); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

func TestRateWindowFreshServer(t *testing.T) {
	// 5 events in the 10 seconds since start: denominator is the 10s of
	// uptime, not the full 60s window.
	rw := NewRateWindow(16, time.Minute)
	base := rw.start
	for i := 0; i < 5; i++ {
		rw.Mark(base.Add(time.Duration(i) * time.Second))
	}
	got := rw.Rate(base.Add(10 * time.Second))
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("fresh rate = %v, want 0.5", got)
	}
}

func TestRateWindowCapacityOverflow(t *testing.T) {
	rw := NewRateWindow(4, time.Minute)
	base := rw.start
	for i := 0; i < 10; i++ {
		rw.Mark(base.Add(time.Duration(i) * time.Second))
	}
	// Only the newest 4 timestamps survive: the rate is a lower bound.
	got := rw.Rate(base.Add(10 * time.Second))
	if math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("overflow rate = %v, want 0.4", got)
	}
}

func TestTraceRecordsInOrder(t *testing.T) {
	tr := NewTrace()
	tr.Record(SpanQueued)
	tr.Record(SpanStarted)
	tr.RecordBackend(SpanBackendStart, "cp", "")
	tr.RecordObjective(SpanIncumbent, "cp", 12.5, "")
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(snap.Spans))
	}
	if snap.Spans[0].Kind != SpanQueued || snap.Spans[3].Kind != SpanIncumbent {
		t.Fatalf("span order wrong: %+v", snap.Spans)
	}
	if snap.Spans[3].Objective == nil || *snap.Spans[3].Objective != 12.5 {
		t.Fatalf("objective not recorded: %+v", snap.Spans[3])
	}
	for i, s := range snap.Spans {
		if s.Seq != i+1 {
			t.Fatalf("seq[%d] = %d", i, s.Seq)
		}
	}

	// A snapshot is a copy: later spans extend the trace, not it.
	tr.RecordObjective(SpanIncumbent, "cp", 11.0, "")
	tr.Record(SpanProved)
	if len(snap.Spans) != 4 {
		t.Fatalf("earlier snapshot grew to %d spans", len(snap.Spans))
	}
	snap = tr.Snapshot()
	if len(snap.Spans) != 6 || snap.Spans[5].Seq != 6 || snap.Spans[5].Kind != SpanProved {
		t.Fatalf("after two more spans: %+v", snap.Spans)
	}
}

// TestTraceEmptySnapshot: a trace with no spans renders "spans": [],
// not null.
func TestTraceEmptySnapshot(t *testing.T) {
	b, err := json.Marshal(NewTrace().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"spans":[]`) {
		t.Fatalf("empty trace renders %s", b)
	}
}

// TestTraceConcurrent: concurrent writers lose no span, and Seq numbers
// each recorded span exactly once.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.RecordObjective(SpanIncumbent, "cp", float64(i), "")
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Spans) != 2000 {
		t.Fatalf("snapshot has %d spans, want 2000", len(snap.Spans))
	}
	for i, s := range snap.Spans {
		if s.Seq != i+1 {
			t.Fatalf("spans[%d].Seq = %d, want %d", i, s.Seq, i+1)
		}
	}
}

// TestTraceFootprint: a trace costs its spans. 100 traces of 8 spans
// allocate well under 1 MB in all; a fixed 512-span buffer per trace
// would allocate 3.6 MB before the first span.
func TestTraceFootprint(t *testing.T) {
	traces := make([]*Trace, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range traces {
		tr := NewTrace()
		for k := 0; k < 8; k++ {
			tr.RecordObjective(SpanIncumbent, "cp", float64(k), "")
		}
		traces[i] = tr
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1_000_000 {
		t.Fatalf("100 traces of 8 spans allocated %d bytes, want under 1 MB", got)
	}
	runtime.KeepAlive(traces)
}

// render returns r's text exposition.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestGaugeFuncReadsAtRender: a GaugeFunc stores no value; every render
// calls it, so the exposition follows its source between scrapes.
func TestGaugeFuncReadsAtRender(t *testing.T) {
	r := NewRegistry()
	depth := 2.0
	r.GaugeFunc("idd_test_depth", "", func() float64 { return depth })
	if text := render(t, r); !strings.Contains(text, "\nidd_test_depth 2\n") {
		t.Fatalf("first render:\n%s", text)
	}
	depth = 0.5
	if text := render(t, r); !strings.Contains(text, "\nidd_test_depth 0.5\n") {
		t.Fatalf("second render:\n%s", text)
	}
}
