package obs

import (
	"strings"
	"testing"
)

// TestExpositionFormatLint is the promtool-free exposition lint: it
// renders a registry exercising every instrument type and runs the
// rendered text through a strict parser of the Prometheus text format
// (version 0.0.4). CI runs this test as a named step, so any change to
// RenderText that would break a real scraper fails here first.
func TestExpositionFormatLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("idd_lint_jobs_total", "Jobs accepted.").Add(3)
	r.GaugeFunc("idd_lint_queue_depth", "Jobs waiting.", func() float64 { return 2 })
	r.GaugeFunc("idd_lint_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	v := r.CounterVec("idd_lint_wins_total", "Wins by backend.", "backend")
	v.With("cp").Add(2)
	v.With(`we"ird\back`).Inc() // label value needing escaping
	h := r.Histogram("idd_lint_wait_seconds", "Queue wait.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	hv := r.HistogramVec("idd_lint_tenant_wait_seconds", "Queue wait by tenant.", "tenant", []float64{0.1, 1})
	hv.With("acme").Observe(0.05)
	hv.With("acme").Observe(5)
	hv.With("globex").Observe(0.5)

	var sb strings.Builder
	if err := r.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(sb.String()); err != nil {
		t.Fatal(err)
	}

	// Spot-check the histogram series: buckets cumulative, _count equals
	// the +Inf bucket, escaping round-trips.
	text := sb.String()
	for _, want := range []string{
		`idd_lint_wait_seconds_bucket{le="0.1"} 1`,
		`idd_lint_wait_seconds_bucket{le="1"} 2`,
		`idd_lint_wait_seconds_bucket{le="10"} 2`,
		`idd_lint_wait_seconds_bucket{le="+Inf"} 3`,
		`idd_lint_wait_seconds_count 3`,
		`idd_lint_wins_total{backend="we\"ird\\back"} 1`,
		"# TYPE idd_lint_wait_seconds histogram",
		"# HELP idd_lint_jobs_total Jobs accepted.",
		"# TYPE idd_lint_queue_depth gauge",
		"idd_lint_queue_depth 2",
		// Vec histograms: per-child bucket series carry both the family
		// label and the le bound; each child restarts its own cumulative
		// sequence (which the lint must key per series, not per family).
		`idd_lint_tenant_wait_seconds_bucket{tenant="acme",le="0.1"} 1`,
		`idd_lint_tenant_wait_seconds_bucket{tenant="acme",le="+Inf"} 2`,
		`idd_lint_tenant_wait_seconds_bucket{tenant="globex",le="0.1"} 0`,
		`idd_lint_tenant_wait_seconds_bucket{tenant="globex",le="+Inf"} 1`,
		`idd_lint_tenant_wait_seconds_count{tenant="acme"} 2`,
		`idd_lint_tenant_wait_seconds_count{tenant="globex"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("rendered text missing %q\n---\n%s", want, text)
		}
	}
}

// TestLintCatchesMalformations makes sure the lint itself has teeth:
// each hand-broken exposition must produce an error.
func TestLintCatchesMalformations(t *testing.T) {
	for name, text := range map[string]string{
		"sample without TYPE": "idd_x_total 1\n",
		"unknown type":        "# TYPE idd_x_total frobnicator\nidd_x_total 1\n",
		"no HELP":             "# TYPE idd_x_total counter\nidd_x_total 1\n",
		"non-cumulative buckets": "# HELP idd_h H.\n# TYPE idd_h histogram\n" +
			"idd_h_bucket{le=\"1\"} 5\nidd_h_bucket{le=\"+Inf\"} 3\nidd_h_sum 1\nidd_h_count 3\n",
		"count disagrees with +Inf": "# HELP idd_h H.\n# TYPE idd_h histogram\n" +
			"idd_h_bucket{le=\"+Inf\"} 3\nidd_h_sum 1\nidd_h_count 4\n",
		"bad label escape": "# HELP idd_x_total X.\n# TYPE idd_x_total counter\n" +
			"idd_x_total{backend=\"a\\q\"} 1\n",
		"declared but empty": "# HELP idd_x_total X.\n# TYPE idd_x_total counter\n",
		"vec histogram count disagrees per series": "# HELP idd_h H.\n# TYPE idd_h histogram\n" +
			"idd_h_bucket{tenant=\"a\",le=\"+Inf\"} 3\nidd_h_bucket{tenant=\"b\",le=\"+Inf\"} 1\n" +
			"idd_h_sum{tenant=\"a\"} 1\nidd_h_count{tenant=\"a\"} 3\n" +
			"idd_h_sum{tenant=\"b\"} 1\nidd_h_count{tenant=\"b\"} 2\n",
		"unseparated labels": "# HELP idd_x_total X.\n# TYPE idd_x_total counter\n" +
			"idd_x_total{a=\"1\"b=\"2\"} 1\n",
	} {
		if err := LintExposition(text); err == nil {
			t.Errorf("%s: lint accepted malformed exposition:\n%s", name, text)
		}
	}
}
