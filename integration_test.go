package idd_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIIntegration builds the four command-line tools and exercises the
// generate → inspect → solve pipeline end to end on a reduced instance.
func TestCLIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"iddgen", "iddsolve", "iddinspect", "iddbench"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	inst := filepath.Join(bin, "r13.json")
	out := run("iddgen", "-dataset", "tpch", "-reduce", "13", "-density", "low", "-o", inst)
	if !strings.Contains(out, "|I|=13") {
		t.Fatalf("iddgen output: %s", out)
	}
	if _, err := os.Stat(inst); err != nil {
		t.Fatal(err)
	}

	out = run("iddinspect", inst)
	for _, want := range []string{"|I|=13", "analysis:", "ordered pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("iddinspect missing %q:\n%s", want, out)
		}
	}

	out = run("iddsolve", "-method", "cp", "-budget", "10s", inst)
	if !strings.Contains(out, "proved optimal") {
		t.Errorf("iddsolve cp did not prove the reduced instance:\n%s", out)
	}
	if !strings.Contains(out, "objective:") {
		t.Errorf("iddsolve output malformed:\n%s", out)
	}

	out = run("iddsolve", "-method", "greedy", "-curve", inst)
	if !strings.Contains(out, "improvement curve") {
		t.Errorf("iddsolve -curve missing curve:\n%s", out)
	}

	// Registry surfaces: the roster listing, and the cp engine's tail
	// bound, always on (visible as its tail-prune counter in the JSON
	// report). The removed -param flag is refused, not ignored.
	out = run("iddsolve", "-list-solvers")
	for _, want := range []string{"cp", "vns", "exact", "anytime"} {
		if !strings.Contains(out, want) {
			t.Errorf("iddsolve -list-solvers missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-param") {
		t.Errorf("iddsolve -list-solvers still lists backend params:\n%s", out)
	}
	out = run("iddsolve", "-json", "-method", "cp", "-budget", "10s", inst)
	if !strings.Contains(out, `"pruned_tail": `) || strings.Contains(out, `"pruned_tail": 0,`) {
		t.Errorf("cp made no tail prunes:\n%s", out)
	}
	if raw, err := exec.Command(filepath.Join(bin, "iddsolve"), "-param", "cp.tail_bound=false", inst).CombinedOutput(); err == nil {
		t.Errorf("iddsolve accepted the removed -param flag:\n%s", raw)
	}

	// Text format round trip through the tools.
	txt := filepath.Join(bin, "r13.txt")
	run("iddgen", "-dataset", "tpch", "-reduce", "13", "-density", "low", "-o", txt)
	out = run("iddsolve", "-method", "vns", "-budget", "1s", "-seed", "3", txt)
	if !strings.Contains(out, "order:") {
		t.Errorf("text-format solve failed:\n%s", out)
	}

	// iddbench single experiment with a tiny budget.
	out = run("iddbench", "-only", "table7")
	if !strings.Contains(out, "Greedy") || !strings.Contains(out, "tpcds") {
		t.Errorf("iddbench table7 output:\n%s", out)
	}
}

// TestExamplesRun executes the fast examples end to end (the heavier
// ones — recovery, evolving_warehouse — are covered by
// their underlying package tests).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ex := range []struct {
		dir  string
		want string
	}{
		{"quickstart", "optimal order"},
		{"whatif", "atomic configurations"},
		{"schema_evolution", "deployment order"},
		{"service", "cache_hit=true"},
	} {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+ex.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("output missing %q:\n%s", ex.want, out)
			}
		})
	}
}
