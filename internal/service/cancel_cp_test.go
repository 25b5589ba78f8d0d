package service

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/randgen"
)

// TestCancelInterruptsCPProofPromptly is the regression test for the CP
// cancellation fix: the engine used to poll the context on a node-count
// alignment that left deep proof searches running long after their job
// was deleted. Now the search polls on a strict stride, so a DELETE must
// release the solve worker within a couple of seconds, not after the
// 60s budget.
func TestCancelInterruptsCPProofPromptly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(3))
	cfg := randgen.DefaultConfig()
	cfg.Indexes = 26 // standalone cp does not prove it within 20s
	cfg.Queries = 12
	in := randgen.New(rng, cfg)

	st := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: in,
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(60 * time.Second)},
	}))
	// Cancel once the proof search is under way: cp has published its
	// first incumbent, its first order better than its greedy start
	// (~1s into the search, ~15s under the race detector).
	j, ok := s.Manager().Get(st.ID)
	if !ok {
		t.Fatalf("job %s unknown", st.ID)
	}
	waitEvent(t, j, 45*time.Second, func(ev Event) bool { return ev.Type == EventIncumbent && ev.Backend == "cp" })

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	// The DELETE cancels the run context; the cp search must notice on
	// its polling stride and free the (only) solve worker promptly.
	released := time.Now()
	for {
		if s.Manager().Metrics().Running == 0 {
			break
		}
		if time.Since(released) > 3*time.Second {
			t.Fatalf("cp proof still holds the worker %v after DELETE", time.Since(released))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the freed worker immediately serves new jobs.
	fast := decode[JobStatus](t, postJSON(t, ts.URL+"/jobs", solveRequest{
		Instance: trapInstance(t),
		Params:   Params{Backends: []string{"cp"}, Budget: Duration(10 * time.Second)},
	}))
	waitState(t, ts.URL, fast.ID, StateDone, 15*time.Second)
}
