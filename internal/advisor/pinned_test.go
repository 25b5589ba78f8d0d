package advisor_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/evolving-olap/idd/internal/advisor"
	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/tpcds"
	"github.com/evolving-olap/idd/internal/tpch"
)

// TestBuildInstancePinned pins the bytes of the instances the pipeline
// builds: any change to candidate generation, selection, the what-if
// optimizer or extraction that moves a single cost bit changes a hash.
// The hashes were recorded with the per-call optimizer that
// internal/dbsim keeps as its test reference, so they also pin that
// preparing each query once changes no bit of any instance.
func TestBuildInstancePinned(t *testing.T) {
	tpchDefault, _, err := advisor.BuildInstance("tpch", tpch.Schema(), tpch.Queries(), advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *model.Instance
		want string
	}{
		{"datasets.TPCH", datasets.TPCH(), "77581ba16f692b82dbacca4d5dcb288407581132a0b09013b137720c7ee0955e"},
		{"datasets.TPCDS", datasets.TPCDS(), "ce3615cd6125624e4b9447e6228e99a5ec12df1b82967d728a72487e4a536e17"},
		{"TPC-H with Options{}", tpchDefault, "6ef62a6f95d7d0c594ca13363db64a11e333c2dc777dfe32d9a363c52eee5ec9"},
	} {
		b, err := json.Marshal(c.in)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: instance sha256 %s, pinned %s", c.name, got, c.want)
		}
	}
}

// TestAllocBuildInstanceTPCDS bounds the allocations of one full TPC-DS
// build (the datasets.TPCDS options). Rescanning the universe for every
// what-if call took about 1.02M allocations per build; preparing each
// query once takes well under the ceiling.
func TestAllocBuildInstanceTPCDS(t *testing.T) {
	const ceiling = 200_000
	s, q := tpcds.Schema(), tpcds.Queries()
	opt := advisor.Options{MaxIndexes: 170, MaxPlansPerQuery: 33, MinBuildInteraction: 0.22}
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := advisor.BuildInstance("tpcds", s, q, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("TPC-DS BuildInstance: %.0f allocs (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("TPC-DS BuildInstance made %.0f allocs, ceiling %d", allocs, ceiling)
	}
}
