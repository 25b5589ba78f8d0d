package dbsim

import (
	"testing"

	"github.com/evolving-olap/idd/internal/sql"
)

// testSchema: one big fact table and one small dimension.
func testSchema() *sql.Schema {
	return &sql.Schema{
		Name: "test",
		Tables: []*sql.Table{
			{
				Name: "sales", Rows: 1_000_000,
				Columns: []sql.Column{
					{Name: "sale_id", Distinct: 1_000_000, Width: 8},
					{Name: "cust_id", Distinct: 50_000, Width: 8},
					{Name: "item_id", Distinct: 10_000, Width: 8},
					{Name: "amount", Distinct: 100_000, Width: 8},
					{Name: "sale_date", Distinct: 2_000, Width: 8},
				},
			},
			{
				Name: "customer", Rows: 50_000,
				Columns: []sql.Column{
					{Name: "cust_id", Distinct: 50_000, Width: 8},
					{Name: "country", Distinct: 50, Width: 16},
					{Name: "name", Distinct: 50_000, Width: 32},
				},
			},
		},
	}
}

func scanQuery() *sql.Query {
	return &sql.Query{
		Name:   "scan",
		Tables: []string{"sales"},
		Predicates: []sql.Predicate{
			{Col: sql.ColRef{Table: "sales", Column: "cust_id"}, Kind: sql.Eq, Selectivity: 0.00002},
		},
		Select: []sql.ColRef{{Table: "sales", Column: "amount"}},
	}
}

func joinQuery() *sql.Query {
	return &sql.Query{
		Name:   "join",
		Tables: []string{"sales", "customer"},
		Predicates: []sql.Predicate{
			{Col: sql.ColRef{Table: "customer", Column: "country"}, Kind: sql.Eq, Selectivity: 0.02},
		},
		Joins: []sql.Join{{
			Left:  sql.ColRef{Table: "sales", Column: "cust_id"},
			Right: sql.ColRef{Table: "customer", Column: "cust_id"},
		}},
		GroupBy: []sql.ColRef{{Table: "customer", Column: "country"}},
		Select:  []sql.ColRef{{Table: "sales", Column: "amount"}},
	}
}

func TestIndexDefBasics(t *testing.T) {
	s := testSchema()
	d := IndexDef{Table: "sales", Key: []string{"cust_id"}, Include: []string{"amount"}}
	if err := d.Validate(s); err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ix_sales_cust_id_inc_amount" {
		t.Errorf("Name = %q", d.Name())
	}
	if !d.Equal(d) {
		t.Error("Equal is not reflexive")
	}
	if d.Equal(IndexDef{Table: "sales", Key: []string{"item_id"}}) {
		t.Error("different defs reported equal")
	}
	bad := []IndexDef{
		{Table: "nope", Key: []string{"x"}},
		{Table: "sales", Key: nil},
		{Table: "sales", Key: []string{"bogus"}},
		{Table: "sales", Key: []string{"cust_id", "cust_id"}},
	}
	for _, b := range bad {
		if err := b.Validate(s); err == nil {
			t.Errorf("invalid def accepted: %+v", b)
		}
	}
}

func TestSelectiveIndexBeatsScan(t *testing.T) {
	sim := New(testSchema())
	q := scanQuery()
	uni := []IndexDef{{Table: "sales", Key: []string{"cust_id"}}}
	avail := []bool{true}
	plan := sim.BestPlan(q, uni, avail)
	noIdx := sim.NoIndexCost(q, uni)
	if len(plan.Used) != 1 || plan.Used[0] != 0 {
		t.Fatalf("selective index not chosen: %+v", plan)
	}
	if plan.Cost >= noIdx {
		t.Fatalf("index plan %v not cheaper than scan %v", plan.Cost, noIdx)
	}
}

func TestCoveringIndexBeatsNonCovering(t *testing.T) {
	sim := New(testSchema())
	q := scanQuery()
	uni := []IndexDef{
		{Table: "sales", Key: []string{"cust_id"}},
		{Table: "sales", Key: []string{"cust_id"}, Include: []string{"amount"}},
	}
	plan := sim.BestPlan(q, uni, []bool{true, true})
	if len(plan.Used) != 1 || plan.Used[0] != 1 {
		t.Fatalf("covering index not preferred: %+v", plan)
	}
	// The competing interaction: with only the narrow index available the
	// optimizer settles for it.
	plan2 := sim.BestPlan(q, uni, []bool{true, false})
	if len(plan2.Used) != 1 || plan2.Used[0] != 0 {
		t.Fatalf("fallback to narrow index failed: %+v", plan2)
	}
	if plan.Cost >= plan2.Cost {
		t.Error("covering plan should be cheaper")
	}
}

func TestJoinUsesIndexNestedLoops(t *testing.T) {
	sim := New(testSchema())
	q := joinQuery()
	uni := []IndexDef{
		{Table: "sales", Key: []string{"cust_id"}, Include: []string{"amount"}},
	}
	with := sim.BestPlan(q, uni, []bool{true})
	without := sim.BestPlan(q, uni, []bool{false})
	if with.Cost >= without.Cost {
		t.Fatalf("join index did not help: %v vs %v", with.Cost, without.Cost)
	}
	if len(with.Used) == 0 {
		t.Fatal("join index not reported as used")
	}
}

func TestSortAvoidance(t *testing.T) {
	sim := New(testSchema())
	q := &sql.Query{
		Name:    "sorted",
		Tables:  []string{"customer"},
		OrderBy: []sql.ColRef{{Table: "customer", Column: "country"}},
		Select:  []sql.ColRef{{Table: "customer", Column: "name"}},
	}
	uni := []IndexDef{{Table: "customer", Key: []string{"country"}, Include: []string{"name"}}}
	with := sim.BestPlan(q, uni, []bool{true})
	without := sim.BestPlan(q, uni, []bool{false})
	if with.Cost >= without.Cost {
		t.Fatalf("sort-avoiding index did not help: %v vs %v", with.Cost, without.Cost)
	}
}

func TestBuildDiscounts(t *testing.T) {
	sim := New(testSchema())
	narrow := IndexDef{Table: "sales", Key: []string{"cust_id"}}
	wide := IndexDef{Table: "sales", Key: []string{"cust_id", "sale_date"}, Include: []string{"amount"}}
	other := IndexDef{Table: "customer", Key: []string{"country"}}

	// Narrow from wide: covered and prefix-sorted — the big discount.
	d1 := sim.BuildDiscount(narrow, wide)
	if d1 <= 0 {
		t.Fatal("no discount building narrow from wide")
	}
	bc := sim.BuildCost(narrow)
	if d1 >= bc {
		t.Fatalf("discount %v >= build cost %v", d1, bc)
	}
	if ratio := d1 / bc; ratio < 0.4 {
		t.Errorf("narrow-from-wide discount only %.0f%% (paper observes up to 80%%)", 100*ratio)
	}
	// Wide from narrow: shared leading column only — partial discount.
	d2 := sim.BuildDiscount(wide, narrow)
	if d2 <= 0 || d2 >= d1 {
		t.Errorf("partial discount %v should be positive and below %v", d2, d1)
	}
	// Cross-table: nothing.
	if d := sim.BuildDiscount(narrow, other); d != 0 {
		t.Errorf("cross-table discount %v", d)
	}
}

func TestEnumeratePlansProducesCompetingConfigurations(t *testing.T) {
	sim := New(testSchema())
	q := joinQuery()
	uni := []IndexDef{
		{Table: "sales", Key: []string{"cust_id"}},
		{Table: "sales", Key: []string{"cust_id"}, Include: []string{"amount"}},
		{Table: "customer", Key: []string{"country"}, Include: []string{"cust_id"}},
		{Table: "customer", Key: []string{"cust_id"}},
	}
	plans := sim.Prepare(q, uni).EnumeratePlans(20)
	if len(plans) < 2 {
		t.Fatalf("expected multiple atomic configurations, got %d", len(plans))
	}
	noIdx := sim.NoIndexCost(q, uni)
	seen := map[string]bool{}
	for _, p := range plans {
		if p.Cost >= noIdx {
			t.Errorf("plan %+v not better than no-index cost %v", p, noIdx)
		}
		if len(p.Used) == 0 {
			t.Error("plan with no indexes recorded")
		}
		k := intsKey(p.Used)
		if seen[k] {
			t.Error("duplicate plan emitted")
		}
		seen[k] = true
	}
}

func TestPagesOfNeverZero(t *testing.T) {
	if pagesOf(0, 8) < 1 || pagesOf(1, 100000) < 1 {
		t.Error("page estimates must be at least 1")
	}
}
