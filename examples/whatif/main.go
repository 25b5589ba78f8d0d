// Whatif: drive the simulated DBMS's what-if optimizer directly — the
// interface the paper's pipeline (Figure 3) is built on. Creates
// hypothetical indexes on the TPC-H schema, asks the optimizer for
// atomic configurations of Q3, and shows how removing the used indexes
// surfaces the competing (suboptimal) plans.
//
//	go run ./examples/whatif
package main

import (
	"fmt"

	"github.com/evolving-olap/idd/internal/dbsim"
	"github.com/evolving-olap/idd/internal/tpch"
)

func main() {
	schema := tpch.Schema()
	sim := dbsim.New(schema)
	q3 := tpch.Queries()[2] // customer ⋈ orders ⋈ lineitem

	universe := []dbsim.IndexDef{
		{Table: "customer", Key: []string{"c_mktsegment"}, Include: []string{"c_custkey"}},
		{Table: "orders", Key: []string{"o_custkey"}, Include: []string{"o_orderdate", "o_shippriority", "o_orderkey"}},
		{Table: "orders", Key: []string{"o_orderdate"}},
		{Table: "lineitem", Key: []string{"l_orderkey"}, Include: []string{"l_shipdate", "l_extendedprice", "l_discount"}},
		{Table: "lineitem", Key: []string{"l_shipdate"}},
	}
	for _, d := range universe {
		if err := d.Validate(schema); err != nil {
			panic(err)
		}
	}

	noIdx := sim.NoIndexCost(q3, universe)
	fmt.Printf("query %s without indexes: cost %.1f\n\n", q3.Name, noIdx)

	fmt.Println("atomic configurations (what-if enumeration):")
	for i, p := range sim.Prepare(q3, universe).EnumeratePlans(10) {
		fmt.Printf("  plan %d: cost %.1f (%.1f%% faster) using:\n", i+1, p.Cost, 100*(noIdx-p.Cost)/noIdx)
		for _, u := range p.Used {
			fmt.Printf("      %s\n", universe[u].Name())
		}
	}

	fmt.Println("\nbuild interactions among the hypothetical indexes:")
	for ti, tgt := range universe {
		for hi, hlp := range universe {
			if ti == hi {
				continue
			}
			if d := sim.BuildDiscount(tgt, hlp); d > 0 {
				full := sim.BuildCost(tgt)
				fmt.Printf("  %-42s is %4.0f%% cheaper after %s\n",
					tgt.Name(), 100*d/full, hlp.Name())
			}
		}
	}
}
