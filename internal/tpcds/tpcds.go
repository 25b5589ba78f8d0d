// Package tpcds defines the TPC-DS schema (24 tables, scale factor 1
// cardinalities) and a 102-query analytic workload. TPC-DS queries are
// far more complex than TPC-H's — multi-way star joins over seven fact
// tables — which is why the paper's design tool suggested 148 indexes and
// found plans using 13 indexes at once.
//
// The workload is a structural approximation: each of the 99 official
// queries is represented by its channel (store/catalog/web/inventory),
// the dimensions it joins, and realistic predicate selectivities, with
// three cross-channel variants appended to reach the paper's 102. The
// ordering problem only consumes optimizer estimates, so this structural
// level is what matters.
package tpcds

import (
	"fmt"

	"github.com/evolving-olap/idd/internal/sql"
)

// Schema returns the TPC-DS schema at scale factor 1.
func Schema() *sql.Schema {
	return &sql.Schema{
		Name: "tpcds",
		Tables: []*sql.Table{
			// Fact tables.
			{Name: "store_sales", Rows: 2_880_404, Columns: []sql.Column{
				{Name: "ss_sold_date_sk", Distinct: 1_823, Width: 4},
				{Name: "ss_sold_time_sk", Distinct: 43_200, Width: 4},
				{Name: "ss_item_sk", Distinct: 18_000, Width: 4},
				{Name: "ss_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "ss_cdemo_sk", Distinct: 1_000_000, Width: 4},
				{Name: "ss_hdemo_sk", Distinct: 7_200, Width: 4},
				{Name: "ss_addr_sk", Distinct: 50_000, Width: 4},
				{Name: "ss_store_sk", Distinct: 12, Width: 4},
				{Name: "ss_promo_sk", Distinct: 300, Width: 4},
				{Name: "ss_ticket_number", Distinct: 240_000, Width: 8},
				{Name: "ss_quantity", Distinct: 100, Width: 4},
				{Name: "ss_sales_price", Distinct: 20_000, Width: 8},
				{Name: "ss_ext_sales_price", Distinct: 100_000, Width: 8},
				{Name: "ss_net_profit", Distinct: 100_000, Width: 8},
				{Name: "ss_wholesale_cost", Distinct: 10_000, Width: 8},
			}},
			{Name: "store_returns", Rows: 287_999, Columns: []sql.Column{
				{Name: "sr_returned_date_sk", Distinct: 2_003, Width: 4},
				{Name: "sr_item_sk", Distinct: 18_000, Width: 4},
				{Name: "sr_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "sr_store_sk", Distinct: 12, Width: 4},
				{Name: "sr_reason_sk", Distinct: 35, Width: 4},
				{Name: "sr_ticket_number", Distinct: 240_000, Width: 8},
				{Name: "sr_return_amt", Distinct: 50_000, Width: 8},
				{Name: "sr_return_quantity", Distinct: 100, Width: 4},
			}},
			{Name: "catalog_sales", Rows: 1_441_548, Columns: []sql.Column{
				{Name: "cs_sold_date_sk", Distinct: 1_823, Width: 4},
				{Name: "cs_ship_date_sk", Distinct: 1_913, Width: 4},
				{Name: "cs_item_sk", Distinct: 18_000, Width: 4},
				{Name: "cs_bill_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "cs_bill_cdemo_sk", Distinct: 1_000_000, Width: 4},
				{Name: "cs_call_center_sk", Distinct: 6, Width: 4},
				{Name: "cs_catalog_page_sk", Distinct: 11_718, Width: 4},
				{Name: "cs_ship_mode_sk", Distinct: 20, Width: 4},
				{Name: "cs_warehouse_sk", Distinct: 5, Width: 4},
				{Name: "cs_promo_sk", Distinct: 300, Width: 4},
				{Name: "cs_order_number", Distinct: 160_000, Width: 8},
				{Name: "cs_quantity", Distinct: 100, Width: 4},
				{Name: "cs_sales_price", Distinct: 20_000, Width: 8},
				{Name: "cs_ext_sales_price", Distinct: 100_000, Width: 8},
				{Name: "cs_net_profit", Distinct: 100_000, Width: 8},
			}},
			{Name: "catalog_returns", Rows: 144_067, Columns: []sql.Column{
				{Name: "cr_returned_date_sk", Distinct: 2_003, Width: 4},
				{Name: "cr_item_sk", Distinct: 18_000, Width: 4},
				{Name: "cr_returning_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "cr_call_center_sk", Distinct: 6, Width: 4},
				{Name: "cr_reason_sk", Distinct: 35, Width: 4},
				{Name: "cr_order_number", Distinct: 160_000, Width: 8},
				{Name: "cr_return_amount", Distinct: 50_000, Width: 8},
				{Name: "cr_return_quantity", Distinct: 100, Width: 4},
			}},
			{Name: "web_sales", Rows: 719_384, Columns: []sql.Column{
				{Name: "ws_sold_date_sk", Distinct: 1_823, Width: 4},
				{Name: "ws_ship_date_sk", Distinct: 1_913, Width: 4},
				{Name: "ws_item_sk", Distinct: 18_000, Width: 4},
				{Name: "ws_bill_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "ws_web_site_sk", Distinct: 30, Width: 4},
				{Name: "ws_web_page_sk", Distinct: 60, Width: 4},
				{Name: "ws_ship_mode_sk", Distinct: 20, Width: 4},
				{Name: "ws_warehouse_sk", Distinct: 5, Width: 4},
				{Name: "ws_promo_sk", Distinct: 300, Width: 4},
				{Name: "ws_order_number", Distinct: 60_000, Width: 8},
				{Name: "ws_quantity", Distinct: 100, Width: 4},
				{Name: "ws_sales_price", Distinct: 20_000, Width: 8},
				{Name: "ws_ext_sales_price", Distinct: 100_000, Width: 8},
				{Name: "ws_net_profit", Distinct: 100_000, Width: 8},
			}},
			{Name: "web_returns", Rows: 71_763, Columns: []sql.Column{
				{Name: "wr_returned_date_sk", Distinct: 2_003, Width: 4},
				{Name: "wr_item_sk", Distinct: 18_000, Width: 4},
				{Name: "wr_returning_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "wr_web_page_sk", Distinct: 60, Width: 4},
				{Name: "wr_reason_sk", Distinct: 35, Width: 4},
				{Name: "wr_order_number", Distinct: 60_000, Width: 8},
				{Name: "wr_return_amt", Distinct: 50_000, Width: 8},
				{Name: "wr_return_quantity", Distinct: 100, Width: 4},
			}},
			{Name: "inventory", Rows: 11_745_000, Columns: []sql.Column{
				{Name: "inv_date_sk", Distinct: 261, Width: 4},
				{Name: "inv_item_sk", Distinct: 18_000, Width: 4},
				{Name: "inv_warehouse_sk", Distinct: 5, Width: 4},
				{Name: "inv_quantity_on_hand", Distinct: 1_000, Width: 4},
			}},
			// Dimension tables.
			{Name: "date_dim", Rows: 73_049, Columns: []sql.Column{
				{Name: "d_date_sk", Distinct: 73_049, Width: 4},
				{Name: "d_year", Distinct: 200, Width: 4},
				{Name: "d_moy", Distinct: 12, Width: 4},
				{Name: "d_dom", Distinct: 31, Width: 4},
				{Name: "d_qoy", Distinct: 4, Width: 4},
				{Name: "d_day_name", Distinct: 7, Width: 12},
				{Name: "d_date", Distinct: 73_049, Width: 4},
				{Name: "d_month_seq", Distinct: 2_400, Width: 4},
			}},
			{Name: "time_dim", Rows: 86_400, Columns: []sql.Column{
				{Name: "t_time_sk", Distinct: 86_400, Width: 4},
				{Name: "t_hour", Distinct: 24, Width: 4},
				{Name: "t_minute", Distinct: 60, Width: 4},
				{Name: "t_meal_time", Distinct: 4, Width: 12},
			}},
			{Name: "item", Rows: 18_000, Columns: []sql.Column{
				{Name: "i_item_sk", Distinct: 18_000, Width: 4},
				{Name: "i_item_id", Distinct: 18_000, Width: 16},
				{Name: "i_brand", Distinct: 700, Width: 24},
				{Name: "i_brand_id", Distinct: 700, Width: 4},
				{Name: "i_class", Distinct: 100, Width: 16},
				{Name: "i_category", Distinct: 10, Width: 16},
				{Name: "i_manufact_id", Distinct: 1_000, Width: 4},
				{Name: "i_manager_id", Distinct: 100, Width: 4},
				{Name: "i_color", Distinct: 90, Width: 12},
				{Name: "i_size", Distinct: 7, Width: 12},
				{Name: "i_current_price", Distinct: 1_000, Width: 8},
			}},
			{Name: "customer", Rows: 100_000, Columns: []sql.Column{
				{Name: "c_customer_sk", Distinct: 100_000, Width: 4},
				{Name: "c_customer_id", Distinct: 100_000, Width: 16},
				{Name: "c_current_addr_sk", Distinct: 50_000, Width: 4},
				{Name: "c_current_cdemo_sk", Distinct: 1_000_000, Width: 4},
				{Name: "c_current_hdemo_sk", Distinct: 7_200, Width: 4},
				{Name: "c_birth_country", Distinct: 200, Width: 16},
				{Name: "c_birth_year", Distinct: 70, Width: 4},
				{Name: "c_first_name", Distinct: 5_000, Width: 16},
				{Name: "c_last_name", Distinct: 5_000, Width: 16},
			}},
			{Name: "customer_address", Rows: 50_000, Columns: []sql.Column{
				{Name: "ca_address_sk", Distinct: 50_000, Width: 4},
				{Name: "ca_state", Distinct: 51, Width: 4},
				{Name: "ca_county", Distinct: 1_850, Width: 20},
				{Name: "ca_city", Distinct: 700, Width: 16},
				{Name: "ca_zip", Distinct: 8_000, Width: 8},
				{Name: "ca_gmt_offset", Distinct: 6, Width: 8},
			}},
			{Name: "customer_demographics", Rows: 1_920_800, Columns: []sql.Column{
				{Name: "cd_demo_sk", Distinct: 1_920_800, Width: 4},
				{Name: "cd_gender", Distinct: 2, Width: 1},
				{Name: "cd_marital_status", Distinct: 5, Width: 1},
				{Name: "cd_education_status", Distinct: 7, Width: 16},
				{Name: "cd_dep_count", Distinct: 7, Width: 4},
			}},
			{Name: "household_demographics", Rows: 7_200, Columns: []sql.Column{
				{Name: "hd_demo_sk", Distinct: 7_200, Width: 4},
				{Name: "hd_income_band_sk", Distinct: 20, Width: 4},
				{Name: "hd_buy_potential", Distinct: 6, Width: 12},
				{Name: "hd_dep_count", Distinct: 10, Width: 4},
				{Name: "hd_vehicle_count", Distinct: 6, Width: 4},
			}},
			{Name: "store", Rows: 12, Columns: []sql.Column{
				{Name: "s_store_sk", Distinct: 12, Width: 4},
				{Name: "s_store_name", Distinct: 12, Width: 16},
				{Name: "s_state", Distinct: 5, Width: 4},
				{Name: "s_county", Distinct: 8, Width: 20},
				{Name: "s_city", Distinct: 10, Width: 16},
			}},
			{Name: "call_center", Rows: 6, Columns: []sql.Column{
				{Name: "cc_call_center_sk", Distinct: 6, Width: 4},
				{Name: "cc_name", Distinct: 6, Width: 16},
				{Name: "cc_county", Distinct: 4, Width: 20},
			}},
			{Name: "catalog_page", Rows: 11_718, Columns: []sql.Column{
				{Name: "cp_catalog_page_sk", Distinct: 11_718, Width: 4},
				{Name: "cp_catalog_number", Distinct: 109, Width: 4},
				{Name: "cp_type", Distinct: 3, Width: 12},
			}},
			{Name: "web_site", Rows: 30, Columns: []sql.Column{
				{Name: "web_site_sk", Distinct: 30, Width: 4},
				{Name: "web_name", Distinct: 30, Width: 16},
			}},
			{Name: "web_page", Rows: 60, Columns: []sql.Column{
				{Name: "wp_web_page_sk", Distinct: 60, Width: 4},
				{Name: "wp_char_count", Distinct: 50, Width: 4},
			}},
			{Name: "warehouse", Rows: 5, Columns: []sql.Column{
				{Name: "w_warehouse_sk", Distinct: 5, Width: 4},
				{Name: "w_warehouse_name", Distinct: 5, Width: 20},
				{Name: "w_state", Distinct: 4, Width: 4},
			}},
			{Name: "ship_mode", Rows: 20, Columns: []sql.Column{
				{Name: "sm_ship_mode_sk", Distinct: 20, Width: 4},
				{Name: "sm_type", Distinct: 6, Width: 12},
				{Name: "sm_carrier", Distinct: 20, Width: 16},
			}},
			{Name: "reason", Rows: 35, Columns: []sql.Column{
				{Name: "r_reason_sk", Distinct: 35, Width: 4},
				{Name: "r_reason_desc", Distinct: 35, Width: 24},
			}},
			{Name: "income_band", Rows: 20, Columns: []sql.Column{
				{Name: "ib_income_band_sk", Distinct: 20, Width: 4},
				{Name: "ib_lower_bound", Distinct: 20, Width: 4},
			}},
			{Name: "promotion", Rows: 300, Columns: []sql.Column{
				{Name: "p_promo_sk", Distinct: 300, Width: 4},
				{Name: "p_channel_email", Distinct: 2, Width: 1},
				{Name: "p_channel_tv", Distinct: 2, Width: 1},
			}},
		},
	}
}

func cr(t, c string) sql.ColRef { return sql.ColRef{Table: t, Column: c} }

// channel describes one fact table's foreign keys and measures.
type channel struct {
	fact     string
	dateFK   string
	itemFK   string
	custFK   string
	storeFK  string // channel-specific outlet dim FK ("" = none)
	storeDim string
	storePK  string
	measures []string
}

var channels = []channel{
	{"store_sales", "ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk", "store", "s_store_sk",
		[]string{"ss_quantity", "ss_ext_sales_price", "ss_net_profit"}},
	{"catalog_sales", "cs_sold_date_sk", "cs_item_sk", "cs_bill_customer_sk", "cs_call_center_sk", "call_center", "cc_call_center_sk",
		[]string{"cs_quantity", "cs_ext_sales_price", "cs_net_profit"}},
	{"web_sales", "ws_sold_date_sk", "ws_item_sk", "ws_bill_customer_sk", "ws_web_site_sk", "web_site", "web_site_sk",
		[]string{"ws_quantity", "ws_ext_sales_price", "ws_net_profit"}},
}

var returnsChannels = []channel{
	{"store_returns", "sr_returned_date_sk", "sr_item_sk", "sr_customer_sk", "sr_store_sk", "store", "s_store_sk",
		[]string{"sr_return_amt", "sr_return_quantity"}},
	{"catalog_returns", "cr_returned_date_sk", "cr_item_sk", "cr_returning_customer_sk", "cr_call_center_sk", "call_center", "cc_call_center_sk",
		[]string{"cr_return_amount", "cr_return_quantity"}},
	{"web_returns", "wr_returned_date_sk", "wr_item_sk", "wr_returning_customer_sk", "wr_web_page_sk", "web_page", "wp_web_page_sk",
		[]string{"wr_return_amt", "wr_return_quantity"}},
}

// datePredicates are the rotation of date_dim filters the official
// queries use (a year, a month of a year, a quarter, ...).
var datePredicates = [][]sql.Predicate{
	{{Col: cr("date_dim", "d_year"), Kind: sql.Eq, Selectivity: 0.025}},
	{{Col: cr("date_dim", "d_year"), Kind: sql.Eq, Selectivity: 0.025},
		{Col: cr("date_dim", "d_moy"), Kind: sql.Eq, Selectivity: 0.083}},
	{{Col: cr("date_dim", "d_month_seq"), Kind: sql.Range, Selectivity: 0.005}},
	{{Col: cr("date_dim", "d_year"), Kind: sql.Eq, Selectivity: 0.025},
		{Col: cr("date_dim", "d_qoy"), Kind: sql.Eq, Selectivity: 0.25}},
	{{Col: cr("date_dim", "d_date"), Kind: sql.Range, Selectivity: 0.0041}},
}

// itemPredicates rotate over the item attributes the official queries
// filter on (category, brand, manufacturer, color, price band).
var itemPredicates = [][]sql.Predicate{
	{{Col: cr("item", "i_category"), Kind: sql.Eq, Selectivity: 0.1}},
	{{Col: cr("item", "i_brand_id"), Kind: sql.Eq, Selectivity: 0.0014}},
	{{Col: cr("item", "i_manufact_id"), Kind: sql.Eq, Selectivity: 0.001}},
	{{Col: cr("item", "i_manager_id"), Kind: sql.Eq, Selectivity: 0.01}},
	{{Col: cr("item", "i_color"), Kind: sql.Eq, Selectivity: 0.011},
		{Col: cr("item", "i_size"), Kind: sql.Eq, Selectivity: 0.14}},
	{{Col: cr("item", "i_category"), Kind: sql.Eq, Selectivity: 0.1},
		{Col: cr("item", "i_class"), Kind: sql.Eq, Selectivity: 0.01}},
	{{Col: cr("item", "i_current_price"), Kind: sql.Range, Selectivity: 0.2}},
}

// extraDim is an optional additional dimension block.
type extraDim struct {
	dim    string
	pk     string
	factFK map[string]string // fact table -> FK column
	preds  []sql.Predicate
	group  string // group-by column ("" = none)
}

var extraDims = []extraDim{
	{
		dim: "customer_demographics", pk: "cd_demo_sk",
		factFK: map[string]string{"store_sales": "ss_cdemo_sk", "catalog_sales": "cs_bill_cdemo_sk"},
		preds: []sql.Predicate{
			{Col: cr("customer_demographics", "cd_gender"), Kind: sql.Eq, Selectivity: 0.5},
			{Col: cr("customer_demographics", "cd_marital_status"), Kind: sql.Eq, Selectivity: 0.2},
			{Col: cr("customer_demographics", "cd_education_status"), Kind: sql.Eq, Selectivity: 0.14},
		},
	},
	{
		dim: "household_demographics", pk: "hd_demo_sk",
		factFK: map[string]string{"store_sales": "ss_hdemo_sk"},
		preds: []sql.Predicate{
			{Col: cr("household_demographics", "hd_buy_potential"), Kind: sql.Eq, Selectivity: 0.17},
			{Col: cr("household_demographics", "hd_dep_count"), Kind: sql.Eq, Selectivity: 0.1},
		},
	},
	{
		dim: "customer_address", pk: "ca_address_sk",
		factFK: map[string]string{"store_sales": "ss_addr_sk"},
		preds: []sql.Predicate{
			{Col: cr("customer_address", "ca_state"), Kind: sql.Eq, Selectivity: 0.02},
			{Col: cr("customer_address", "ca_gmt_offset"), Kind: sql.Eq, Selectivity: 0.17},
		},
		group: "ca_state",
	},
	{
		dim: "promotion", pk: "p_promo_sk",
		factFK: map[string]string{"store_sales": "ss_promo_sk", "catalog_sales": "cs_promo_sk", "web_sales": "ws_promo_sk"},
		preds: []sql.Predicate{
			{Col: cr("promotion", "p_channel_email"), Kind: sql.Eq, Selectivity: 0.5},
		},
	},
	{
		dim: "ship_mode", pk: "sm_ship_mode_sk",
		factFK: map[string]string{"catalog_sales": "cs_ship_mode_sk", "web_sales": "ws_ship_mode_sk"},
		preds: []sql.Predicate{
			{Col: cr("ship_mode", "sm_type"), Kind: sql.Eq, Selectivity: 0.17},
		},
	},
	{
		dim: "warehouse", pk: "w_warehouse_sk",
		factFK: map[string]string{"catalog_sales": "cs_warehouse_sk", "web_sales": "ws_warehouse_sk", "inventory": "inv_warehouse_sk"},
		preds: []sql.Predicate{
			{Col: cr("warehouse", "w_state"), Kind: sql.Eq, Selectivity: 0.25},
		},
		group: "w_warehouse_name",
	},
}

// Queries returns the 102-query workload (99 rotation-generated star
// queries named after the official templates plus 3 cross-channel
// variants).
func Queries() []*sql.Query {
	var out []*sql.Query
	for n := 1; n <= 99; n++ {
		out = append(out, starQuery(n))
	}
	// 3 cross-channel variants (the tool configurations the paper
	// mentions produced 100+ queries).
	out = append(out, crossChannel("q100", channels[0], returnsChannels[0]))
	out = append(out, crossChannel("q101", channels[1], returnsChannels[1]))
	out = append(out, crossChannel("q102", channels[2], returnsChannels[2]))
	return out
}

// starQuery deterministically derives query n's structure: channel,
// date/item filters, outlet dim, customer block and extra dims rotate
// with different periods so the 99 queries cover a rich variety of
// shapes — mirroring how the official workload reuses a fixed vocabulary
// of dimension blocks.
func starQuery(n int) *sql.Query {
	q := &sql.Query{Name: fmt.Sprintf("q%d", n)}

	// Inventory queries (the official q21, q22, q37, q39, q72, q82
	// family) every 17th query.
	if n%17 == 4 {
		q.Tables = []string{"inventory", "date_dim", "item", "warehouse"}
		q.Joins = []sql.Join{
			{Left: cr("inventory", "inv_date_sk"), Right: cr("date_dim", "d_date_sk")},
			{Left: cr("inventory", "inv_item_sk"), Right: cr("item", "i_item_sk")},
			{Left: cr("inventory", "inv_warehouse_sk"), Right: cr("warehouse", "w_warehouse_sk")},
		}
		q.Predicates = append(q.Predicates, datePredicates[n%len(datePredicates)]...)
		q.Predicates = append(q.Predicates, itemPredicates[n%len(itemPredicates)]...)
		q.GroupBy = []sql.ColRef{cr("item", "i_item_id")}
		q.Select = []sql.ColRef{cr("inventory", "inv_quantity_on_hand")}
		return q
	}

	var ch channel
	if n%11 == 7 { // returns-side queries (q1, q30, q81 family)
		ch = returnsChannels[n%3]
	} else {
		ch = channels[n%3]
	}
	q.Tables = []string{ch.fact, "date_dim", "item"}
	q.Joins = []sql.Join{
		{Left: cr(ch.fact, ch.dateFK), Right: cr("date_dim", "d_date_sk")},
		{Left: cr(ch.fact, ch.itemFK), Right: cr("item", "i_item_sk")},
	}
	q.Predicates = append(q.Predicates, datePredicates[n%len(datePredicates)]...)
	q.Predicates = append(q.Predicates, itemPredicates[(n/2)%len(itemPredicates)]...)
	for _, m := range ch.measures {
		q.Select = append(q.Select, cr(ch.fact, m))
	}

	// Outlet dimension (store / call_center / web_site) on a 3-of-4
	// rotation.
	if n%4 != 1 {
		q.Tables = append(q.Tables, ch.storeDim)
		q.Joins = append(q.Joins, sql.Join{Left: cr(ch.fact, ch.storeFK), Right: cr(ch.storeDim, ch.storePK)})
	}
	// Customer block with address every 5th query.
	if n%5 == 2 || n%5 == 3 {
		q.Tables = append(q.Tables, "customer")
		q.Joins = append(q.Joins, sql.Join{Left: cr(ch.fact, ch.custFK), Right: cr("customer", "c_customer_sk")})
		if n%5 == 3 {
			q.Tables = append(q.Tables, "customer_address")
			q.Joins = append(q.Joins, sql.Join{
				Left: cr("customer", "c_current_addr_sk"), Right: cr("customer_address", "ca_address_sk")})
			q.Predicates = append(q.Predicates,
				sql.Predicate{Col: cr("customer_address", "ca_state"), Kind: sql.Eq, Selectivity: 0.02})
		}
	}
	// Extra dimension blocks rotate with period 7; a second one with
	// period 13 for the widest queries.
	attachExtra := func(k int) {
		ed := extraDims[k%len(extraDims)]
		fk, ok := ed.factFK[ch.fact]
		if !ok {
			return
		}
		for _, tn := range q.Tables {
			if tn == ed.dim {
				return
			}
		}
		q.Tables = append(q.Tables, ed.dim)
		q.Joins = append(q.Joins, sql.Join{Left: cr(ch.fact, fk), Right: cr(ed.dim, ed.pk)})
		q.Predicates = append(q.Predicates, ed.preds[k%len(ed.preds)])
		if ed.group != "" && len(q.GroupBy) == 0 {
			q.GroupBy = []sql.ColRef{cr(ed.dim, ed.group)}
		}
	}
	if n%7 != 0 {
		attachExtra(n)
	}
	if n%13 == 5 || n%13 == 9 {
		attachExtra(n/2 + 3)
	}

	// Group-by rotation when nothing set one yet.
	if len(q.GroupBy) == 0 {
		switch n % 3 {
		case 0:
			q.GroupBy = []sql.ColRef{cr("item", "i_brand_id")}
		case 1:
			q.GroupBy = []sql.ColRef{cr("item", "i_item_id")}
		default:
			q.GroupBy = []sql.ColRef{cr("date_dim", "d_year"), cr("date_dim", "d_moy")}
		}
	}
	return q
}

// crossChannel joins a sales fact to its returns fact (the official
// q17/q25/q29/q64 family): sales joined to returns on item+customer plus
// both date dims collapsed to one.
func crossChannel(name string, sales, returns channel) *sql.Query {
	q := &sql.Query{Name: name}
	q.Tables = []string{sales.fact, returns.fact, "date_dim", "item", "customer"}
	q.Joins = []sql.Join{
		{Left: cr(sales.fact, sales.itemFK), Right: cr(returns.fact, returns.itemFK)},
		{Left: cr(sales.fact, sales.custFK), Right: cr(returns.fact, returns.custFK)},
		{Left: cr(sales.fact, sales.dateFK), Right: cr("date_dim", "d_date_sk")},
		{Left: cr(sales.fact, sales.itemFK), Right: cr("item", "i_item_sk")},
		{Left: cr(sales.fact, sales.custFK), Right: cr("customer", "c_customer_sk")},
	}
	q.Predicates = []sql.Predicate{
		{Col: cr("date_dim", "d_year"), Kind: sql.Eq, Selectivity: 0.025},
		{Col: cr("item", "i_category"), Kind: sql.Eq, Selectivity: 0.1},
	}
	q.GroupBy = []sql.ColRef{cr("item", "i_item_id")}
	for _, m := range sales.measures[:2] {
		q.Select = append(q.Select, cr(sales.fact, m))
	}
	for _, m := range returns.measures[:1] {
		q.Select = append(q.Select, cr(returns.fact, m))
	}
	return q
}
