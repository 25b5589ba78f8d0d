// Package mip implements the time-indexed mixed-integer programming
// formulation of Appendix B and a branch-and-bound solver over the LP
// relaxation (internal/solver/lp). It reproduces the paper's negative
// result faithfully: discretizing time into |D| steps loses accuracy and
// multiplies variables (the paper reports >1M variables after presolve
// on TPC-DS), the relaxation is weak because the min/max and product
// structures linearize poorly, and branch-and-bound degenerates. Use it
// on tiny instances only; Build reports the variable/row blow-up for the
// scaling experiments.
package mip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/evolving-olap/idd/internal/constraint"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/solver/lp"
)

// Options configures formulation and search.
type Options struct {
	// TimestepsPerIndex sets |D| = TimestepsPerIndex * |I| (paper: 20;
	// default here 4 to keep the dense LP tractable).
	TimestepsPerIndex int
	// NodeLimit caps branch-and-bound nodes (0 = 1000).
	NodeLimit int
	// Context, when non-nil, aborts the search when done: it is checked
	// per branch-and-bound node and before every LP pivot. A deadline
	// rides on it (context.WithDeadline).
	Context context.Context
	// Incumbent, when non-nil, is polled per node with the current exact
	// incumbent objective; a strictly better externally-known order (the
	// portfolio's shared incumbent) is adopted, which also tightens the
	// discretized bound used for pruning.
	Incumbent func(than float64) ([]int, float64)
	// OnIncumbent, when non-nil, is invoked whenever the exact-objective
	// incumbent improves (with a copy of the order).
	OnIncumbent func(order []int, objective float64)
}

// Formulation is the built LP with variable metadata.
type Formulation struct {
	Problem *lp.Problem
	// Binary marks 0/1 variables (branching candidates).
	Binary []bool
	// AStart is the column of A_i (start timestep of index i).
	AStart []int
	// BVar[i][j] is the column of B_ij (i precedes j), or -1 when i==j.
	BVar [][]int
	// Vars and Rows are the formulation size (the blow-up the paper
	// complains about).
	Vars, Rows int
	// D is the number of timesteps.
	D int
	// CostScale converts original cost units into timesteps.
	CostScale float64
}

// Result of the branch-and-bound run.
type Result struct {
	// Order is the best deployment order extracted (by sorting A_i of
	// the incumbent); nil if no integral solution was reached.
	Order []int
	// Objective is Order's exact objective in original units (computed
	// by the exact evaluator, not the discretized LP).
	Objective float64
	// Bound is the discretized root LP bound.
	Bound float64
	// Proved reports whether B&B exhausted the tree (optimal w.r.t. the
	// discretized model — the discretization itself still loses
	// accuracy, as §6.1 discusses).
	Proved bool
	// Nodes is the number of B&B nodes solved.
	Nodes int
	// Vars and Rows echo the formulation size.
	Vars, Rows int
}

// Build constructs the Appendix B formulation for the instance, adding
// precedence edges from cs as fixed B variables (the "MIP+" variant of
// Table 5 when cs carries §5 analysis constraints).
func Build(c *model.Compiled, cs *constraint.Set, opt Options) *Formulation {
	n := c.N
	tpi := opt.TimestepsPerIndex
	if tpi == 0 {
		tpi = 4
	}
	D := tpi * n
	scale := float64(D) / c.Inst.TotalCreateCost()

	// Column layout.
	var cols int
	alloc := func(k int) int { s := cols; cols += k; return s }
	aCol := alloc(n) // A_i: start timestep, continuous in [0,D]
	cCol := alloc(n) // C_i: build duration in timesteps
	bVar := make([][]int, n)
	for i := 0; i < n; i++ {
		bVar[i] = make([]int, n)
		for j := 0; j < n; j++ {
			if i == j {
				bVar[i][j] = -1
			} else {
				bVar[i][j] = alloc(1)
			}
		}
	}
	zBase := alloc(n * D)
	zCol := func(i, d int) int { return zBase + i*D + d }
	doneBase := alloc(D)
	// Y variables: one per (plan, d).
	yBase := alloc(len(c.PlanIdx) * D)
	yCol := func(p, d int) int { return yBase + p*D + d }
	// CY variables: one per build interaction.
	cyCol := make(map[[2]int]int)
	for i := 0; i < n; i++ {
		for _, h := range c.Helpers[i] {
			cyCol[[2]int{i, h.Helper}] = alloc(1)
		}
	}

	f := &Formulation{
		Binary:    make([]bool, cols),
		AStart:    make([]int, n),
		BVar:      bVar,
		D:         D,
		CostScale: scale,
	}
	for i := 0; i < n; i++ {
		f.AStart[i] = aCol + i
	}
	markBinary := func(from, count int) {
		for k := 0; k < count; k++ {
			f.Binary[from+k] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				f.Binary[bVar[i][j]] = true
			}
		}
	}
	markBinary(zBase, n*D)
	markBinary(doneBase, D)
	markBinary(yBase, len(c.PlanIdx)*D)
	for _, col := range cyCol {
		f.Binary[col] = true
	}

	p := &lp.Problem{C: make([]float64, cols)}
	addRow := func(coef map[int]float64, op lp.Rel, b float64) {
		row := make([]float64, cols)
		for k, v := range coef {
			row[k] = v
		}
		p.A = append(p.A, row)
		p.Op = append(p.Op, op)
		p.B = append(p.B, b)
	}

	// Objective: sum_{q,d} X_qd = sum_{q,d} qtime_q
	//            - sum_{p,d} qspdup_p Y_pd - sum_d done_d * sum_q qtime_q.
	var totalQtime float64
	for q := range c.Inst.Queries {
		totalQtime += c.Inst.Queries[q].Runtime * c.Inst.QueryWeight(q)
	}
	for pi := range c.PlanIdx {
		for d := 0; d < D; d++ {
			p.C[yCol(pi, d)] = -c.PlanSpd[pi]
		}
	}
	for d := 0; d < D; d++ {
		p.C[doneBase+d] = -totalQtime
	}

	// (13) B_ij + B_ji = 1.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			addRow(map[int]float64{bVar[i][j]: 1, bVar[j][i]: 1}, lp.EQ, 1)
		}
	}
	// (14) transitivity: B_ik <= B_ij + B_jk.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if i == j || j == k || i == k {
					continue
				}
				addRow(map[int]float64{bVar[i][k]: 1, bVar[i][j]: -1, bVar[j][k]: -1}, lp.LE, 0)
			}
		}
	}
	// (15) A_i + C_i - A_j + D*B_ij <= D.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			addRow(map[int]float64{aCol + i: 1, cCol + i: 1, aCol + j: -1, bVar[i][j]: float64(D)}, lp.LE, float64(D))
		}
	}
	// Everything finishes: A_i + C_i <= D.
	for i := 0; i < n; i++ {
		addRow(map[int]float64{aCol + i: 1, cCol + i: 1}, lp.LE, float64(D))
	}
	// (16) per query and timestep: sum_p Y + done <= 1 (the empty plan
	// absorbs the remainder implicitly).
	for q := range c.PlansOfQuery {
		for d := 0; d < D; d++ {
			coef := map[int]float64{doneBase + d: 1}
			for _, pi := range c.PlansOfQuery[q] {
				coef[yCol(pi, d)] = 1
			}
			addRow(coef, lp.LE, 1)
		}
	}
	// (17) Y_pd <= Z_id for i in p.
	for pi, idx := range c.PlanIdx {
		for _, i := range idx {
			for d := 0; d < D; d++ {
				addRow(map[int]float64{yCol(pi, d): 1, zCol(i, d): -1}, lp.LE, 0)
			}
		}
	}
	// done_d <= Z_id for all i (the paper's imaginary all-index plan).
	for i := 0; i < n; i++ {
		for d := 0; d < D; d++ {
			addRow(map[int]float64{doneBase + d: 1, zCol(i, d): -1}, lp.LE, 0)
		}
	}
	// (20) A_i + C_i + D*Z_id <= D + d.
	for i := 0; i < n; i++ {
		for d := 0; d < D; d++ {
			addRow(map[int]float64{aCol + i: 1, cCol + i: 1, zCol(i, d): float64(D)}, lp.LE, float64(D+d))
		}
	}
	// (21) sum_j CY_ij <= 1; (22) CY_ij <= B_ji;
	// (23) C_i = ctime_i*scale - sum_j cspdup(i,j)*scale * CY_ij.
	for i := 0; i < n; i++ {
		coefSum := map[int]float64{}
		coefC := map[int]float64{cCol + i: 1}
		for _, h := range c.Helpers[i] {
			col := cyCol[[2]int{i, h.Helper}]
			coefSum[col] = 1
			coefC[col] = h.Speedup * scale
			addRow(map[int]float64{col: 1, bVar[h.Helper][i]: -1}, lp.LE, 0)
		}
		if len(coefSum) > 0 {
			addRow(coefSum, lp.LE, 1)
		}
		addRow(coefC, lp.EQ, c.CreateCost[i]*scale)
	}
	// Strengthening cuts (CPLEX derives comparable ones in presolve; the
	// raw Appendix B relaxation is too weak for branch-and-bound to close
	// even tiny trees). minCostS_i is index i's best-case build time in
	// timesteps — a constant — so all three cut families are linear:
	//   (a) a build cannot start before its predecessors' best-case work:
	//       A_i >= sum_j minCostS_j * B_ji;
	//   (b) an index cannot be available before its own best-case build
	//       plus its predecessors' (Z_id = 0 for small d);
	//   (c) the workload cannot be "done" before everything's best-case
	//       work has been paid (done_d = 0 for small d).
	minCostS := make([]float64, n)
	var minTotal float64
	for i := 0; i < n; i++ {
		best := 0.0
		for _, h := range c.Helpers[i] {
			if h.Speedup > best {
				best = h.Speedup
			}
		}
		minCostS[i] = (c.CreateCost[i] - best) * scale
		minTotal += minCostS[i]
	}
	for i := 0; i < n; i++ {
		coef := map[int]float64{aCol + i: -1}
		for j := 0; j < n; j++ {
			if j != i {
				coef[bVar[j][i]] = minCostS[j]
			}
		}
		addRow(coef, lp.LE, 0)
		for d := 0; d < D && float64(d) < minCostS[i]; d++ {
			addRow(map[int]float64{zCol(i, d): 1}, lp.LE, 0)
		}
	}
	for d := 0; d < D && float64(d) < minTotal; d++ {
		addRow(map[int]float64{doneBase + d: 1}, lp.LE, 0)
	}
	// Binary upper bounds.
	for col, isBin := range f.Binary {
		if isBin {
			addRow(map[int]float64{col: 1}, lp.LE, 1)
		}
	}
	// Analysis constraints: fixed precedence B_ij = 1.
	if cs != nil {
		for _, e := range cs.Edges() {
			addRow(map[int]float64{bVar[e[0]][e[1]]: 1}, lp.EQ, 1)
		}
	}

	f.Problem = p
	f.Vars = cols
	f.Rows = len(p.A)
	return f
}

// EstimateSize predicts the dense formulation's variable and row counts
// without building it, so callers can refuse hopeless instances.
func EstimateSize(c *model.Compiled, opt Options) (vars, rows int) {
	n := c.N
	tpi := opt.TimestepsPerIndex
	if tpi == 0 {
		tpi = 4
	}
	D := tpi * n
	vars = 2*n + n*(n-1) + n*D + D + len(c.PlanIdx)*D + len(c.Inst.BuildInteractions)
	planCells := 0
	for _, idx := range c.PlanIdx {
		planCells += len(idx)
	}
	rows = n*(n-1)/2 + n*(n-1)*(n-2) + n*(n-1) + n +
		len(c.PlansOfQuery)*D + planCells*D + n*D + n*D +
		2*n + len(c.Inst.BuildInteractions) + vars + n + D
	return vars, rows
}

// maxTableauCells caps the dense LP size Solve will attempt (~1.6 GB of
// float64 cells). The paper's CPLEX ran out of memory on large
// instances; a dense tableau hits the wall much earlier.
const maxTableauCells = 2e8

// Solve builds the formulation and runs depth-first branch-and-bound on
// the binary variables. The incumbent objective is always evaluated with
// the exact (continuous) model, so the returned Objective is directly
// comparable with the other solvers.
func Solve(c *model.Compiled, cs *constraint.Set, opt Options) (Result, error) {
	if v, r := EstimateSize(c, opt); float64(v)*float64(r) > maxTableauCells {
		return Result{Vars: v, Rows: r}, fmt.Errorf(
			"mip: formulation too large (%d vars x %d rows); the time-indexed model does not scale — use the CP solver", v, r)
	}
	f := Build(c, cs, opt)
	nodeLimit := opt.NodeLimit
	if nodeLimit == 0 {
		nodeLimit = 1000
	}
	res := Result{Vars: f.Vars, Rows: f.Rows, Objective: math.Inf(1), Bound: math.Inf(-1)}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}

	base := f.Problem
	type fixing struct {
		col int
		val float64
	}
	var incumbentLP = math.Inf(1)
	var rec func(fixings []fixing) error
	aborted := false

	solveWith := func(fixings []fixing) (lp.Solution, error) {
		// Copy-on-extend: share row contents, append fixing rows.
		p := &lp.Problem{
			C:  base.C,
			A:  append([][]float64(nil), base.A...),
			Op: append([]lp.Rel(nil), base.Op...),
			B:  append([]float64(nil), base.B...),
		}
		for _, fx := range fixings {
			row := make([]float64, f.Vars)
			row[fx.col] = 1
			p.A = append(p.A, row)
			p.Op = append(p.Op, lp.EQ)
			p.B = append(p.B, fx.val)
		}
		return lp.SolveContext(ctx, p)
	}

	// accept records an order as the incumbent in both objective spaces:
	// the exact (continuous) model for reporting, and the discretized
	// model for LP-bound pruning. own marks the solver's own discoveries;
	// adopted external incumbents are not re-published via OnIncumbent.
	accept := func(order []int, own bool) {
		if constraint.CheckOrder(c.N, cs, order) != nil {
			return
		}
		if dObj := discreteObjective(c, f, order); dObj < incumbentLP {
			incumbentLP = dObj
		}
		if obj := c.Objective(order); obj < res.Objective {
			res.Objective = obj
			res.Order = order
			if own && opt.OnIncumbent != nil {
				opt.OnIncumbent(append([]int(nil), order...), obj)
			}
		}
	}

	rec = func(fixings []fixing) error {
		if res.Nodes >= nodeLimit || ctx.Err() != nil {
			aborted = true
			return nil
		}
		if opt.Incumbent != nil {
			if ext, _ := opt.Incumbent(res.Objective); ext != nil {
				accept(ext, false)
			}
		}
		res.Nodes++
		sol, err := solveWith(fixings)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				aborted = true
				return nil
			}
			return err
		}
		if sol.Status != lp.Optimal {
			return nil // infeasible branch
		}
		if len(fixings) == 0 {
			res.Bound = sol.Obj
		}
		if sol.Obj >= incumbentLP-1e-7 {
			return nil // bound
		}
		// Rounding heuristic: any LP solution induces an order via the
		// A_i values (CPLEX-style primal heuristic); it also tightens
		// the discretized incumbent used for pruning.
		accept(extractOrder(f, sol.X), true)
		// Branch on the most fractional ordering variable. Only the B
		// variables are real decisions: once they are integral the order
		// is fixed and the leaf is evaluated directly.
		branch, frac := -1, 0.0
		for i := 0; i < len(f.AStart); i++ {
			for j := 0; j < len(f.AStart); j++ {
				if i == j {
					continue
				}
				col := f.BVar[i][j]
				v := sol.X[col]
				if d := math.Min(v, 1-v); d > frac+1e-7 {
					frac, branch = d, col
				}
			}
		}
		if branch < 0 || frac < 1e-6 {
			return nil // all B integral: the rounded order was the leaf
		}
		// Branch: try the rounding direction first.
		first, second := 1.0, 0.0
		if sol.X[branch] < 0.5 {
			first, second = 0, 1
		}
		if err := rec(append(fixings, fixing{branch, first})); err != nil {
			return err
		}
		return rec(append(append([]fixing(nil), fixings...), fixing{branch, second}))
	}
	if err := rec(nil); err != nil {
		return res, err
	}
	res.Proved = !aborted && res.Order != nil
	if res.Order == nil {
		return res, fmt.Errorf("mip: no integral solution within %d nodes", res.Nodes)
	}
	return res, nil
}

// discreteObjective evaluates an order in the LP objective's own units:
// per timestep, each query earns the speedup of its best available plan
// (negated), and once everything is deployed the "done" plan earns the
// full workload runtime. The LP relaxation of any node containing this
// order lower-bounds this value, so it is a valid incumbent for
// branch-and-bound pruning.
func discreteObjective(c *model.Compiled, f *Formulation, order []int) float64 {
	finish := make([]float64, c.N) // completion time in timesteps
	built := make([]bool, c.N)
	var clock float64
	for _, i := range order {
		clock += c.BuildCost(i, built) * f.CostScale
		built[i] = true
		finish[i] = clock
	}
	var totalQtime float64
	for q := range c.Inst.Queries {
		totalQtime += c.Inst.Queries[q].Runtime * c.Inst.QueryWeight(q)
	}
	var total float64
	for d := 0; d < f.D; d++ {
		if clock <= float64(d) {
			total -= totalQtime // the done plan zeroes the runtime
			continue
		}
		for q := range c.PlansOfQuery {
			best := 0.0
			for _, p := range c.PlansOfQuery[q] {
				if c.PlanSpd[p] <= best {
					continue
				}
				ok := true
				for _, i := range c.PlanIdx[p] {
					if finish[i] > float64(d) {
						ok = false
						break
					}
				}
				if ok {
					best = c.PlanSpd[p]
				}
			}
			total -= best
		}
	}
	return total
}

// extractOrder sorts indexes by their A_i start times, breaking ties with
// the B matrix majority.
func extractOrder(f *Formulation, x []float64) []int {
	n := len(f.AStart)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		ta, tb := x[f.AStart[ia]], x[f.AStart[ib]]
		if math.Abs(ta-tb) > 1e-7 {
			return ta < tb
		}
		if bv := f.BVar[ia][ib]; bv >= 0 {
			return x[bv] > 0.5
		}
		return ia < ib
	})
	return order
}
