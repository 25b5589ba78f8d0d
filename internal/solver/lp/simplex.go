// Package lp implements a dense two-phase primal simplex solver for
// linear programs in the form
//
//	min c·x   subject to   A x (<=|=|>=) b,   x >= 0.
//
// It is the linear-relaxation engine underneath the MIP solver
// (internal/solver/mip), standing in for CPLEX in the paper's MIP
// comparison. A Bland-rule fallback prevents cycling; the implementation
// favors clarity over large-scale performance, which is fine because the
// whole point of the paper's experiment is that the time-indexed MIP
// formulation stops scaling almost immediately.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // =
)

// Problem is an LP in inequality form. All slices must agree in size:
// len(A) == len(B) == len(Op), and every row of A has len(C) entries.
type Problem struct {
	C  []float64   // objective coefficients (minimize)
	A  [][]float64 // constraint matrix rows
	Op []Rel       // row relations
	B  []float64   // right-hand sides
}

// Status classifies the outcome.
type Status int8

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution is the solver output.
type Solution struct {
	Status Status
	X      []float64 // primal values (valid when Optimal)
	Obj    float64   // objective value (valid when Optimal)
}

// ErrBadProblem reports malformed input dimensions.
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// Solve runs two-phase simplex. The returned error is non-nil only for
// malformed input or an iteration-limit blowup (not for infeasible or
// unbounded problems, which are reported via Status).
func Solve(p *Problem) (Solution, error) { return SolveContext(context.Background(), p) }

// SolveContext is Solve under a context: once ctx is done it returns
// ctx.Err(), and the problem is neither solved nor classified. ctx.Err()
// is checked before every pivot: one pivot rewrites the whole tableau,
// which on the MIP's large dense tableaus takes far longer than the
// check.
func SolveContext(ctx context.Context, p *Problem) (Solution, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m || len(p.Op) != m {
		return Solution{}, fmt.Errorf("%w: %d rows, %d rhs, %d ops", ErrBadProblem, m, len(p.B), len(p.Op))
	}
	for i, row := range p.A {
		if len(row) != n {
			return Solution{}, fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadProblem, i, len(row), n)
		}
	}

	// Normalize signs so every RHS is non-negative.
	flip := make([]bool, m)
	op := make([]Rel, m)
	copy(op, p.Op)
	for i := 0; i < m; i++ {
		if p.B[i] < 0 {
			flip[i] = true
			switch op[i] {
			case LE:
				op[i] = GE
			case GE:
				op[i] = LE
			}
		}
	}

	// Column layout: structural | slack/surplus | artificial | RHS.
	slackCol := make([]int, m)
	artCol := make([]int, m)
	cols := n
	for i := 0; i < m; i++ {
		slackCol[i], artCol[i] = -1, -1
		if op[i] != EQ {
			slackCol[i] = cols
			cols++
		}
	}
	for i := 0; i < m; i++ {
		if op[i] == EQ || op[i] == GE {
			artCol[i] = cols
			cols++
		}
	}
	banned := make([]bool, cols) // artificials are banned in phase 2
	for i := 0; i < m; i++ {
		if artCol[i] >= 0 {
			banned[artCol[i]] = true
		}
	}

	// Magnitude-scaled RHS perturbation (a poor man's lexicographic
	// rule): highly degenerate bases — ubiquitous in time-indexed
	// scheduling LPs — stall the ratio test for thousands of pivots
	// otherwise. The perturbation is far below the solver's feasibility
	// tolerance, so reported solutions are unaffected.
	var bScale float64
	for i := 0; i < m; i++ {
		if a := math.Abs(p.B[i]); a > bScale {
			bScale = a
		}
	}
	perturb := 1e-9 * (1 + bScale)

	t := make([][]float64, m+1) // last row = objective
	for i := range t {
		t[i] = make([]float64, cols+1)
	}
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if flip[i] {
			sign = -1
		}
		for j := 0; j < n; j++ {
			t[i][j] = sign * p.A[i][j]
		}
		t[i][cols] = sign*p.B[i] + perturb*float64(i+1)/float64(m+1)
		if slackCol[i] >= 0 {
			if op[i] == LE {
				t[i][slackCol[i]] = 1
			} else {
				t[i][slackCol[i]] = -1
			}
		}
		if artCol[i] >= 0 {
			t[i][artCol[i]] = 1
			basis[i] = artCol[i]
		} else {
			basis[i] = slackCol[i]
		}
	}

	// Phase 1: minimize the sum of artificials. Express the phase-1
	// objective in terms of non-basic variables by subtracting the rows
	// whose artificial is basic.
	for i := 0; i < m; i++ {
		if artCol[i] >= 0 {
			for j := 0; j <= cols; j++ {
				t[m][j] -= t[i][j]
			}
			t[m][artCol[i]] = 0
		}
	}
	if err := iterate(ctx, t, basis, cols, nil); err != nil {
		if errors.Is(err, errUnbounded) {
			// Phase 1 is bounded below by 0; cannot happen.
			return Solution{}, errors.New("lp: internal: unbounded phase 1")
		}
		return Solution{}, err
	}
	// The perturbation itself can leave a residual phase-1 objective
	// (e.g. x = 1+ε against a bound x <= 1+ε'), so the infeasibility
	// threshold scales with the total injected perturbation. Genuine
	// infeasibilities in our formulations have magnitude >= the RHS
	// scale, far above it.
	if -t[m][cols] > 1e-7+float64(m)*perturb {
		return Solution{Status: Infeasible}, nil
	}
	// Drive basic artificials out where possible (degenerate rows keep a
	// zero-valued artificial, which is harmless once banned).
	for i := 0; i < m; i++ {
		if !banned[basis[i]] {
			continue
		}
		for j := 0; j < cols; j++ {
			if !banned[j] && math.Abs(t[i][j]) > eps {
				pivot(t, basis, i, j)
				break
			}
		}
	}

	// Phase 2: install the real objective, reduced over the basis. A
	// tiny deterministic cost perturbation breaks the dual degeneracy of
	// scheduling LPs (many columns with identical reduced costs); the
	// reported objective is recomputed from the true costs afterwards.
	var cScale float64
	for j := 0; j < n; j++ {
		if a := math.Abs(p.C[j]); a > cScale {
			cScale = a
		}
	}
	cPerturb := 1e-9 * (1 + cScale)
	for j := 0; j <= cols; j++ {
		t[m][j] = 0
	}
	for j := 0; j < n; j++ {
		t[m][j] = p.C[j] + cPerturb*float64((j*2654435761)%1021)/1021
	}
	for i := 0; i < m; i++ {
		if f := t[m][basis[i]]; math.Abs(f) > eps {
			for j := 0; j <= cols; j++ {
				t[m][j] -= f * t[i][j]
			}
			t[m][basis[i]] = 0
		}
	}
	if err := iterate(ctx, t, basis, cols, banned); err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded}, nil
		}
		return Solution{}, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][cols]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		objVal += p.C[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: objVal}, nil
}

var errUnbounded = errors.New("lp: unbounded")

// maxIters caps simplex pivots; hitting it is reported as an error.
const maxIters = 200000

// iterate runs simplex pivots until no reduced cost is negative
// (optimal), a column proves unboundedness, or the iteration cap hits.
// banned columns (phase-2 artificials) never enter the basis. Dantzig
// pricing with a Bland fallback under sustained degeneracy.
func iterate(ctx context.Context, t [][]float64, basis []int, cols int, banned []bool) error {
	m := len(t) - 1
	obj := t[m]
	degenerate := 0
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		enter := -1
		if degenerate < 64 {
			best := -eps
			for j := 0; j < cols; j++ {
				if (banned == nil || !banned[j]) && obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		} else { // Bland's rule: lowest-numbered improving column
			for j := 0; j < cols; j++ {
				if (banned == nil || !banned[j]) && obj[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return nil
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				r := t[i][cols] / t[i][enter]
				if r < bestRatio-eps || (r < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		if bestRatio < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		pivot(t, basis, leave, enter)
	}
	return errors.New("lp: iteration limit exceeded")
}

// pivot performs a full tableau pivot on (row, col).
func pivot(t [][]float64, basis []int, row, col int) {
	pr := t[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	pr[col] = 1
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if math.Abs(f) <= 1e-13 {
			t[i][col] = 0
			continue
		}
		ri := t[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	basis[row] = col
}
