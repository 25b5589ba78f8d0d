package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestTextbookMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig
	// example): optimum (2,6) value 36. As a min problem: min -3x - 5y.
	p := &Problem{
		C: []float64{-3, -5},
		A: [][]float64{
			{1, 0},
			{0, 2},
			{3, 2},
		},
		Op: []Rel{LE, LE, LE},
		B:  []float64{4, 12, 18},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Obj, -36) || !approx(s.X[0], 2) || !approx(s.X[1], 6) {
		t.Fatalf("got obj=%v x=%v, want -36 (2,6)", s.Obj, s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x >= 4  => x=10,y=0? x>=4, y>=0:
	// best is y=0, x=10, obj 10.
	p := &Problem{
		C:  []float64{1, 2},
		A:  [][]float64{{1, 1}, {1, 0}},
		Op: []Rel{EQ, GE},
		B:  []float64{10, 4},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Obj, 10) {
		t.Fatalf("got %v obj=%v, want optimal 10", s.Status, s.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := &Problem{
		C:  []float64{1},
		A:  [][]float64{{1}, {1}},
		Op: []Rel{LE, GE},
		B:  []float64{1, 2},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x >= 0: unbounded below.
	p := &Problem{
		C:  []float64{-1},
		A:  [][]float64{{1}},
		Op: []Rel{GE},
		B:  []float64{0},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3  <=>  x >= 3; min x should give 3.
	p := &Problem{
		C:  []float64{1},
		A:  [][]float64{{-1}},
		Op: []Rel{LE},
		B:  []float64{-3},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Obj, 3) {
		t.Fatalf("got %v obj=%v, want optimal 3", s.Status, s.Obj)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate LP (redundant constraints through the
	// optimum); must terminate and find the optimum.
	p := &Problem{
		C: []float64{-2, -1},
		A: [][]float64{
			{1, 0},
			{1, 1},
			{1, 0.5},
		},
		Op: []Rel{LE, LE, LE},
		B:  []float64{4, 6, 5},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Obj, -10) {
		t.Fatalf("got %v obj=%v x=%v, want -10", s.Status, s.Obj, s.X)
	}
}

func TestMalformedProblems(t *testing.T) {
	if _, err := Solve(&Problem{C: []float64{1}, A: [][]float64{{1, 2}}, Op: []Rel{LE}, B: []float64{1}}); err == nil {
		t.Error("row width mismatch accepted")
	}
	if _, err := Solve(&Problem{C: []float64{1}, A: [][]float64{{1}}, Op: []Rel{LE}, B: []float64{}}); err == nil {
		t.Error("rhs length mismatch accepted")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", Status(9): "unknown"} {
		if s.String() != want {
			t.Errorf("%d -> %q, want %q", s, s.String(), want)
		}
	}
}

// Property: on random bounded-feasible LPs (box constraints guarantee
// both), the simplex solution is feasible and at least as good as a large
// random sample of feasible points.
func TestQuickSimplexBeatsSampling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = rng.NormFloat64()
		}
		// Random <= rows with non-negative coefficients keep the origin
		// feasible; box rows x_j <= u_j keep it bounded.
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()
			}
			p.A = append(p.A, row)
			p.Op = append(p.Op, LE)
			p.B = append(p.B, 1+5*rng.Float64())
		}
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.Op = append(p.Op, LE)
			p.B = append(p.B, 1+4*rng.Float64())
		}
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return false
		}
		// Feasibility of the reported solution.
		for i, row := range p.A {
			var dot float64
			for j := range row {
				dot += row[j] * s.X[j]
			}
			if dot > p.B[i]+1e-6 {
				return false
			}
		}
		for _, v := range s.X {
			if v < -1e-9 {
				return false
			}
		}
		// Compare against random feasible samples.
		for k := 0; k < 200; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 2
			}
			feasible := true
			for i, row := range p.A {
				var dot float64
				for j := range row {
					dot += row[j] * x[j]
				}
				if dot > p.B[i] {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			var obj float64
			for j := range x {
				obj += p.C[j] * x[j]
			}
			if obj < s.Obj-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// cancelAfter is a context whose Err turns context.Canceled on its k-th
// call (k = 0: never) and stays so; calls counts every Err call.
type cancelAfter struct {
	context.Context
	k, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.k > 0 && c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// randomLP is a feasible, bounded n×m LP: LE rows with RHS 10 over
// uniform [0,1) coefficients, plus (when ge) one GE row of the same
// shape with RHS 1 per five rows, whose artificials make phase 1 pivot.
func randomLP(seed int64, n, m int, ge bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = rng.NormFloat64()
		if ge {
			p.C[j] = math.Abs(p.C[j])
		}
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.A = append(p.A, row)
		if ge && i%5 == 0 {
			p.Op = append(p.Op, GE)
			p.B = append(p.B, 1)
		} else {
			p.Op = append(p.Op, LE)
			p.B = append(p.B, 10)
		}
	}
	return p
}

func TestSolveDeadlineExpires(t *testing.T) {
	// A moderately large LP under an already-expired deadline must abort
	// with the context's error instead of solving.
	p := randomLP(8, 60, 80, false)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := SolveContext(ctx, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// And with no deadline it solves fine.
	s, err := Solve(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("unbounded deadline solve failed: %v %v", err, s.Status)
	}
}

func TestSolveContextStopsAtPivot(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *Problem
	}{
		{"phase 2 only", randomLP(8, 60, 80, false)},
		{"two phases", randomLP(9, 40, 50, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			// A context that never cancels changes nothing, and counts
			// one check per pivot (plus the final check of each phase).
			live := &cancelAfter{Context: context.Background()}
			got, err := SolveContext(live, p)
			want, werr := Solve(p)
			if err != nil || werr != nil || got.Status != Optimal || math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
				t.Fatalf("live context: %v %v obj %v, plain solve: %v obj %v", err, got.Status, got.Obj, werr, want.Obj)
			}
			if live.calls < 4 {
				t.Fatalf("only %d context checks; the LP does not exercise the pivot loop", live.calls)
			}
			// Cancelling at the k-th check stops the solve right there:
			// no further check, so no further pivot.
			for k := 1; k <= live.calls; k++ {
				ctx := &cancelAfter{Context: context.Background(), k: k}
				if _, err := SolveContext(ctx, p); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at check %d: err = %v, want context.Canceled", k, err)
				}
				if ctx.calls != k {
					t.Fatalf("cancel at check %d: solve went on to check %d", k, ctx.calls)
				}
			}
		})
	}
}

func TestPerturbationInvisibleInSolutions(t *testing.T) {
	// The RHS perturbation must not leak into reported solutions beyond
	// the solver tolerance: solve a problem with a known exact vertex.
	p := &Problem{
		C:  []float64{-1, -1},
		A:  [][]float64{{1, 0}, {0, 1}},
		Op: []Rel{LE, LE},
		B:  []float64{3, 4},
	}
	s, err := Solve(p)
	if err != nil || s.Status != Optimal {
		t.Fatal(err)
	}
	if math.Abs(s.X[0]-3) > 1e-6 || math.Abs(s.X[1]-4) > 1e-6 {
		t.Fatalf("vertex polluted by perturbation: %v", s.X)
	}
}

func TestExactFixingRowsStayFeasible(t *testing.T) {
	// The MIP+ regression: x = 1 fixing alongside x <= 1 bound must be
	// feasible despite the perturbation.
	p := &Problem{
		C:  []float64{1, 1},
		A:  [][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}},
		Op: []Rel{EQ, LE, LE, GE},
		B:  []float64{1, 1, 1, 1},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status %v, want optimal", s.Status)
	}
	if math.Abs(s.X[0]-1) > 1e-5 {
		t.Fatalf("fixing ignored: %v", s.X)
	}
}
