package regress

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"trickledown/internal/sim"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestOLSExactLine(t *testing.T) {
	// y = 3 + 2x with no noise: fit must be exact.
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		v := float64(i)
		x[i] = []float64{1, v}
		y[i] = 3 + 2*v
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 3, 1e-9, "intercept")
	approx(t, f.Coef[1], 2, 1e-9, "slope")
	approx(t, f.R2, 1, 1e-12, "R2")
	approx(t, f.RMSE, 0, 1e-9, "RMSE")
	if f.N != 50 {
		t.Errorf("N = %d", f.N)
	}
}

func TestOLSNoisyLineRecoversCoefficients(t *testing.T) {
	r := sim.NewRNG(1)
	n := 5000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := r.Float64() * 10
		x[i] = []float64{1, v}
		y[i] = 5 + 1.5*v + r.Norm(0, 0.2)
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 5, 0.05, "intercept")
	approx(t, f.Coef[1], 1.5, 0.01, "slope")
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want >0.99", f.R2)
	}
}

func TestOLSQuadraticRecovery(t *testing.T) {
	r := sim.NewRNG(2)
	n := 2000
	v := make([]float64, n)
	y := make([]float64, n)
	for i := range v {
		v[i] = r.Float64() * 4
		y[i] = 28 + 3.4*v[i] + 7.7*v[i]*v[i] + r.Norm(0, 0.1)
	}
	x := make([][]float64, n)
	for i, vi := range v {
		x[i] = []float64{1, vi, vi * vi}
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 28, 0.1, "c0")
	approx(t, f.Coef[1], 3.4, 0.1, "c1")
	approx(t, f.Coef[2], 7.7, 0.05, "c2")
}

func TestOLSMultiQuadRecovery(t *testing.T) {
	r := sim.NewRNG(3)
	n := 4000
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() * 2
		b[i] = r.Float64() * 3
		y[i] = 21.6 + 10*a[i] - 1.1*a[i]*a[i] + 9.2*b[i] - 4.5*b[i]*b[i] + r.Norm(0, 0.05)
	}
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{1, a[i], a[i] * a[i], b[i], b[i] * b[i]}
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{21.6, 10, -1.1, 9.2, -4.5}
	for i, w := range want {
		approx(t, f.Coef[i], w, 0.1, "coef")
	}
}

func TestOLSSingular(t *testing.T) {
	// Two identical columns: no unique solution.
	x := [][]float64{{1, 2, 2}, {1, 3, 3}, {1, 4, 4}, {1, 5, 5}}
	y := []float64{1, 2, 3, 4}
	if _, err := OLS(x, y); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestOLSDimensionErrors(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
	}{
		{"empty", nil, nil},
		{"len mismatch", [][]float64{{1}}, []float64{1, 2}},
		{"fewer rows than cols", [][]float64{{1, 2, 3}}, []float64{1}},
		{"zero-width rows", [][]float64{{}, {}}, []float64{1, 2}},
		{"ragged rows", [][]float64{{1, 2}, {1}}, []float64{1, 2}},
	}
	for _, c := range cases {
		if _, err := OLS(c.x, c.y); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: err = %v, want ErrDimension", c.name, err)
		}
	}
}

func TestOLSConstantResponse(t *testing.T) {
	// Constant y: intercept model captures it exactly; R2 defined as 0
	// when total variance is zero.
	x := [][]float64{{1}, {1}, {1}, {1}}
	y := []float64{19.9, 19.9, 19.9, 19.9}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 19.9, 1e-9, "constant")
	approx(t, f.R2, 0, 1e-12, "R2 of zero-variance response")
}

func TestPredict(t *testing.T) {
	got := Predict([]float64{1, 2, 3}, []float64{1, 10, 100})
	if got != 1+20+300 {
		t.Errorf("Predict = %v", got)
	}
}

func TestFitString(t *testing.T) {
	f := &Fit{Coef: []float64{1}, N: 5}
	if s := f.String(); !strings.Contains(s, "n=5") {
		t.Errorf("String() = %q", s)
	}
}

// Property: for any data the OLS residual is orthogonal to each regressor
// (the defining property of least squares).
func TestOLSResidualOrthogonality(t *testing.T) {
	r := sim.NewRNG(99)
	f := func(seed uint64) bool {
		rr := sim.NewRNG(seed)
		n := 30 + rr.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{1, rr.Float64() * 5, rr.Float64() * 2}
			y[i] = rr.Float64()*10 + x[i][1]*2
		}
		fit, err := OLS(x, y)
		if err != nil {
			return true // singular draws are acceptable
		}
		for col := 0; col < 3; col++ {
			dot := 0.0
			for i := range x {
				res := y[i] - Predict(fit.Coef, x[i])
				dot += res * x[i][col]
			}
			if math.Abs(dot) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStdErrShrinksWithSampleSize(t *testing.T) {
	gen := func(n int, seed uint64) *Fit {
		r := sim.NewRNG(seed)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			v := r.Float64() * 10
			x[i] = []float64{1, v}
			y[i] = 2 + 3*v + r.Norm(0, 1)
		}
		f, err := OLS(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	small := gen(50, 1)
	big := gen(5000, 2)
	if len(small.StdErr) != 2 || len(big.StdErr) != 2 {
		t.Fatalf("StdErr lengths: %d, %d", len(small.StdErr), len(big.StdErr))
	}
	for i := range small.StdErr {
		if small.StdErr[i] <= 0 {
			t.Errorf("small-sample stderr[%d] = %v", i, small.StdErr[i])
		}
		if big.StdErr[i] >= small.StdErr[i] {
			t.Errorf("stderr[%d] did not shrink: %v -> %v", i, small.StdErr[i], big.StdErr[i])
		}
	}
	// With sigma=1 over x~U(0,10), slope stderr at n=5000 is tiny: the
	// true coefficient must be within a few stderr of the estimate.
	if d := math.Abs(big.Coef[1] - 3); d > 5*big.StdErr[1] {
		t.Errorf("slope %v ± %v too far from 3", big.Coef[1], big.StdErr[1])
	}
}

func TestStdErrZeroNoise(t *testing.T) {
	x := make([][]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		v := float64(i)
		x[i] = []float64{1, v}
		y[i] = 7 + 2*v
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, se := range f.StdErr {
		if se > 1e-6 {
			t.Errorf("noise-free stderr[%d] = %v, want ~0", i, se)
		}
	}
}

func TestStdErrNilWithoutDOF(t *testing.T) {
	// n == p: no residual degrees of freedom.
	x := [][]float64{{1, 0}, {1, 1}}
	y := []float64{1, 2}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.StdErr != nil {
		t.Errorf("StdErr = %v with zero DOF", f.StdErr)
	}
}

func TestInvertAgainstSolve(t *testing.T) {
	// invert(A) * b must reproduce solve(A, b).
	a := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 5}}
	b := []float64{1, 2, 3}
	aCopy := make([][]float64, len(a))
	for i := range a {
		aCopy[i] = append([]float64(nil), a[i]...)
	}
	inv, err := invert(aCopy)
	if err != nil {
		t.Fatal(err)
	}
	a2 := make([][]float64, len(a))
	for i := range a {
		a2[i] = append([]float64(nil), a[i]...)
	}
	x, err := solve(a2, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		var got float64
		for j := range b {
			got += inv[i][j] * b[j]
		}
		if math.Abs(got-x[i]) > 1e-9 {
			t.Errorf("inv*b[%d] = %v, solve = %v", i, got, x[i])
		}
	}
	// Singular matrix is rejected.
	if _, err := invert([][]float64{{1, 2}, {2, 4}}); err == nil {
		t.Error("singular inversion accepted")
	}
}
