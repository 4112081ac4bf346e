// Package regress implements the small amount of numerical machinery the
// paper's methodology needs: ordinary least squares fitted through normal
// equations, plus prediction. The polynomial and multivariate-quadratic
// design rows the subsystem power models use ("we initially attempt
// regression curve fitting using linear models; if it is not possible to
// obtain high accuracy with a linear model, we select single or multiple
// input quadratics") are built by core.ModelSpec.Design.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal-equation system has no unique
// solution, typically because a regressor is constant or two regressors
// are collinear over the training trace.
var ErrSingular = errors.New("regress: singular normal equations")

// ErrDimension is returned when the design matrix and response vector
// disagree in length, or when there are fewer observations than
// coefficients.
var ErrDimension = errors.New("regress: dimension mismatch")

// Fit holds the result of a least-squares fit.
type Fit struct {
	// Coef holds the fitted coefficients, one per design-matrix column.
	Coef []float64
	// StdErr holds the coefficients' standard errors (nil when the
	// residual degrees of freedom are zero).
	StdErr []float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// RMSE is the root-mean-square residual on the training data.
	RMSE float64
	// N is the number of observations used.
	N int
}

func (f *Fit) String() string {
	return fmt.Sprintf("fit{n=%d r2=%.4f rmse=%.4f coef=%v}", f.N, f.R2, f.RMSE, f.Coef)
}

// OLS solves min ||X·b - y||² by normal equations. X is row-major: X[i]
// is observation i. Every row must have the same width. An intercept, if
// wanted, must be an explicit all-ones column.
func OLS(x [][]float64, y []float64) (*Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, ErrDimension
	}
	p := len(x[0])
	if p == 0 || n < p {
		return nil, ErrDimension
	}
	// Accumulate XᵀX and Xᵀy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(row), p)
		}
		for a := 0; a < p; a++ {
			xty[a] += row[a] * y[i]
			for b := a; b < p; b++ {
				xtx[a][b] += row[a] * row[b]
			}
		}
	}
	for a := 1; a < p; a++ {
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
	}
	// solve destroys its matrix argument; keep a copy for the
	// covariance computation.
	xtxCopy := make([][]float64, p)
	for i := range xtx {
		xtxCopy[i] = append([]float64(nil), xtx[i]...)
	}
	coef, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}
	// Training diagnostics.
	var ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)
	var ssRes, ssTot float64
	for i, row := range x {
		pred := 0.0
		for j, c := range coef {
			pred += c * row[j]
		}
		d := y[i] - pred
		ssRes += d * d
		t := y[i] - ybar
		ssTot += t * t
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	fit := &Fit{
		Coef: coef,
		R2:   r2,
		RMSE: math.Sqrt(ssRes / float64(n)),
		N:    n,
	}
	// Coefficient standard errors: sqrt(sigma^2 * diag((X'X)^-1)) with
	// sigma^2 = ssRes / (n - p).
	if n > p {
		if inv, err := invert(xtxCopy); err == nil {
			sigma2 := ssRes / float64(n-p)
			fit.StdErr = make([]float64, p)
			for i := 0; i < p; i++ {
				v := sigma2 * inv[i][i]
				if v < 0 {
					v = 0
				}
				fit.StdErr[i] = math.Sqrt(v)
			}
		}
	}
	return fit, nil
}

// SolveNormal solves the normal equations (XᵀX)·b = Xᵀy from
// pre-accumulated moments, for callers that maintain the Gram matrix
// incrementally (core.OnlineFitter) instead of materializing the design
// matrix. The arithmetic is exactly OLS's private solver on a copy of
// the inputs, so an incremental accumulator that adds rows in the same
// order as OLS reproduces the batch coefficients bit for bit.
func SolveNormal(xtx [][]float64, xty []float64) ([]float64, error) {
	p := len(xtx)
	if p == 0 || p != len(xty) {
		return nil, ErrDimension
	}
	a := make([][]float64, p)
	for i, row := range xtx {
		if len(row) != p {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(row), p)
		}
		a[i] = append([]float64(nil), row...)
	}
	return solve(a, xty)
}

// invert computes the inverse of a (which it modifies) by Gauss-Jordan
// elimination with partial pivoting.
func invert(a [][]float64) ([][]float64, error) {
	n := len(a)
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = make([]float64, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		d := a[col][col]
		for c := 0; c < n; c++ {
			a[col][c] /= d
			inv[col][c] /= d
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for c := 0; c < n; c++ {
				a[r][c] -= f * a[col][c]
				inv[r][c] -= f * inv[col][c]
			}
		}
	}
	return inv, nil
}

// solve performs Gaussian elimination with partial pivoting on a (which
// it modifies) to solve a·x = b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		x[col], x[pivot] = x[pivot], x[col]
		// Eliminate below.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back-substitute.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= a[col][c] * x[c]
		}
		x[col] = s / a[col][col]
	}
	return x, nil
}

// Predict evaluates a fitted model on one design row.
func Predict(coef, row []float64) float64 {
	s := 0.0
	for i, c := range coef {
		s += c * row[i]
	}
	return s
}
