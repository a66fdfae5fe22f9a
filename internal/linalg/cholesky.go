package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when Cholesky hits a non-positive pivot: the
// matrix is not symmetric positive definite (within tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky computes the lower-triangular L with A = L*Lᵀ for a
// symmetric positive-definite A. a is not modified. Asymmetry beyond a
// small tolerance is rejected.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	// Symmetry check with a scale-aware tolerance.
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return nil, ErrNotSPD
	}
	tol := 1e-10 * scale
	for i := 0; i < n; i++ {
		for j, v := range a.Data[i*n+i+1 : (i+1)*n] {
			if math.Abs(v-a.Data[(i+1+j)*n+i]) > tol {
				return nil, fmt.Errorf("%w: asymmetric at (%d,%d)", ErrNotSPD, i, i+1+j)
			}
		}
	}
	// Each dot product runs over row slices in ascending k; that order
	// fixes every bit of L, and oracle_test.go pins it.
	l := New(n, n)
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			li := l.Data[i*n : i*n+j]
			li = li[:len(lj)]
			s := a.Data[i*n+j]
			for k, v := range lj {
				s -= li[k] * v
			}
			l.Data[i*n+j] = s / ljj
		}
	}
	return l, nil
}

// SolveSPD solves A*x = b for symmetric positive-definite A via
// Cholesky: L*y = b then Lᵀ*x = y.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: SolveSPD shape mismatch A=%dx%d len(b)=%d", a.Rows, a.Cols, len(b))
	}
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	y, err := ForwardSub(l, b)
	if err != nil {
		return nil, err
	}
	return BackSub(l.Transpose(), y)
}

// RandomSPD returns a random symmetric positive-definite matrix:
// B*Bᵀ + n*I for random B.
func RandomSPD(n int, seed int64) *Matrix {
	b := RandomMatrix(n, n, seed)
	bt := b.Transpose()
	m, err := MatMul(b, bt)
	if err != nil {
		panic(err) // shapes are square by construction
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}
