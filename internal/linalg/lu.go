package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// LU holds the result of an LU decomposition with partial pivoting:
// P*A = L*U where L is unit lower triangular, U is upper triangular, and
// P is the row permutation encoded by Perm (row i of P*A is row Perm[i]
// of A). Swaps counts row exchanges (used for the determinant sign).
type LU struct {
	L, U  *Matrix
	Perm  []int
	Swaps int
}

// ErrSingular is returned when a pivot (or the whole matrix) is singular
// to working precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Decompose computes the LU decomposition of square matrix a with
// partial (row) pivoting. a is not modified.
func Decompose(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Decompose needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	u := a.Clone()
	l := Identity(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	swaps := 0
	for k := 0; k < n; k++ {
		// Find pivot: largest |u[i][k]| for i >= k.
		p, best := k, math.Abs(u.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(u.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != k {
			u.swapRows(p, k)
			perm[p], perm[k] = perm[k], perm[p]
			swaps++
			// Swap the already-computed multipliers in L (columns < k).
			for j := 0; j < k; j++ {
				lp, lk := l.At(p, j), l.At(k, j)
				l.Set(p, j, lk)
				l.Set(k, j, lp)
			}
		}
		// Each element of U takes one multiply and one subtraction per
		// pivot, in pivot order; oracle_test.go pins the resulting bits.
		pivot := u.At(k, k)
		rk := u.Data[k*n+k+1 : (k+1)*n]
		for i := k + 1; i < n; i++ {
			row := u.Data[i*n : (i+1)*n]
			m := row[k] / pivot
			l.Data[i*n+k] = m
			row[k] = 0
			subScaled(row[k+1:], rk, m)
		}
	}
	return &LU{L: l, U: u, Perm: perm, Swaps: swaps}, nil
}

// PermuteRows returns P*m for the decomposition's permutation: output row
// i is input row Perm[i].
func (lu *LU) PermuteRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, src := range lu.Perm {
		copy(out.Data[i*m.Cols:(i+1)*m.Cols], m.Data[src*m.Cols:(src+1)*m.Cols])
	}
	return out
}

// Det returns the determinant of the decomposed matrix.
func (lu *LU) Det() float64 {
	d := 1.0
	for i := 0; i < lu.U.Rows; i++ {
		d *= lu.U.At(i, i)
	}
	if lu.Swaps%2 == 1 {
		d = -d
	}
	return d
}

// IsPermutation reports whether p holds each of 0..len(p)-1 exactly once.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse of the decomposed matrix, solving
// L*U*X = P for all n columns at once with up to workers goroutines
// (fewer than 1 means 1). Every element of X is bit-identical to
// solving its column alone with ForwardSub and BackSub: it takes the
// same subtractions in the same order, only the loops run row by row
// over contiguous slices instead of one dot product at a time.
//
// The solve works in pivot order: its column k is X's column Perm[k],
// so its right-hand side is the identity and the forward phase computes
// only the lower triangle of L⁻¹. The terms it skips multiply a ±0
// entry of L⁻¹ and come before any non-zero term, so leaving them out
// is exact. That holds when L's strictly lower part is finite, as
// Decompose makes it for a finite matrix; otherwise every term is kept.
// The columns are split into one contiguous block per worker; blocks
// share no writes, so the workers need no barrier. A zero diagonal in
// L, or one below 1e-300 in magnitude in U, returns ErrSingular as the
// single-column solves do.
func (lu *LU) Inverse(workers int) (*Matrix, error) {
	l, u := lu.L, lu.U
	n := u.Rows
	if u.Cols != n || l.Rows != n || l.Cols != n || len(lu.Perm) != n {
		return nil, fmt.Errorf("linalg: Inverse shape mismatch L=%dx%d U=%dx%d len(Perm)=%d", l.Rows, l.Cols, u.Rows, u.Cols, len(lu.Perm))
	}
	if !IsPermutation(lu.Perm) {
		return nil, errors.New("linalg: Inverse: Perm is not a permutation")
	}
	skip := true
	for i := 0; i < n; i++ {
		if l.Data[i*n+i] == 0 || math.Abs(u.Data[i*n+i]) < 1e-300 {
			return nil, ErrSingular
		}
		for _, v := range l.Data[i*n : i*n+i] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				skip = false
			}
		}
	}
	workers = max(1, min(workers, n))
	x := New(n, n)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := per; lo < n; lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			lu.solveColumns(x, lo, hi, skip)
		}(lo, min(lo+per, n))
	}
	lu.solveColumns(x, 0, per, skip)
	wg.Wait()

	// Move column k to column Perm[k], row by row in place through one
	// row-sized buffer.
	buf := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Data[i*n : (i+1)*n]
		copy(buf, row)
		for k, p := range lu.Perm {
			row[p] = buf[k]
		}
	}
	return x, nil
}

// solveColumns overwrites columns [lo, hi) of the zero matrix x with
// U⁻¹*L⁻¹ restricted to those columns: forward substitution top down,
// then back substitution bottom up, both as row axpys. With skip, row i
// of the forward phase takes from row j only its lower-triangle columns
// (c <= j); the rest of L⁻¹'s row j is ±0.
func (lu *LU) solveColumns(x *Matrix, lo, hi int, skip bool) {
	n := x.Cols
	l, u := lu.L.Data, lu.U.Data
	for i := 0; i < n; i++ {
		xi := x.Data[i*n+lo : i*n+hi]
		if lo <= i && i < hi {
			xi[i-lo] = 1
		}
		for j, f := range l[i*n : i*n+i] {
			end := hi
			if skip {
				end = min(j+1, hi)
			}
			if end <= lo {
				continue
			}
			subScaled(xi, x.Data[j*n+lo:j*n+end], f)
		}
		d := l[i*n+i]
		for c := range xi {
			xi[c] /= d
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x.Data[i*n+lo : i*n+hi]
		for j, f := range u[i*n+i+1 : (i+1)*n] {
			subScaled(xi, x.Data[(i+1+j)*n+lo:(i+1+j)*n+hi], f)
		}
		d := u[i*n+i]
		for c := range xi {
			xi[c] /= d
		}
	}
}

// subScaled sets dst[c] -= f*src[c] for every c < len(src), one
// rounded multiply and one rounded subtraction per element, the axpy at
// the heart of Decompose and Inverse. dst must be at least as long as
// src. The loop is unrolled by four; the elements are independent, so
// the unrolling does not change any result.
func subScaled(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	c := 0
	for ; c+4 <= len(src); c += 4 {
		s, d := src[c:c+4:c+4], dst[c:c+4:c+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	for ; c < len(src); c++ {
		dst[c] -= f * src[c]
	}
}

// ForwardSub solves L*y = b for unit lower-triangular L.
func ForwardSub(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: ForwardSub shape mismatch L=%dx%d len(b)=%d", l.Rows, l.Cols, len(b))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		li := l.Data[i*n : i*n+i+1]
		s := b[i]
		prev := y[:i]
		for j, v := range li[:i] {
			s -= v * prev[j]
		}
		// L is unit lower triangular: diagonal is 1, but divide anyway to
		// support general lower-triangular systems.
		d := li[i]
		if d == 0 {
			return nil, ErrSingular
		}
		y[i] = s / d
	}
	return y, nil
}

// BackSub solves U*x = y for upper-triangular U.
func BackSub(u *Matrix, y []float64) ([]float64, error) {
	n := u.Rows
	if u.Cols != n || len(y) != n {
		return nil, fmt.Errorf("linalg: BackSub shape mismatch U=%dx%d len(y)=%d", u.Rows, u.Cols, len(y))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		ui := u.Data[i*n+i+1 : (i+1)*n]
		s := y[i]
		next := x[i+1:]
		next = next[:len(ui)]
		for j, v := range ui {
			s -= v * next[j]
		}
		d := u.Data[i*n+i]
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves A*x = b using LU decomposition with partial pivoting.
// This is exactly the pipeline of the paper's Linear Equation Solver
// application: LU decomposition, forward substitution, back substitution.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: Solve shape mismatch A=%dx%d len(b)=%d", a.Rows, a.Cols, len(b))
	}
	lu, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	pb := make([]float64, len(b))
	for i, src := range lu.Perm {
		pb[i] = b[src]
	}
	y, err := ForwardSub(lu.L, pb)
	if err != nil {
		return nil, err
	}
	return BackSub(lu.U, y)
}

// MatVec returns A*x.
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("linalg: MatVec shape mismatch A=%dx%d len(x)=%d", a.Rows, a.Cols, len(x))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// VecNormInf returns the infinity norm of v.
func VecNormInf(v []float64) float64 {
	var max float64
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// Residual returns ||A*x - b||_inf, a convenience for solver validation.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := MatVec(a, x)
	if err != nil {
		return 0, err
	}
	if len(ax) != len(b) {
		return 0, fmt.Errorf("linalg: Residual length mismatch %d vs %d", len(ax), len(b))
	}
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max, nil
}
