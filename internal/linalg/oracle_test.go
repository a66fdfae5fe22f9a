package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// The element-wise kernels below are the oracle for the slice kernels:
// Decompose, ForwardSub, BackSub, Inverse and Cholesky must reproduce
// them bit for bit. They are the At/Set implementations the slice
// kernels replaced, kept unchanged apart from their names; oracleInverse
// is the column-by-column inversion the Matrix_Inversion task ran.

func oracleDecompose(a *Matrix) (*LU, error) {
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
		pivot := u.At(k, k)
		for i := k + 1; i < n; i++ {
			m := u.At(i, k) / pivot
			l.Set(i, k, m)
			u.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				u.Set(i, j, u.At(i, j)-m*u.At(k, j))
			}
		}
	}
	return &LU{L: l, U: u, Perm: perm, Swaps: swaps}, nil
}

func oracleForwardSub(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: ForwardSub shape mismatch L=%dx%d len(b)=%d", l.Rows, l.Cols, len(b))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		// L is unit lower triangular: diagonal is 1, but divide anyway to
		// support general lower-triangular systems.
		d := l.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		y[i] = s / d
	}
	return y, nil
}

func oracleBackSub(u *Matrix, y []float64) ([]float64, error) {
	n := u.Rows
	if u.Cols != n || len(y) != n {
		return nil, fmt.Errorf("linalg: BackSub shape mismatch U=%dx%d len(y)=%d", u.Rows, u.Cols, len(y))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= u.At(i, j) * x[j]
		}
		d := u.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// oracleInverse inverts from a prior LU decomposition by solving n unit
// systems.
func oracleInverse(lu *LU) (*Matrix, error) {
	n := lu.U.Rows
	inv := New(n, n)
	e := make([]float64, n)
	for col := 0; col < n; col++ {
		for i := range e {
			e[i] = 0
		}
		e[col] = 1
		pb := make([]float64, n)
		for i, src := range lu.Perm {
			pb[i] = e[src]
		}
		y, err := oracleForwardSub(lu.L, pb)
		if err != nil {
			return nil, err
		}
		x, err := oracleBackSub(lu.U, y)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, col, x[i])
		}
	}
	return inv, nil
}

func oracleCholesky(a *Matrix) (*Matrix, error) {
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
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, fmt.Errorf("%w: asymmetric at (%d,%d)", ErrNotSPD, i, j)
			}
		}
	}
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// sameBits reports whether a and b hold the same IEEE-754 bit patterns,
// so -0 differs from +0 and NaN payloads must match.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameMatrixBits(a, b *Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && sameBits(a.Data, b.Data)
}

// checkInverseBits asserts Inverse(w) matches the column-by-column oracle
// bit for bit for w = 1, 2, 3 and w > n, errors included.
func checkInverseBits(t *testing.T, name string, lu *LU) {
	t.Helper()
	want, wantErr := oracleInverse(lu)
	for _, w := range []int{1, 2, 3, lu.U.Rows + 1} {
		got, err := lu.Inverse(w)
		if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
			t.Fatalf("%s w=%d: Inverse err %v, oracle err %v", name, w, err, wantErr)
		}
		if err == nil && !sameMatrixBits(got, want) {
			t.Fatalf("%s w=%d: Inverse differs from the column solves (max |Δ| %g)", name, w, MaxAbsDiff(got, want))
		}
	}
}

func TestKernelsMatchOracleBitwise(t *testing.T) {
	swapped := 0
	for _, n := range []int{1, 2, 3, 7, 16, 64, 128, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, kind := range []string{"dominant", "general"} {
				name := fmt.Sprintf("n=%d seed=%d %s", n, seed, kind)
				a := RandomDiagonallyDominant(n, seed)
				if kind == "general" {
					a = RandomMatrix(n, n, seed)
				}
				want, wantErr := oracleDecompose(a)
				lu, err := Decompose(a)
				if !errors.Is(err, wantErr) {
					t.Fatalf("%s: Decompose err %v, oracle err %v", name, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !sameMatrixBits(lu.L, want.L) || !sameMatrixBits(lu.U, want.U) {
					t.Fatalf("%s: L or U differs from the oracle", name)
				}
				if fmt.Sprint(lu.Perm) != fmt.Sprint(want.Perm) || lu.Swaps != want.Swaps {
					t.Fatalf("%s: Perm %v swaps %d, oracle %v swaps %d", name, lu.Perm, lu.Swaps, want.Perm, want.Swaps)
				}
				swapped += lu.Swaps

				b := RandomVector(n, seed+100)
				y, err := ForwardSub(lu.L, b)
				wy, werr := oracleForwardSub(lu.L, b)
				if err != nil || werr != nil || !sameBits(y, wy) {
					t.Fatalf("%s: ForwardSub differs (%v, oracle %v)", name, err, werr)
				}
				x, err := BackSub(lu.U, y)
				wx, werr := oracleBackSub(lu.U, y)
				if err != nil || werr != nil || !sameBits(x, wx) {
					t.Fatalf("%s: BackSub differs (%v, oracle %v)", name, err, werr)
				}
				checkInverseBits(t, name, lu)
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no input needed a row swap; the pivoting paths went untested")
	}
}

// TestInverseMatchesOracleOnUnusualFactors covers factors Decompose does
// not produce: a non-unit and negative L diagonal (the skipped forward
// terms then subtract -0), non-finite entries in L (no term may be
// skipped), and singular diagonals.
func TestInverseMatchesOracleOnUnusualFactors(t *testing.T) {
	base := func() *LU {
		lu, err := Decompose(RandomMatrix(16, 16, 9))
		if err != nil {
			t.Fatal(err)
		}
		return lu
	}

	lu := base()
	lu.L.Set(4, 4, -2)
	lu.L.Set(9, 9, 0.5)
	checkInverseBits(t, "non-unit L diagonal", lu)
	// With U = I the -0 a negative L diagonal puts above L⁻¹'s diagonal
	// reaches the result: X[1][2] = -0 - 0*1 = -0.
	l := Identity(3)
	l.Set(1, 1, -2)
	checkInverseBits(t, "negative L diagonal, identity U", &LU{L: l, U: Identity(3), Perm: []int{0, 1, 2}})

	lu = base()
	lu.L.Set(5, 2, math.Inf(1))
	checkInverseBits(t, "infinite L entry", lu)

	lu = base()
	lu.L.Set(11, 3, math.NaN())
	checkInverseBits(t, "NaN L entry", lu)

	lu = base()
	lu.L.Set(6, 6, 0)
	checkInverseBits(t, "zero L diagonal", lu)
	if _, err := lu.Inverse(2); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero L diagonal: %v, want ErrSingular", err)
	}

	lu = base()
	lu.U.Set(15, 15, 1e-301)
	checkInverseBits(t, "tiny U diagonal", lu)
	if _, err := lu.Inverse(1); !errors.Is(err, ErrSingular) {
		t.Fatalf("tiny U diagonal: %v, want ErrSingular", err)
	}
}

func TestInverseRejectsBadShapes(t *testing.T) {
	lu, err := Decompose(RandomDiagonallyDominant(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*LU{
		"short perm":     {L: lu.L, U: lu.U, Perm: lu.Perm[:3]},
		"repeated perm":  {L: lu.L, U: lu.U, Perm: []int{0, 1, 1, 3}},
		"perm too large": {L: lu.L, U: lu.U, Perm: []int{0, 1, 2, 4}},
		"L not square":   {L: New(4, 3), U: lu.U, Perm: lu.Perm},
		"L of order 3":   {L: Identity(3), U: lu.U, Perm: lu.Perm},
	} {
		if _, err := bad.Inverse(2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCholeskyMatchesOracleBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			a := RandomSPD(n, seed)
			want, wantErr := oracleCholesky(a)
			got, err := Cholesky(a)
			if err != nil || wantErr != nil || !sameMatrixBits(got, want) {
				t.Fatalf("n=%d seed=%d: Cholesky differs from the oracle (%v, oracle %v)", n, seed, err, wantErr)
			}
		}
	}
	asym, _ := FromRows([][]float64{{2, 1, 0}, {1, 2, 0}, {0, 0.5, 2}})
	indef, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	for _, a := range []*Matrix{asym, indef, New(3, 3), RandomMatrix(5, 3, 1)} {
		_, err := Cholesky(a)
		_, wantErr := oracleCholesky(a)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Cholesky error %v, oracle error %v", err, wantErr)
		}
	}
}

func BenchmarkOracleLUInverse128(b *testing.B) {
	lu, err := Decompose(RandomDiagonallyDominant(128, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := oracleInverse(lu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleLUDecompose128(b *testing.B) {
	a := RandomDiagonallyDominant(128, 5)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := oracleDecompose(a); err != nil {
			b.Fatal(err)
		}
	}
}
