package tasklib

import (
	"math"
	"testing"

	"vdce/internal/linalg"
)

func run(t *testing.T, r *Registry, name string, c *Context) []Value {
	t.Helper()
	spec, err := r.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Fn(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(out) != spec.OutPorts {
		t.Fatalf("%s produced %d outputs, declared %d", name, len(out), spec.OutPorts)
	}
	return out
}

func TestMatrixGenerate(t *testing.T) {
	r := Default()
	out := run(t, r, "Matrix_Generate", &Context{Args: map[string]string{"n": "8", "seed": "3"}})
	m := out[0].(*linalg.Matrix)
	if m.Rows != 8 || m.Cols != 8 {
		t.Fatalf("generated %dx%d", m.Rows, m.Cols)
	}
	// Diagonally dominant by default: decomposable.
	if _, err := linalg.Decompose(m); err != nil {
		t.Fatalf("default matrix not decomposable: %v", err)
	}
	// kind=general produces a plain random matrix.
	out2 := run(t, r, "Matrix_Generate", &Context{Args: map[string]string{"n": "4", "kind": "general"}})
	if out2[0].(*linalg.Matrix).Rows != 4 {
		t.Fatal("general matrix wrong size")
	}
	// Bad args rejected.
	spec, _ := r.Get("Matrix_Generate")
	if _, err := spec.Fn(&Context{Args: map[string]string{"n": "0"}}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := spec.Fn(&Context{Args: map[string]string{"n": "zz"}}); err == nil {
		t.Fatal("bad n accepted")
	}
}

func TestLUPipelineSolves(t *testing.T) {
	r := Default()
	n := 16
	a := linalg.RandomDiagonallyDominant(n, 7)
	b := linalg.RandomVector(n, 8)

	luOut := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})
	fw := run(t, r, "Forward_Substitution", &Context{In: []Value{luOut[0], b}})
	bk := run(t, r, "Back_Substitution", &Context{In: []Value{luOut[0], fw[0]}})
	x := bk[0].([]float64)

	res, err := linalg.Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-8 {
		t.Fatalf("LU pipeline residual %g", res)
	}
	// Residual_Norm task agrees.
	rn := run(t, r, "Residual_Norm", &Context{In: []Value{a, x, b}})
	if rn[0].(float64) != res {
		t.Fatalf("Residual_Norm = %v, want %v", rn[0], res)
	}
}

func TestForwardSubValidatesLength(t *testing.T) {
	r := Default()
	a := linalg.RandomDiagonallyDominant(4, 1)
	luOut := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})
	spec, _ := r.Get("Forward_Substitution")
	if _, err := spec.Fn(&Context{In: []Value{luOut[0], []float64{1, 2}}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := spec.Fn(&Context{In: []Value{"junk", []float64{1}}}); err == nil {
		t.Fatal("junk LU accepted")
	}
}

func TestMatrixInversion(t *testing.T) {
	r := Default()
	n := 10
	a := linalg.RandomDiagonallyDominant(n, 5)
	luOut := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})
	invOut := run(t, r, "Matrix_Inversion", &Context{In: []Value{luOut[0]}})
	inv := invOut[0].(*linalg.Matrix)
	prod, err := linalg.MatMul(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(prod, linalg.Identity(n)); d > 1e-8 {
		t.Fatalf("A * inv(A) differs from I by %g", d)
	}
}

func TestMatrixMultiplicationBothForms(t *testing.T) {
	r := Default()
	a := linalg.RandomMatrix(6, 6, 1)
	b := linalg.RandomMatrix(6, 6, 2)
	// Matrix x matrix, sequential and parallel agree.
	seq := run(t, r, "Matrix_Multiplication", &Context{In: []Value{a, b}})
	par := run(t, r, "Matrix_Multiplication", &Context{In: []Value{a, b}, Nodes: 3})
	if d := linalg.MaxAbsDiff(seq[0].(*linalg.Matrix), par[0].(*linalg.Matrix)); d > 1e-12 {
		t.Fatalf("parallel/sequential differ by %g", d)
	}
	// Matrix x vector yields the MatVec result.
	v := linalg.RandomVector(6, 3)
	mv := run(t, r, "Matrix_Multiplication", &Context{In: []Value{a, v}})
	want, err := linalg.MatVec(a, v)
	if err != nil {
		t.Fatal(err)
	}
	got := mv[0].([]float64)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matvec form wrong at %d", i)
		}
	}
}

func TestMatrixAddTransposeVecMul(t *testing.T) {
	r := Default()
	a := linalg.RandomMatrix(5, 5, 1)
	b := linalg.RandomMatrix(5, 5, 2)
	sum := run(t, r, "Matrix_Add", &Context{In: []Value{a, b}})
	want, _ := linalg.Add(a, b)
	if !linalg.Equalish(sum[0].(*linalg.Matrix), want, 0) {
		t.Fatal("Matrix_Add wrong")
	}
	tr := run(t, r, "Matrix_Transpose", &Context{In: []Value{a}})
	if !linalg.Equalish(tr[0].(*linalg.Matrix), a.Transpose(), 0) {
		t.Fatal("Matrix_Transpose wrong")
	}
	v := linalg.RandomVector(5, 3)
	mv := run(t, r, "Matrix_Vector_Multiply", &Context{In: []Value{a, v}})
	wv, _ := linalg.MatVec(a, v)
	gv := mv[0].([]float64)
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatal("Matrix_Vector_Multiply wrong")
		}
	}
}

func TestCholeskyTask(t *testing.T) {
	r := Default()
	spd := run(t, r, "SPD_Generate", &Context{Args: map[string]string{"n": "12", "seed": "4"}})
	l := run(t, r, "Cholesky_Decomposition", &Context{In: spd})
	prod, err := linalg.MatMul(l[0].(*linalg.Matrix), l[0].(*linalg.Matrix).Transpose())
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(spd[0].(*linalg.Matrix), prod); d > 1e-8 {
		t.Fatalf("A - LLt differs by %g", d)
	}
	// Non-SPD input errors out.
	spec, _ := r.Get("Cholesky_Decomposition")
	if _, err := spec.Fn(&Context{In: []Value{linalg.RandomMatrix(4, 4, 1)}}); err == nil {
		t.Fatal("non-SPD matrix accepted")
	}
	gspec, _ := r.Get("SPD_Generate")
	if _, err := gspec.Fn(&Context{Args: map[string]string{"n": "0"}}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// columnInverse is the column-by-column inversion Matrix_Inversion ran
// before it called linalg's Inverse: n unit systems, each through
// ForwardSub and BackSub (themselves checked bit for bit against the
// element-wise kernels in linalg's oracle test).
func columnInverse(lu *LUResult) (*linalg.Matrix, error) {
	n := lu.U.Rows
	inv := linalg.New(n, n)
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
		y, err := linalg.ForwardSub(lu.L, pb)
		if err != nil {
			return nil, err
		}
		x, err := linalg.BackSub(lu.U, y)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, col, x[i])
		}
	}
	return inv, nil
}

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

func TestMatrixInversionBitIdenticalAcrossNodes(t *testing.T) {
	r := Default()
	for _, n := range []int{1, 5, 33, 64} {
		for _, a := range []*linalg.Matrix{linalg.RandomDiagonallyDominant(n, 3), linalg.RandomMatrix(n, n, 4)} {
			luOut := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})
			want, err := columnInverse(luOut[0].(*LUResult))
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range []int{1, 2} {
				got := run(t, r, "Matrix_Inversion", &Context{In: luOut, Nodes: nodes})[0].(*linalg.Matrix)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("n=%d nodes=%d: inverse differs from the column solves", n, nodes)
				}
			}
		}
	}
}

// TestLESResidualMatchesColumnPath runs the Fig. 1 solver through
// RunLocal and recomputes its result along the column-by-column path:
// the solution and its residual must carry the same bits.
func TestLESResidualMatchesColumnPath(t *testing.T) {
	for _, n := range []int{16, 48} {
		seed := int64(n)
		g, err := BuildLinearEquationSolver(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunLocal(g, Default())
		if err != nil {
			t.Fatal(err)
		}
		a := linalg.RandomDiagonallyDominant(n, seed)
		b := linalg.RandomVector(n, seed+1)
		lu, err := linalg.Decompose(a)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := columnInverse(&LUResult{L: lu.L, U: lu.U, Perm: lu.Perm, Swaps: lu.Swaps})
		if err != nil {
			t.Fatal(err)
		}
		x, err := linalg.MatVec(inv, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := linalg.Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks {
			switch task.Name {
			case "Matrix_Multiplication":
				if got := results[task.ID][0].([]float64); !sameBits(got, x) {
					t.Fatalf("n=%d: solution differs from the column path", n)
				}
			case "Residual_Norm":
				if got := results[task.ID][0].(float64); math.Float64bits(got) != math.Float64bits(res) {
					t.Fatalf("n=%d: Residual_Norm %v, column path %v", n, got, res)
				}
			}
		}
	}
}

func TestMatrixTasksRefuseEmptyInputs(t *testing.T) {
	r := Default()
	for _, tc := range []struct {
		task string
		in   []Value
	}{
		{"LU_Decomposition", []Value{&linalg.Matrix{}}},
		{"LU_Decomposition", []Value{(*linalg.Matrix)(nil)}},
		{"Matrix_Transpose", []Value{&linalg.Matrix{Rows: 3}}},
		{"Matrix_Inversion", []Value{(*LUResult)(nil)}},
		{"Matrix_Inversion", []Value{&LUResult{U: linalg.Identity(2), Perm: []int{0, 1}}}},
		{"Matrix_Inversion", []Value{&LUResult{L: linalg.Identity(2), Perm: []int{0, 1}}}},
		{"Matrix_Inversion", []Value{&LUResult{L: &linalg.Matrix{}, U: &linalg.Matrix{}, Perm: []int{}}}},
		{"Matrix_Inversion", []Value{&LUResult{L: linalg.Identity(2), U: linalg.Identity(2)}}},
		{"Back_Substitution", []Value{&LUResult{L: linalg.Identity(2)}, []float64{1, 2}}},
	} {
		spec, err := r.Get(tc.task)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Fn(&Context{In: tc.in, Nodes: 2}); err == nil {
			t.Errorf("%s accepted %#v", tc.task, tc.in[0])
		}
	}
}
