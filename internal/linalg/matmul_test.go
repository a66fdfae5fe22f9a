package linalg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equalish(c, want, 1e-12) {
		t.Fatalf("MatMul wrong: %v", c.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := RandomMatrix(6, 6, 9)
	c, err := MatMul(a, Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	if !Equalish(a, c, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := MatMulBlocked(New(2, 3), New(2, 3), 8); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := MatMulParallel(New(2, 3), New(2, 3), 2); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	a := RandomMatrix(37, 53, 11)
	b := RandomMatrix(53, 29, 12)
	ref, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{0, 1, 8, 64, 1000} {
		got, err := MatMulBlocked(a, b, block)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(ref, got); d > 1e-10 {
			t.Fatalf("blocked(%d) differs by %g", block, d)
		}
	}
	for _, workers := range []int{-1, 1, 2, 4, 100} {
		got, err := MatMulParallel(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(ref, got); d > 1e-10 {
			t.Fatalf("parallel(%d) differs by %g", workers, d)
		}
	}
}

// Property: sequential, blocked, and parallel matmul agree on random
// shapes — the invariant the runtime relies on when it swaps computation
// modes for a task.
func TestMatMulAgreementProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw, pRaw uint8) bool {
		m := int(mRaw)%16 + 1
		n := int(nRaw)%16 + 1
		p := int(pRaw)%16 + 1
		a := RandomMatrix(m, n, seed)
		b := RandomMatrix(n, p, seed^1)
		ref, err := MatMul(a, b)
		if err != nil {
			return false
		}
		bl, err := MatMulBlocked(a, b, 4)
		if err != nil {
			return false
		}
		pl, err := MatMulParallel(a, b, 3)
		if err != nil {
			return false
		}
		return MaxAbsDiff(ref, bl) < 1e-10 && MaxAbsDiff(ref, pl) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	x := RandomMatrix(128, 128, 1)
	y := RandomMatrix(128, 128, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulBlocked128(b *testing.B) {
	x := RandomMatrix(128, 128, 1)
	y := RandomMatrix(128, 128, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulBlocked(x, y, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulParallel128(b *testing.B) {
	x := RandomMatrix(128, 128, 1)
	y := RandomMatrix(128, 128, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulParallel(x, y, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUDecompose128(b *testing.B) {
	a := RandomDiagonallyDominant(128, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUInverse128(b *testing.B) {
	lu, err := Decompose(RandomDiagonallyDominant(128, 5))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := lu.Inverse(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
