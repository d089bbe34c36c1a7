package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	s := a.TDense()
	s.AddInPlace(a)
	return s.ScaleDense(0.5)
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randSym(rng, n)
		vals, v := SymEigen(a)
		// Reconstruct V·diag(vals)·Vᵀ.
		vd := v.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, v.At(i, j)*vals[j])
			}
		}
		rec := MatMulT(vd, v)
		if MaxAbsDiff(rec, a) > 1e-9 {
			t.Fatalf("n=%d: eigen reconstruction error %g", n, MaxAbsDiff(rec, a))
		}
		// V orthogonal: VᵀV = I.
		if MaxAbsDiff(TMatMul(v, v), Eye(n)) > 1e-9 {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
	}
}

func TestSymGinvIsInverseForPD(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// A = MᵀM + I is PD, so SymGinv must be the exact inverse.
	m := randDense(rng, 20, 8)
	a := m.CrossProd()
	a.AddInPlace(Eye(8))
	inv := SymGinv(a)
	if MaxAbsDiff(MatMul(a, inv), Eye(8)) > 1e-8 {
		t.Fatal("SymGinv not an inverse for PD matrix")
	}
}

func TestSymGinvSingular(t *testing.T) {
	// Rank-1 matrix vvᵀ with |v|²=s: pseudo-inverse is vvᵀ/s².
	v := []float64{1, 2, 2}
	a := NewDense(3, 3)
	for i := range v {
		for j := range v {
			a.Set(i, j, v[i]*v[j])
		}
	}
	ginv := SymGinv(a)
	s := 9.0 // |v|²
	for i := range v {
		for j := range v {
			want := v[i] * v[j] / (s * s)
			if math.Abs(ginv.At(i, j)-want) > 1e-10 {
				t.Fatalf("rank-1 ginv mismatch at (%d,%d): %g vs %g", i, j, ginv.At(i, j), want)
			}
		}
	}
}

// moorePenroseOK checks the four Moore-Penrose conditions.
func moorePenroseOK(a, g *Dense, tol float64) bool {
	aga := MatMul(MatMul(a, g), a)
	gag := MatMul(MatMul(g, a), g)
	ag := MatMul(a, g)
	ga := MatMul(g, a)
	return MaxAbsDiff(aga, a) <= tol &&
		MaxAbsDiff(gag, g) <= tol &&
		MaxAbsDiff(ag, ag.TDense()) <= tol &&
		MaxAbsDiff(ga, ga.TDense()) <= tol
}

func TestGinvMoorePenroseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randDense(rng, 30, 7)
	g := Ginv(a)
	if g.Rows() != 7 || g.Cols() != 30 {
		t.Fatalf("ginv dims %dx%d", g.Rows(), g.Cols())
	}
	if !moorePenroseOK(a, g, 1e-7) {
		t.Fatal("Moore-Penrose conditions violated (tall)")
	}
}

func TestGinvMoorePenroseWide(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randDense(rng, 6, 25)
	g := Ginv(a)
	if g.Rows() != 25 || g.Cols() != 6 {
		t.Fatalf("ginv dims %dx%d", g.Rows(), g.Cols())
	}
	if !moorePenroseOK(a, g, 1e-7) {
		t.Fatal("Moore-Penrose conditions violated (wide)")
	}
}

func TestGinvRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// Duplicate a column to force rank deficiency.
	a := randDense(rng, 20, 5)
	for i := 0; i < 20; i++ {
		a.Set(i, 4, a.At(i, 3))
	}
	g := Ginv(a)
	if !moorePenroseOK(a, g, 1e-6) {
		t.Fatal("Moore-Penrose conditions violated (rank deficient)")
	}
}

func TestGinvOfCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c, d := randCSR(rng, 25, 6, 0.4)
	if MaxAbsDiff(GinvOf(c), Ginv(d)) > 1e-8 {
		t.Fatal("GinvOf(CSR) != Ginv(dense)")
	}
}

func TestGinvProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(15), 2+r.Intn(15)
		a := randDense(r, rows, cols)
		return moorePenroseOK(a, Ginv(a), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := randDense(rng, 30, 10)
	a := m.CrossProd()
	a.AddInPlace(Eye(10).ScaleDense(0.1))
	b := randDense(rng, 10, 3)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(MatMul(a, x), b) > 1e-8 {
		t.Fatal("SolveSPD residual too large")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}
