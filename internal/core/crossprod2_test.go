package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// TestTMulMatchesTransposedLMM: the binary crossprod(T, X) = Tᵀ·X of the
// paper's footnote 5 is TMul, on a plain and on a transposed operand
// (crossprod(Tᵀ, X) = T·X).
func TestTMulMatchesTransposedLMM(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := randStar(rng)
	x := randDense(rng, m.Rows(), 3)
	got := m.TMul(x)
	want := la.TMatMul(m.Dense(), x)
	if la.MaxAbsDiff(got, want) > tol {
		t.Fatal("binary crossprod mismatch")
	}
	tm := m.Transpose()
	x2 := randDense(rng, tm.Rows(), 2)
	got2 := tm.TMul(x2)
	want2 := la.TMatMul(m.Dense().TDense(), x2)
	if la.MaxAbsDiff(got2, want2) > tol {
		t.Fatal("binary crossprod (transposed) mismatch")
	}
}

// TestInvertibilityBound verifies the appendix B theorem on constructed
// square normalized matrices: violating TR ≤ 1/FR + 1 forces singularity.
func TestInvertibilityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// nS = dS + dR makes T square. Choose dims violating the bound:
	// dS=2, dR=4 (FR=2), nR=1 -> TR = 6/1 = 6 > 1/2+1.
	nS := 6
	m, err := NewPKFK(randMat(rng, nS, 2), randIndicator(rng, nS, 1), randMat(rng, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != m.Cols() {
		t.Fatal("test setup: T not square")
	}
	if m.InvertibilityBound() {
		t.Fatal("bound should forbid invertibility")
	}
	// And indeed T is singular: rank(KR) ≤ nR = 1 < dR.
	td := m.Dense()
	vals, _ := la.SymEigen(td.CrossProd())
	zero := 0
	for _, v := range vals {
		if math.Abs(v) < 1e-9 {
			zero++
		}
	}
	if zero < 3 { // dR - nR = 3 null directions at least
		t.Fatalf("expected ≥3 zero singular values, found %d (vals=%v)", zero, vals)
	}

	// A square T satisfying the bound is allowed (not guaranteed) to be
	// invertible: dS=2, dR=2 (FR=1), nR=4, nS=4 -> TR=1 ≤ 2.
	m2, err := NewPKFK(randMat(rng, 4, 2), randIndicator(rng, 4, 4), randMat(rng, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !m2.InvertibilityBound() {
		t.Fatal("bound should allow invertibility at TR=1, FR=1")
	}
	// Non-square reports false outright.
	m3 := randPKFK(rng)
	if m3.Rows() != m3.Cols() && m3.InvertibilityBound() {
		t.Fatal("non-square cannot be invertible")
	}
}

func TestSpectralNormEst(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	m := randPKFK(rng)
	est := m.SpectralNormEst(30)
	// Reference: largest eigenvalue of TᵀT.
	vals, _ := la.SymEigen(m.Dense().CrossProd())
	want := 0.0
	for _, v := range vals {
		if v > want {
			want = v
		}
	}
	want = math.Sqrt(want)
	if math.Abs(est-want) > 0.05*want {
		t.Fatalf("spectral norm estimate %g, want ≈%g", est, want)
	}
}
