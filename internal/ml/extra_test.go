package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

func TestRidgeFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	nm, td, y := makeJoin(rng, 200, 3, 10, 4)
	wM, err := RidgeRegression(td, y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wF, err := RidgeRegression(nm, y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wM, wF) > 1e-8 {
		t.Fatalf("ridge weights differ by %g", la.MaxAbsDiff(wM, wF))
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, td, y := makeJoin(rng, 100, 2, 6, 3)
	w0, err := RidgeRegression(td, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	wBig, err := RidgeRegression(td, y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	n0 := w0.PowDense(2).Sum()
	nBig := wBig.PowDense(2).Sum()
	if nBig >= n0 {
		t.Fatalf("ridge did not shrink: %g -> %g", n0, nBig)
	}
	if _, err := RidgeRegression(td, y, -1); err == nil {
		t.Fatal("accepted negative lambda")
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Points stretched along (1,1)/√2 with tiny orthogonal noise.
	n := 400
	td := la.NewDense(n, 2)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64() * 10
		b := rng.NormFloat64() * 0.1
		td.Set(i, 0, a+b)
		td.Set(i, 1, a-b)
	}
	res, err := PCA(td, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First component ≈ ±(1,1)/√2.
	c0, c1 := res.Components.At(0, 0), res.Components.At(1, 0)
	if math.Abs(math.Abs(c0)-math.Sqrt2/2) > 0.01 || math.Abs(c0-c1) > 0.02 {
		t.Fatalf("first component (%g, %g)", c0, c1)
	}
	if res.Variances[0] < 100*res.Variances[1] {
		t.Fatalf("variance ordering: %v", res.Variances)
	}
}

func TestPCAFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nm, td, _ := makeJoin(rng, 300, 3, 12, 5)
	pM, err := PCA(td, 3)
	if err != nil {
		t.Fatal(err)
	}
	pF, err := PCA(nm, 3)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if math.Abs(pM.Variances[c]-pF.Variances[c]) > 1e-7*(1+pM.Variances[c]) {
			t.Fatalf("variance %d differs", c)
		}
		// Eigenvectors are sign-ambiguous; compare up to sign.
		dot := 0.0
		for i := 0; i < td.Cols(); i++ {
			dot += pM.Components.At(i, c) * pF.Components.At(i, c)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-6 {
			t.Fatalf("component %d differs (|dot|=%g)", c, math.Abs(dot))
		}
	}
	// Projection over the normalized matrix factorizes the LMM.
	projM := td.Mul(pM.Components)
	projF := nm.Mul(pM.Components)
	if la.MaxAbsDiff(projM, projF) > 1e-9 {
		t.Fatal("factorized projection differs")
	}
}

func TestPCAValidation(t *testing.T) {
	td := la.NewDense(1, 3)
	if _, err := PCA(td, 1); err == nil {
		t.Fatal("accepted n=1")
	}
	td = la.NewDense(5, 3)
	if _, err := PCA(td, 0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := PCA(td, 4); err == nil {
		t.Fatal("accepted k>d")
	}
}
