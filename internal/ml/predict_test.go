package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

func TestPredictLogisticProbabilities(t *testing.T) {
	td := la.DenseFromRows([][]float64{{10}, {-10}, {0}})
	w := la.ColVector([]float64{1})
	p := PredictLogistic(td, w)
	if p.At(0, 0) < 0.99 || p.At(1, 0) > 0.01 || math.Abs(p.At(2, 0)-0.5) > 1e-12 {
		t.Fatalf("probabilities: %v %v %v", p.At(0, 0), p.At(1, 0), p.At(2, 0))
	}
	c := ClassifyLogistic(td, w)
	if c.At(0, 0) != 1 || c.At(1, 0) != -1 {
		t.Fatal("classification mismatch")
	}
}

func TestPredictFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	nm, td, y := makeJoin(rng, 100, 2, 6, 3)
	yb := signLabels(y)
	w, err := LogisticRegressionGD(nm, yb, nil, Options{Iters: 30, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	pM := PredictLogistic(td, w)
	pF := PredictLogistic(nm, w)
	if la.MaxAbsDiff(pM, pF) > 1e-12 {
		t.Fatal("factorized scoring differs from materialized")
	}
}

func TestAccuracyAndRMSE(t *testing.T) {
	pred := la.ColVector([]float64{1, -1, 1, 1})
	y := la.ColVector([]float64{1, -1, -1, 1})
	acc, err := Accuracy(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy %v", acc)
	}
	r, err := RMSE(la.ColVector([]float64{1, 2}), la.ColVector([]float64{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("rmse %v", r)
	}
	if _, err := Accuracy(pred, la.ColVector([]float64{1})); err == nil {
		t.Fatal("accepted mismatched shapes")
	}
	if _, err := RMSE(la.NewDense(0, 1), la.NewDense(0, 1)); err == nil {
		t.Fatal("accepted empty labels")
	}
}

// TestLinRegNESingularFallback: a rank-deficient design must fall back to
// the pseudo-inverse path and still minimize the residual.
func TestLinRegNESingularFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	td := la.NewDense(50, 4)
	for i := 0; i < 50; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		td.Set(i, 0, a)
		td.Set(i, 1, b)
		td.Set(i, 2, a+b) // exactly dependent column
		td.Set(i, 3, rng.NormFloat64())
	}
	y := la.MatMul(td, la.ColVector([]float64{1, 2, 0, 3}))
	w, err := LinearRegressionNE(td, y)
	if err != nil {
		t.Fatal(err)
	}
	resid := sub(la.MatMul(td, w), y)
	if r := math.Sqrt(resid.PowDense(2).Sum()); r > 1e-6 {
		t.Fatalf("singular fallback residual %g", r)
	}
}
