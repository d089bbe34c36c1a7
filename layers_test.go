package repro

import "testing"

// TestServingFacade drives the serving layer through the public facade:
// train factorized, build a cached-partial scorer plus a micro-batching
// frontend, and check both agree with the training-time predictor.
func TestServingFacade(t *testing.T) {
	nm, err := NewPKFK(
		DenseFromRows([][]float64{{1, 0.5}, {2, -1}, {0.5, 3}, {-1, 2}}),
		NewIndicator([]int{0, 1, 1, 0}, 2),
		DenseFromRows([][]float64{{4, 1, -2}, {-3, 2, 5}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	y := ColVector([]float64{1, -1, 1, -1})
	w, err := LogisticRegressionGD(nm, y, nil, Options{Iters: 30, StepSize: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScorer(nm, w, LogisticHead)
	if err != nil {
		t.Fatal(err)
	}
	want := PredictLogistic(nm, w)
	got, err := sc.ScoreBatch([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		d := g - want.At(i, 0)
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("facade scorer row %d: %g vs %g", i, g, want.At(i, 0))
		}
	}
	b := NewBatcher(sc, BatchOptions{})
	defer b.Close()
	for i := 0; i < nm.Rows(); i++ {
		v, err := b.Score(i)
		if err != nil || v != got[i] {
			t.Fatalf("batched facade score row %d: %g, %v", i, v, err)
		}
	}
}
