package orion

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

func makeData(rng *rand.Rand, nS, dS, nR, dR int) (*la.Dense, *la.Dense, []int32, *core.NormalizedMatrix) {
	s := la.NewDense(nS, dS)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	r := la.NewDense(nR, dR)
	for i := range r.Data() {
		r.Data()[i] = rng.NormFloat64()
	}
	fk := make([]int32, nS)
	assign := make([]int, nS)
	for i := range fk {
		v := rng.Intn(nR)
		fk[i] = int32(v)
		assign[i] = v
	}
	nm, err := core.NewPKFK(s, la.NewIndicator(assign, nR), r)
	if err != nil {
		panic(err)
	}
	return s, r, fk, nm
}

func labels(rng *rand.Rand, nm *core.NormalizedMatrix) *la.Dense {
	w := la.NewDense(nm.Cols(), 1)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	y := nm.Mul(w)
	for i, v := range y.Data() {
		if v >= 0 {
			y.Data()[i] = 1
		} else {
			y.Data()[i] = -1
		}
	}
	return y
}

// TestOrionLogisticMatchesMorpheus: Orion's hash-based factorized learning
// and Morpheus's LA rewrites compute the same gradient-descent iterates.
func TestOrionLogisticMatchesMorpheus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, r, fk, nm := makeData(rng, 120, 3, 8, 4)
	y := labels(rng, nm)
	g, err := NewGLM(s, r, fk)
	if err != nil {
		t.Fatal(err)
	}
	wOrion, err := g.LogisticGD(y, 12, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	wMorpheus, err := ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: 12, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wOrion, wMorpheus) > 1e-9 {
		t.Fatalf("Orion vs Morpheus logistic weights differ by %g", la.MaxAbsDiff(wOrion, wMorpheus))
	}
}

func TestOrionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, r, fk, _ := makeData(rng, 10, 2, 3, 2)
	if _, err := NewGLM(nil, r, fk); err == nil {
		t.Fatal("accepted nil S")
	}
	if _, err := NewGLM(s, r, fk[:5]); err == nil {
		t.Fatal("accepted short fk")
	}
	bad := append([]int32{}, fk...)
	bad[0] = 99
	if _, err := NewGLM(s, r, bad); err == nil {
		t.Fatal("accepted out-of-range fk")
	}
	g, _ := NewGLM(s, r, fk)
	if _, err := g.LogisticGD(la.NewDense(9, 1), 5, 0.1); err == nil {
		t.Fatal("accepted mismatched labels")
	}
	if _, err := g.LogisticGD(la.NewDense(10, 1), 0, 0.1); err == nil {
		t.Fatal("accepted zero iterations")
	}
}
