package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// buildMN creates a small M:N join with chunked base tables and selectors.
func buildMN(t *testing.T, rng *rand.Rand, nS, nR, dS, dR, nU, chunkRows int) (*MNTable, *la.Dense, *la.Dense) {
	t.Helper()
	store := testStore(t)
	sD := randDense(rng, nS, dS)
	rD := randDense(rng, nR, dR)
	jS := make([]int, nS)
	jR := make([]int, nR)
	for i := range jS {
		jS[i] = rng.Intn(nU)
	}
	for i := range jR {
		jR[i] = rng.Intn(nU)
	}
	var isA, irA []int32
	for i, a := range jS {
		for j, b := range jR {
			if a == b {
				isA = append(isA, int32(i))
				irA = append(irA, int32(j))
			}
		}
	}
	if len(isA) == 0 {
		t.Fatal("no join output; adjust nU")
	}
	sM, err := FromDense(store, sD, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	rM, err := FromDense(store, rD, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	isV, err := BuildIntVector(store, isA, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	irV, err := BuildIntVector(store, irA, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := NewMNTable(sM, rM, isV, irV)
	if err != nil {
		t.Fatal(err)
	}
	// Materialized in-memory reference.
	td := la.NewDense(len(isA), dS+dR)
	for i := range isA {
		copy(td.Row(i)[:dS], sD.Row(int(isA[i])))
		copy(td.Row(i)[dS:], rD.Row(int(irA[i])))
	}
	y := la.NewDense(len(isA), 1)
	for i := range y.Data() {
		if rng.Intn(2) == 0 {
			y.Data()[i] = 1
		} else {
			y.Data()[i] = -1
		}
	}
	return mn, td, y
}

func TestLogRegFactorizedMNMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mn, td, y := buildMN(t, rng, 30, 25, 3, 4, 6, 16)
	const iters, alpha = 6, 1e-3
	resF, err := logRegMN(Parallel(), mn, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	wRef, err := ml.LogisticRegressionGD(td, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(resF.W, wRef) > 1e-9 {
		t.Fatalf("M:N factorized deviates by %g", la.MaxAbsDiff(resF.W, wRef))
	}
}

func TestMaterializeMNAndIOAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Small nU → each base tuple repeated many times in the output.
	mn, td, y := buildMN(t, rng, 40, 40, 3, 3, 4, 32)
	store := testStore(t)
	tm, err := MaterializeMN(store, mn)
	if err != nil {
		t.Fatal(err)
	}
	tmD, err := tm.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if !la.EqualApprox(tmD, td, 0) {
		t.Fatal("MaterializeMN content mismatch")
	}
	const iters, alpha = 4, 1e-3
	resM, err := logRegM(Parallel(), tm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := logRegMN(Parallel(), mn, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(resM.W, resF.W) > 1e-9 {
		t.Fatal("materialized vs factorized M:N weights differ")
	}
	if resF.BytesRead >= resM.BytesRead {
		t.Fatalf("factorized M:N read %d bytes, materialized %d", resF.BytesRead, resM.BytesRead)
	}
}

func TestMNTableValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := testStore(t)
	s, _ := FromDense(store, randDense(rng, 5, 2), 4)
	r, _ := FromDense(store, randDense(rng, 5, 2), 4)
	a, _ := BuildIntVector(store, []int32{0, 1, 2}, 4)
	b, _ := BuildIntVector(store, []int32{0, 1}, 4)
	if _, err := NewMNTable(s, r, a, b); err == nil {
		t.Fatal("accepted misaligned selectors")
	}
}
