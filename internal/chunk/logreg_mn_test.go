package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// buildMN creates a small M:N join with chunked base tables and selectors.
func buildMN(t *testing.T, rng *rand.Rand, nS, nR, dS, dR, nU, chunkRows int) (*NormalizedTable, *la.Dense, *la.Dense) {
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
	mn, err := NewStarTable(nil, []AttrTable{{FK: isV, Disk: sM}, {FK: irV, Disk: rM}})
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
	resF, err := logRegF(Parallel(), mn, y, iters, alpha)
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
	tm, err := mn.Materialize(Parallel())
	if err != nil {
		t.Fatal(err)
	}
	tmD, err := tm.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(tmD, td) > 0 {
		t.Fatal("Materialize content mismatch")
	}
	const iters, alpha = 4, 1e-3
	resM, err := logRegM(Parallel(), tm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := logRegF(Parallel(), mn, y, iters, alpha)
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
	if _, err := NewStarTable(nil, []AttrTable{{FK: a, Disk: s}, {FK: b, Disk: r}}); err == nil {
		t.Fatal("accepted misaligned selectors")
	}
	if _, err := NewStarTable(nil, []AttrTable{{FK: a, Disk: s, R: randDense(rng, 5, 2)}, {FK: a, Disk: r}}); err == nil {
		t.Fatal("accepted an arm held both in memory and on disk")
	}
}

// TestMNGramMatchesCore: the factorized cross-product of an M:N join out
// of core — a result with no chunked form before Operand.Gram — agrees
// with core's in-memory rewrite and with the materialized table, and
// FromNormalized spills exactly core.New's parts.
func TestMNGramMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nOut = 120
	sel := func(domain int) *la.Indicator {
		ks := make([]int, nOut)
		for i := range ks {
			ks[i] = rng.Intn(domain)
		}
		return la.NewIndicator(ks, domain)
	}
	s, r, is, ir := randDense(rng, 30, 3), randDense(rng, 25, 4), sel(30), sel(25)
	nm, err := core.NewMN(s, is, ir, r)
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t)
	nt, err := FromNormalized(st, s, is, []*la.Indicator{ir}, []la.Mat{r}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if nt.S != nil || nt.Rows() != nOut || nt.Cols() != 7 || nt.Attrs[0].Disk == nil || nt.Attrs[1].R != nil {
		t.Fatalf("M:N spill is not an arm-only table with chunked arms: %+v", nt)
	}
	want := nm.CrossProd()
	tM, err := nt.Materialize(Parallel())
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exec{Serial, Parallel()} {
		got, err := nt.Operand(ex).Gram()
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(got, want); diff > 1e-10 {
			t.Fatalf("chunked M:N Gram deviates from core.CrossProd by %g", diff)
		}
		mat, err := tM.CrossProdExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(got, mat); diff > 1e-10 {
			t.Fatalf("chunked M:N Gram deviates from the materialized table's by %g", diff)
		}
	}
	tM.Free()
	nt.Free()
	if got := st.LiveChunks(); got != 0 {
		t.Fatalf("%d chunks live after freeing the table and its materialization", got)
	}
}
