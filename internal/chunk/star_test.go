package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// oneHotCSR builds an n×(groups·groupWidth) matrix with exactly one 1 per
// group per row — the Table 6 one-hot shape.
func oneHotCSR(rng *rand.Rand, n, groups, groupWidth int) *la.CSR {
	b := la.NewCSRBuilder(n, groups*groupWidth)
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			b.Add(i, g*groupWidth+rng.Intn(groupWidth), 1)
		}
	}
	return b.Build()
}

// buildStar assembles a two-attribute-table star (dense R1, one-hot CSR
// R2) out-of-core plus its dense materialized join output.
func buildStar(t *testing.T, rng *rand.Rand, store *Store, nS, dS, chunkRows int) (*NormalizedTable, *la.Dense) {
	t.Helper()
	nR1, dR1 := 9, 5
	nR2, groups, gw := 7, 2, 3
	s := randDense(rng, nS, dS)
	r1 := randDense(rng, nR1, dR1)
	r2 := oneHotCSR(rng, nR2, groups, gw)
	dR2 := r2.Cols()
	fk1 := make([]int32, nS)
	fk2 := make([]int32, nS)
	for i := range fk1 {
		fk1[i] = int32(rng.Intn(nR1))
		fk2[i] = int32(rng.Intn(nR2))
	}
	td := la.NewDense(nS, dS+dR1+dR2)
	r2d := r2.Dense()
	for i := 0; i < nS; i++ {
		copy(td.Row(i)[:dS], s.Row(i))
		copy(td.Row(i)[dS:dS+dR1], r1.Row(int(fk1[i])))
		copy(td.Row(i)[dS+dR1:], r2d.Row(int(fk2[i])))
	}
	sm, err := FromDense(store, s, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv1, err := BuildIntVector(store, fk1, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv2, err := BuildIntVector(store, fk2, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NewStarTable(sm, []AttrTable{{FK: fkv1, R: r1}, {FK: fkv2, R: r2}})
	if err != nil {
		t.Fatal(err)
	}
	return nt, td
}

func pmLabels(rng *rand.Rand, n int) *la.Dense {
	y := la.NewDense(n, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}
	return y
}

// TestStarChunkedGLMMatchesInMemory pins the star-schema factorized
// chunked GLM to the chunked materialized run and the in-memory reference,
// and checks the factorized pass reads fewer bytes.
func TestStarChunkedGLMMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	store := testStore(t)
	const nS, dS, chunkRows = 260, 4, 32
	nt, td := buildStar(t, rng, store, nS, dS, chunkRows)
	y := pmLabels(rng, nS)
	const iters, alpha = 6, 1e-3

	tm, err := FromDense(store, td, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := logRegM(Parallel(), tm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := logRegF(Parallel(), nt, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	wRef, err := ml.LogisticRegressionGD(td, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(resM.W, wRef); diff > 1e-12 {
		t.Fatalf("star chunked materialized deviates from in-memory by %g", diff)
	}
	if diff := la.MaxAbsDiff(resF.W, wRef); diff > 1e-12 {
		t.Fatalf("star chunked factorized deviates from in-memory by %g", diff)
	}
	if resF.BytesRead >= resM.BytesRead {
		t.Fatalf("star factorized read %d bytes, materialized %d — no I/O saving", resF.BytesRead, resM.BytesRead)
	}
}

// TestStarChunkedGLMSerialParallelIdentical: ordered commit keeps the star
// driver bit-deterministic across executions.
func TestStarChunkedGLMSerialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	store := testStore(t)
	const nS, dS, chunkRows = 210, 3, 16
	nt, _ := buildStar(t, rng, store, nS, dS, chunkRows)
	y := pmLabels(rng, nS)
	serial, err := logRegF(Serial, nt, y, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := logRegF(parExec, nt, y, 5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial.W, parallel.W) != 0 {
		t.Fatal("star parallel weights not bit-identical to serial")
	}
	if serial.BytesRead != parallel.BytesRead {
		t.Fatalf("star bytesRead %d (serial) vs %d (parallel)", serial.BytesRead, parallel.BytesRead)
	}
}

// TestSparseEntityStar runs the factorized star driver with the entity
// table stored as CSR chunks: the same chunk.Mat interface, same weights.
func TestSparseEntityStar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	store := testStore(t)
	const nS, dS, chunkRows = 180, 5, 16
	nt, _ := buildStar(t, rng, store, nS, dS, chunkRows)
	y := pmLabels(rng, nS)

	// Rebuild the same star with S in CSR chunks.
	sDense, err := nt.S.(*Matrix).Dense()
	if err != nil {
		t.Fatal(err)
	}
	sSparse, err := FromCSR(store, la.CSRFromDense(sDense), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	ntSparse, err := NewStarTable(sSparse, nt.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	const iters, alpha = 5, 1e-3
	wDense, err := logRegF(parExec, nt, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	wSparse, err := logRegF(parExec, ntSparse, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(wDense.W, wSparse.W); diff > 1e-12 {
		t.Fatalf("sparse-entity star deviates from dense-entity star by %g", diff)
	}
}

// TestStarTableValidation rejects misaligned or missing components.
func TestStarTableValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	store := testStore(t)
	s, _ := FromDense(store, randDense(rng, 20, 2), 8)
	fk, _ := BuildIntVector(store, make([]int32, 20), 8)
	r := randDense(rng, 3, 2)
	// No entity table is a table whose every column comes from an arm (the
	// M:N shape); the scan then streams the first key column.
	if nt, err := NewStarTable(nil, []AttrTable{{FK: fk, R: r}}); err != nil || nt.Rows() != 20 || nt.Cols() != 2 || nt.ChunkRows() != 8 {
		t.Fatalf("arm-only table: %v, %+v", err, nt)
	}
	if _, err := NewStarTable(s, []AttrTable{{FK: fk, R: r, Disk: s}}); err == nil {
		t.Fatal("accepted an arm held both in memory and on disk")
	}
	if _, err := NewStarTable(s, nil); err == nil {
		t.Fatal("accepted empty star")
	}
	if _, err := NewStarTable(s, []AttrTable{{FK: nil, R: r}}); err == nil {
		t.Fatal("accepted nil FK")
	}
	if _, err := NewStarTable(s, []AttrTable{{FK: fk, R: nil}}); err == nil {
		t.Fatal("accepted nil R")
	}
	fkShort, _ := BuildIntVector(store, make([]int32, 19), 8)
	if _, err := NewStarTable(s, []AttrTable{{FK: fkShort, R: r}}); err == nil {
		t.Fatal("accepted misaligned FK length")
	}
	fkWrongChunks, _ := BuildIntVector(store, make([]int32, 20), 7)
	if _, err := NewStarTable(s, []AttrTable{{FK: fk, R: r}, {FK: fkWrongChunks, R: r}}); err == nil {
		t.Fatal("accepted misaligned chunking")
	}
	// Out-of-range keys must be rejected at construction, not crash a
	// pipeline worker mid-pass.
	big := make([]int32, 20)
	big[7] = int32(r.Rows()) // == nR, one past the last R row
	fkBig, _ := BuildIntVector(store, big, 8)
	if _, err := NewStarTable(s, []AttrTable{{FK: fkBig, R: r}}); err == nil {
		t.Fatal("accepted FK key out of R's range")
	}
	neg := make([]int32, 20)
	neg[3] = -1
	fkNeg, _ := BuildIntVector(store, neg, 8)
	if _, err := NewStarTable(s, []AttrTable{{FK: fkNeg, R: r}}); err == nil {
		t.Fatal("accepted negative FK key")
	}
}
