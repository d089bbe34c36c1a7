// The differential between the in-memory rewrites and their out-of-core
// twins in internal/chunk: an external test package, so core itself stays
// free of the storage layer.
package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// buildStreamed creates matching in-memory and out-of-core views of the
// same PK-FK normalized matrix.
func buildStreamed(t *testing.T, rng *rand.Rand, nS, dS, nR, dR, chunkRows int) (*core.NormalizedMatrix, *chunk.NormalizedTable, *chunk.Store) {
	t.Helper()
	s := la.NewDense(nS, dS)
	r := la.NewDense(nR, dR)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	for i := range r.Data() {
		r.Data()[i] = rng.NormFloat64()
	}
	fk := make([]int, nS)
	fk32 := make([]int32, nS)
	for i := range fk {
		fk[i] = rng.Intn(nR)
		fk32[i] = int32(fk[i])
	}
	k := la.NewIndicator(fk, nR)
	nm, err := core.NewPKFK(s, k, r)
	if err != nil {
		t.Fatal(err)
	}
	store := dirStore(t)
	sm, err := chunk.FromDense(store, s, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv, err := chunk.BuildIntVector(store, fk32, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := chunk.NewNormalizedTable(sm, fkv, r)
	if err != nil {
		t.Fatal(err)
	}
	return nm, nt, store
}

var streamExecs = []chunk.Exec{chunk.Serial, {Workers: 4}}

// mulExec computes T·x in one scan of o into a chunked result aligned with
// it: the whole-matrix LMM of a chunked table.
func mulExec(o la.Operand, x *la.Dense) (*chunk.Matrix, error) {
	tall, _, err := o.Scan(la.Step{X: x, OutCols: x.Cols(), Do: func(b la.Block, tx *la.Dense, _ []float64) (la.Result, error) {
		out := b.Out()
		copy(out.Data(), tx.Data())
		return la.Result{Out: out}, nil
	}}, nil)
	if err != nil {
		return nil, err
	}
	return tall.(*chunk.Matrix), nil
}

// buildStreamedStar creates matching in-memory and out-of-core views of a
// two-attribute-table star schema, with a dense R1 and a sparse CSR R2.
func buildStreamedStar(t *testing.T, rng *rand.Rand, nS, dS, chunkRows int) (*core.NormalizedMatrix, *chunk.NormalizedTable, *chunk.Store) {
	t.Helper()
	nR1, dR1 := 8, 5
	nR2, dR2 := 6, 7
	s := la.NewDense(nS, dS)
	r1 := la.NewDense(nR1, dR1)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	for i := range r1.Data() {
		r1.Data()[i] = rng.NormFloat64()
	}
	b := la.NewCSRBuilder(nR2, dR2)
	for i := 0; i < nR2; i++ {
		b.Add(i, rng.Intn(dR2), 1)
		b.Add(i, rng.Intn(dR2), rng.NormFloat64())
	}
	r2 := b.Build()
	fk1 := make([]int, nS)
	fk2 := make([]int, nS)
	fk1_32 := make([]int32, nS)
	fk2_32 := make([]int32, nS)
	for i := range fk1 {
		fk1[i] = rng.Intn(nR1)
		fk2[i] = rng.Intn(nR2)
		fk1_32[i] = int32(fk1[i])
		fk2_32[i] = int32(fk2[i])
	}
	nm, err := core.NewStar(s, []*la.Indicator{la.NewIndicator(fk1, nR1), la.NewIndicator(fk2, nR2)}, []la.Mat{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	store := dirStore(t)
	sm, err := chunk.FromDense(store, s, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv1, err := chunk.BuildIntVector(store, fk1_32, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv2, err := chunk.BuildIntVector(store, fk2_32, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := chunk.NewStarTable(sm, []chunk.AttrTable{{FK: fkv1, R: r1}, {FK: fkv2, R: r2}})
	if err != nil {
		t.Fatal(err)
	}
	return nm, nt, store
}

// TestStreamedStarCrossProdMatchesInMemory pins the star-generalized
// streamed Algorithm 2 — including the cross-attribute-table blocks — to
// the in-memory factorized CrossProd and the materialized TᵀT.
func TestStreamedStarCrossProdMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	nm, nt, _ := buildStreamedStar(t, rng, 140, 4, 16)
	want := nm.CrossProd()
	mat := nm.Dense().CrossProd()
	for _, ex := range streamExecs {
		got, err := nt.Operand(ex).Gram()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("workers=%d: streamed star crossprod deviates from factorized by %g", ex.Workers, la.MaxAbsDiff(got, want))
		}
		if la.MaxAbsDiff(got, mat) > 1e-10 {
			t.Fatalf("workers=%d: streamed star crossprod deviates from materialized by %g", ex.Workers, la.MaxAbsDiff(got, mat))
		}
	}
}

// TestStreamedStarMulTMulMatchesInMemory pins the star streamed LMM and
// transposed LMM to the in-memory factorized operators.
func TestStreamedStarMulTMulMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	nm, nt, _ := buildStreamedStar(t, rng, 120, 3, 16)
	x := la.NewDense(nm.Cols(), 2)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	wantMul := nm.Mul(x)
	xt := la.NewDense(nm.Rows(), 2)
	for i := range xt.Data() {
		xt.Data()[i] = rng.NormFloat64()
	}
	wantTMul := nm.Transpose().Mul(xt)
	for _, ex := range streamExecs {
		got, err := mulExec(nt.Operand(ex), x)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := got.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(gotD, wantMul) > 1e-12 {
			t.Fatalf("workers=%d: streamed star Mul deviates by %g", ex.Workers, la.MaxAbsDiff(gotD, wantMul))
		}
		if err := got.Free(); err != nil {
			t.Fatal(err)
		}
		gotT, err := la.ScanTMul(nt.Operand(ex), xt)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(gotT, wantTMul) > 1e-10 {
			t.Fatalf("workers=%d: streamed star TMul deviates by %g", ex.Workers, la.MaxAbsDiff(gotT, wantTMul))
		}
	}
}

// TestStarChunkedGLMMatchesNormalizedMatrix is the star differential the
// roadmap asks for: the chunked factorized GLM over a 2-attribute-table
// star must match the in-memory factorized GLM over core.NormalizedMatrix
// to 1e-12.
func TestStarChunkedGLMMatchesNormalizedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nm, nt, store := buildStreamedStar(t, rng, 200, 4, 32)
	defer store.Close()
	y := la.NewDense(nm.Rows(), 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}
	const iters, alpha = 6, 1e-3
	wRef, err := ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range streamExecs {
		w, err := ml.LogRegScan(nt.Operand(ex), y, nil, ml.Options{Iters: iters, StepSize: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(w, wRef); diff > 1e-12 {
			t.Fatalf("workers=%d: star chunked GLM deviates from in-memory factorized by %g", ex.Workers, diff)
		}
	}
}

// TestStreamedCrossProdMatchesInMemory pins the streamed Algorithm 2 to
// the in-memory factorized CrossProd and the materialized TᵀT.
func TestStreamedCrossProdMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nm, nt, _ := buildStreamed(t, rng, 150, 4, 9, 5, 16)
	want := nm.CrossProd()
	mat := nm.Dense().CrossProd()
	for _, ex := range streamExecs {
		got, err := nt.Operand(ex).Gram()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("workers=%d: streamed crossprod deviates from factorized by %g", ex.Workers, la.MaxAbsDiff(got, want))
		}
		if la.MaxAbsDiff(got, mat) > 1e-10 {
			t.Fatalf("workers=%d: streamed crossprod deviates from materialized by %g", ex.Workers, la.MaxAbsDiff(got, mat))
		}
	}
}

// TestStreamedMulMatchesInMemory pins the streamed LMM to the in-memory
// factorized Mul.
func TestStreamedMulMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nm, nt, _ := buildStreamed(t, rng, 130, 3, 8, 6, 16)
	x := la.NewDense(nm.Cols(), 2)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	want := nm.Mul(x)
	for _, ex := range streamExecs {
		got, err := mulExec(nt.Operand(ex), x)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := got.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(gotD, want) > 1e-12 {
			t.Fatalf("workers=%d: streamed Mul deviates by %g", ex.Workers, la.MaxAbsDiff(gotD, want))
		}
		if err := got.Free(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mulExec(nt.Operand(chunk.Serial), la.NewDense(nm.Cols()+1, 2)); err == nil {
		t.Fatal("accepted shape mismatch")
	}
}

// TestStreamedTMulMatchesInMemory pins the streamed Tᵀ·x to the in-memory
// factorized path.
func TestStreamedTMulMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nm, nt, _ := buildStreamed(t, rng, 120, 4, 7, 3, 16)
	x := la.NewDense(nm.Rows(), 2)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	want := nm.Transpose().Mul(x)
	for _, ex := range streamExecs {
		got, err := la.ScanTMul(nt.Operand(ex), x)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("workers=%d: streamed TMul deviates by %g", ex.Workers, la.MaxAbsDiff(got, want))
		}
	}
	if _, err := la.ScanTMul(nt.Operand(chunk.Serial), la.NewDense(nm.Rows()+1, 2)); err == nil {
		t.Fatal("accepted shape mismatch")
	}
}

// TestStreamedMulNormMatchesDMM pins the streamed LMM (mulExec) of a
// chunked normalized matrix by a materialized normalized B against the
// materialized product of both operands.
func TestStreamedMulNormMatchesDMM(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	nm, nt, store := buildStreamed(t, rng, 110, 3, 6, 4, 16)
	defer store.Close()
	// B: an in-memory normalized matrix with nm.Cols() rows.
	nB := nm.Cols()
	sB := la.NewDense(nB, 3)
	rB := la.NewDense(4, 2)
	for i := range sB.Data() {
		sB.Data()[i] = rng.NormFloat64()
	}
	for i := range rB.Data() {
		rB.Data()[i] = rng.NormFloat64()
	}
	fkB := make([]int, nB)
	for i := range fkB {
		fkB[i] = rng.Intn(4)
	}
	b, err := core.NewPKFK(sB, la.NewIndicator(fkB, 4), rB)
	if err != nil {
		t.Fatal(err)
	}
	want := la.MatMul(nm.Dense(), b.Dense())
	for _, ex := range streamExecs {
		got, err := mulExec(nt.Operand(ex), b.Dense()) // B is the small side: materialize it
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := got.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(gotD, want) > 1e-10 {
			t.Fatalf("workers=%d: streamed DMM deviates by %g", ex.Workers, la.MaxAbsDiff(gotD, want))
		}
		if err := got.Free(); err != nil {
			t.Fatal(err)
		}
	}
}

// dirStore is a chunk store over one fresh temp directory.
func dirStore(tb testing.TB) *chunk.Store {
	tb.Helper()
	b, err := chunk.NewDirBackend(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := chunk.NewShardedStoreBackends([]chunk.Backend{b}, chunk.RoundRobin)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
