package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newStore is a one-directory store: newShardedStore with one shard.
func newStore(dir string) (*Store, error) {
	return newShardedStore([]string{dir}, RoundRobin)
}

// newShardedStore creates (if needed) the shard directories and wraps them
// as one store, reaping any stale spill files already in them.
func newShardedStore(dirs []string, policy Placement) (*Store, error) {
	backends := make([]Backend, 0, len(dirs))
	for _, dir := range dirs {
		b, err := NewDirBackend(dir)
		if err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	return NewShardedStoreBackends(backends, policy)
}

// materialize spills a copy of m through NormalizedTable.Materialize: the
// spilling pass that does not recycle the chunks it reads.
func materialize(ex Exec, m Mat) (*Matrix, error) {
	return (&NormalizedTable{S: m}).Materialize(ex)
}

func randDense(rng *rand.Rand, rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = rng.NormFloat64()
	}
	return d
}

// mulExec computes T·x into a chunked matrix aligned with o's scan: the
// whole-matrix LMM of every chunked representation.
func mulExec(o *Operand, x *la.Dense) (*Matrix, error) {
	if x.Cols() == 0 && x.Rows() == o.Cols() { // the product is n×0: nothing to scan for
		return Build(o.rows.Store(), o.Rows(), 0, o.rows.ChunkRows(), func(int, int, *la.Dense) {})
	}
	out, _, err := o.scan(la.Step{X: x, OutCols: x.Cols(), Do: func(b la.Block, tx *la.Dense, _ []float64) (la.Result, error) {
		out := b.Out()
		copy(out.Data(), tx.Data())
		return la.Result{Out: out}, nil
	}}, nil)
	return out, err
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := testStore(t)
	d := randDense(rng, 53, 7) // odd row count: last chunk is ragged
	m, err := FromDense(s, d, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != 6 {
		t.Fatalf("chunks = %d, want 6", m.NumChunks())
	}
	got, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got, d) > 0 {
		t.Fatal("round trip mismatch")
	}
}

func TestBuildStreaming(t *testing.T) {
	s := testStore(t)
	m, err := Build(s, 25, 3, 4, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			for j := 0; j < 3; j++ {
				dst.Set(i-lo, j, float64(i*10+j))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if d.At(24, 2) != 242 || d.At(0, 0) != 0 {
		t.Fatal("Build content mismatch")
	}
}

func TestChunkedOpsMatchInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := testStore(t)
	d := randDense(rng, 40, 6)
	m, err := FromDense(s, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randDense(rng, 6, 3)
	mul, err := mulExec(MatOperand(Parallel(), m), x)
	if err != nil {
		t.Fatal(err)
	}
	mulD, _ := mul.Dense()
	if la.MaxAbsDiff(mulD, la.MatMul(d, x)) > 1e-12 {
		t.Fatal("chunked Mul mismatch")
	}
	xt := randDense(rng, 40, 2)
	tm, err := la.ScanTMul(MatOperand(Parallel(), m), xt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(tm, la.TMatMul(d, xt)) > 1e-10 {
		t.Fatal("chunked TMul mismatch")
	}
	cp, err := m.CrossProdExec(Parallel())
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(cp, d.CrossProd()) > 1e-10 {
		t.Fatal("chunked CrossProd mismatch")
	}
	mat, err := materialize(Parallel(), m)
	if err != nil {
		t.Fatal(err)
	}
	matD, _ := mat.Dense()
	if la.MaxAbsDiff(matD, d) != 0 {
		t.Fatal("chunked Materialize mismatch")
	}
}

func TestMulShapeError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := testStore(t)
	m, _ := FromDense(s, randDense(rng, 10, 4), 5)
	if _, err := mulExec(MatOperand(Parallel(), m), randDense(rng, 5, 2)); err == nil {
		t.Fatal("accepted shape mismatch")
	}
}

// TestOutOfCoreLogRegMatchesInMemory: both chunked strategies must produce
// exactly the weights the in-memory implementations produce, and the
// factorized strategy must read far fewer bytes.
func TestOutOfCoreLogRegMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nS, dS, nR, dR := 300, 4, 12, 16
	s := randDense(rng, nS, dS)
	r := randDense(rng, nR, dR)
	fk := make([]int32, nS)
	for i := range fk {
		fk[i] = int32(rng.Intn(nR))
	}
	// Materialized T.
	td := la.NewDense(nS, dS+dR)
	for i := 0; i < nS; i++ {
		copy(td.Row(i)[:dS], s.Row(i))
		copy(td.Row(i)[dS:], r.Row(int(fk[i])))
	}
	y := la.NewDense(nS, 1)
	for i := range y.Data() {
		if rng.Intn(2) == 0 {
			y.Data()[i] = 1
		} else {
			y.Data()[i] = -1
		}
	}
	const iters, alpha = 8, 1e-3

	store := testStore(t)
	tm, err := FromDense(store, td, 64)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := logRegM(Parallel(), tm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := FromDense(store, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	fkv, err := BuildIntVector(store, fk, 64)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NewNormalizedTable(sm, fkv, r)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := logRegF(Parallel(), nt, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: in-memory materialized GD.
	wRef, err := ml.LogisticRegressionGD(td, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(resM.W, wRef) > 1e-9 {
		t.Fatal("chunked materialized logreg deviates from in-memory")
	}
	if la.MaxAbsDiff(resF.W, wRef) > 1e-9 {
		t.Fatal("chunked factorized logreg deviates from in-memory")
	}
	if resF.BytesRead >= resM.BytesRead {
		t.Fatalf("factorized read %d bytes, materialized %d — no I/O saving", resF.BytesRead, resM.BytesRead)
	}
}

func TestNormalizedTableValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := testStore(t)
	s, _ := FromDense(store, randDense(rng, 20, 2), 8)
	fkShort, _ := BuildIntVector(store, make([]int32, 19), 8)
	if _, err := NewNormalizedTable(s, fkShort, randDense(rng, 3, 2)); err == nil {
		t.Fatal("accepted misaligned FK length")
	}
	fkWrongChunks, _ := BuildIntVector(store, make([]int32, 20), 7)
	if _, err := NewNormalizedTable(s, fkWrongChunks, randDense(rng, 3, 2)); err == nil {
		t.Fatal("accepted misaligned chunking")
	}
}
