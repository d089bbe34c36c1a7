package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// positiveDense builds a strictly positive matrix (GNMF input domain).
func positiveDense(rng *rand.Rand, rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64() + 0.05
	}
	return d
}

// TestChunkedGNMFMatchesInMemory pins the streamed GNMF to the in-memory
// ml.GNMF on a dense table: identical seed, factors within 1e-12.
func TestChunkedGNMFMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, d, rank, iters, seed = 89, 11, 4, 8, 7
	td := positiveDense(rng, n, d)
	ref, err := ml.GNMF(td, rank, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s := testStore(t)
	tc, err := FromDense(s, td, 9) // ragged last chunk
	if err != nil {
		t.Fatal(err)
	}
	res, err := gnmf(Parallel(), tc, rank, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Rows() != n || res.W.Cols() != rank || res.H.Rows() != d || res.H.Cols() != rank {
		t.Fatalf("factor shapes W %dx%d H %dx%d", res.W.Rows(), res.W.Cols(), res.H.Rows(), res.H.Cols())
	}
	w, err := res.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(res.H, ref.H); diff > 1e-12 {
		t.Fatalf("H diverges from ml.GNMF by %g", diff)
	}
	if diff := la.MaxAbsDiff(w, ref.W); diff > 1e-12 {
		t.Fatalf("W diverges from ml.GNMF by %g", diff)
	}
	if res.BytesRead <= 0 {
		t.Fatal("no I/O accounted")
	}
}

// TestChunkedGNMFSparseMatchesInMemory: the same driver over CSR chunks
// (one-hot Table 6 shape) matches ml.GNMF run on the in-memory CSR.
func TestChunkedGNMFSparseMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n, rank, iters, seed = 77, 3, 6, 5
	sp := oneHotCSR(rng, n, 3, 4)
	ref, err := ml.GNMF(sp, rank, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s := testStore(t)
	tc, err := FromCSR(s, sp, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gnmf(Parallel(), tc, rank, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(res.H, ref.H); diff > 1e-12 {
		t.Fatalf("sparse H diverges from ml.GNMF by %g", diff)
	}
	if diff := la.MaxAbsDiff(w, ref.W); diff > 1e-12 {
		t.Fatalf("sparse W diverges from ml.GNMF by %g", diff)
	}
}

// TestChunkedGNMFSerialParallelIdentical: ordered commit keeps the
// streamed GNMF bit-deterministic across executions.
func TestChunkedGNMFSerialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	s := testStore(t)
	tc, err := FromDense(s, positiveDense(rng, 64, 6), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := gnmf(Serial, tc, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gnmf(Exec{Workers: 4, Prefetch: 8}, tc, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := a.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(a.H, b.H) != 0 || la.MaxAbsDiff(wa, wb) != 0 {
		t.Fatal("serial and parallel GNMF diverged")
	}
}

// TestChunkedGNMFLifecycle: intermediate W generations are freed as the
// iterations advance — after the run the store tracks only the input and
// the final W (plus the second result's, across repeated runs).
func TestChunkedGNMFLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	s := testStore(t)
	tc, err := FromDense(s, positiveDense(rng, 48, 5), 6)
	if err != nil {
		t.Fatal(err)
	}
	base := s.LiveChunks()
	res, err := gnmf(Parallel(), tc, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LiveChunks(); got != base+res.W.NumChunks() {
		t.Fatalf("after GNMF the store tracks %d chunks, want input %d + final W %d", got, base, res.W.NumChunks())
	}
	if err := res.W.Free(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveChunks(); got != base {
		t.Fatalf("after freeing W the store tracks %d chunks, want %d", got, base)
	}
	// Invalid parameters fail loudly.
	if _, err := gnmf(Parallel(), tc, 0, 4, 3); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := gnmf(Parallel(), tc, 2, 0, 3); err == nil {
		t.Fatal("iters 0 accepted")
	}
}
