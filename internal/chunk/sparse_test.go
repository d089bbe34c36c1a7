package chunk

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
)

// CSR loads the whole matrix back into memory: its chunks stacked in order.
func (m *SparseMatrix) CSR() (*la.CSR, error) {
	parts := make([]*la.CSR, len(m.paths))
	err := m.pipeline(Parallel(), false, nil, func(ci, lo int, c la.Mat) (any, error) {
		return c, nil
	}, func(ci int, v any) error {
		parts[ci] = v.(*la.CSR)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vcatCSR(m.cols, parts), nil
}

// vcatCSR stacks cols-wide sparse matrices vertically: [a; b; ...].
func vcatCSR(cols int, ms []*la.CSR) *la.CSR {
	indptr := []int{0}
	var indices []int32
	var vals []float64
	for _, m := range ms {
		for i := 0; i < m.Rows(); i++ {
			idx, vs := m.RowNNZ(i)
			indices, vals = append(indices, idx...), append(vals, vs...)
			indptr = append(indptr, len(indices))
		}
	}
	return la.NewCSR(len(indptr)-1, cols, indptr, indices, vals)
}

// randCSR builds a random sparse matrix with ~density fraction non-zeros.
func randCSR(rng *rand.Rand, rows, cols int, density float64) *la.CSR {
	b := la.NewCSRBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := testStore(t)
	c := randCSR(rng, 57, 9, 0.2) // ragged last chunk
	m, err := FromCSR(s, c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != 6 {
		t.Fatalf("chunks = %d, want 6", m.NumChunks())
	}
	if m.NNZ() != int64(c.NNZ()) {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), c.NNZ())
	}
	got, err := m.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.Dense(), c.Dense()) > 0 {
		t.Fatal("sparse round trip mismatch")
	}
}

// TestSparseOpsMatchInMemory pins the chunked sparse operators to their
// in-memory CSR counterparts under both serial and parallel execution.
func TestSparseOpsMatchInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := testStore(t)
	c := randCSR(rng, 83, 6, 0.3)
	m, err := FromCSR(s, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exec{Serial, parExec} {
		x := randDense(rng, 6, 3)
		mul, err := mulExec(MatOperand(ex, m), x)
		if err != nil {
			t.Fatal(err)
		}
		mulD, err := mul.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(mulD, c.Mul(x)) > 1e-12 {
			t.Fatal("chunked sparse Mul mismatch")
		}
		if err := mul.Free(); err != nil {
			t.Fatal(err)
		}

		xt := randDense(rng, 83, 2)
		tm, err := la.ScanTMul(MatOperand(ex, m), xt)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(tm, c.TMul(xt)) > 1e-12 {
			t.Fatal("chunked sparse TMul mismatch")
		}

		cp, err := m.CrossProdExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(cp, c.CrossProd()) > 1e-12 {
			t.Fatal("chunked sparse CrossProd mismatch")
		}
	}
}

// TestSparseCorruptChunkSurfacesError: a corrupt sparse chunk must return
// an error, never panic (la.NewCSR's invariant panics are converted).
func TestSparseCorruptChunkSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := randCSR(rng, 30, 5, 0.4)
	m, err := FromCSR(s, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			first = filepath.Join(dir, e.Name())
			break
		}
	}
	// Truncation: wrong byte count.
	if err := os.Truncate(first, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CSR(); err == nil {
		t.Fatal("CSR() succeeded on truncated chunk")
	}
	if _, err := m.CrossProdExec(Parallel()); err == nil {
		t.Fatal("CrossProd succeeded on truncated chunk")
	}
	// Structural corruption: right size, garbage content.
	raw := make([]byte, 8*3)
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrossProdExec(Parallel()); err == nil {
		t.Fatal("CrossProd succeeded on corrupt chunk")
	}
}

// TestSparseFreeRemovesChunks: sparse spill files participate in the same
// refcounted lifecycle as dense ones.
func TestSparseFreeRemovesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := randCSR(rng, 24, 4, 0.5)
	m, err := FromCSR(s, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != m.NumChunks() {
		t.Fatalf("%d files, want %d", got, m.NumChunks())
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != 0 {
		t.Fatalf("%d files left after Free", got)
	}
	if err := m.Stream(Serial, func(_, _ int, _ la.Mat) (any, error) { return nil, nil }, nil); err != ErrFreed {
		t.Fatalf("Stream on freed sparse matrix: %v, want ErrFreed", err)
	}
}
