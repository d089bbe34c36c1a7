package chunk

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// TestChunkedKMeansMatchesInMemory pins the streamed k-means to ml.KMeans
// with the same seed: identical distance expansion and tie-breaking, so
// assignments agree exactly and centroids to summation-order tolerance.
func TestChunkedKMeansMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	store := testStore(t)
	d := randDense(rng, 220, 6)
	m, err := FromDense(store, d, 32)
	if err != nil {
		t.Fatal(err)
	}
	const k, iters, seed = 5, 6, 7
	ref, err := ml.KMeans(d, k, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kMeans(Parallel(), m, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(got.Centroids, ref.Centroids); diff > 1e-8 {
		t.Fatalf("streamed centroids deviate from in-memory by %g", diff)
	}
	assignD, err := got.Assign.Dense()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref.Assign {
		if int(assignD.At(i, 0)) != want {
			t.Fatalf("row %d assigned to %d, in-memory %d", i, int(assignD.At(i, 0)), want)
		}
	}
	if rel := math.Abs(got.Objective-ref.Objective) / math.Max(math.Abs(ref.Objective), 1); rel > 1e-8 {
		t.Fatalf("objective %g deviates from in-memory %g", got.Objective, ref.Objective)
	}
	if got.BytesRead == 0 {
		t.Fatal("streamed k-means reported zero bytes read")
	}
	if err := got.Assign.Free(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedKMeansSerialParallelIdentical: ordered-commit centroid
// reductions keep the pass bit-deterministic across executions.
func TestChunkedKMeansSerialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	store := testStore(t)
	d := randDense(rng, 150, 5)
	m, err := FromDense(store, d, 16)
	if err != nil {
		t.Fatal(err)
	}
	const k, iters, seed = 4, 5, 3
	serial, err := kMeans(Serial, m, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := kMeans(parExec, m, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial.Centroids, parallel.Centroids) != 0 {
		t.Fatal("parallel centroids not bit-identical to serial")
	}
	if serial.Objective != parallel.Objective {
		t.Fatal("parallel objective not bit-identical to serial")
	}
	sA, err := serial.Assign.Dense()
	if err != nil {
		t.Fatal(err)
	}
	pA, err := parallel.Assign.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(sA, pA) != 0 {
		t.Fatal("parallel assignments not bit-identical to serial")
	}
}

// TestChunkedKMeansSparse runs streamed k-means over CSR chunks — the
// one-hot shapes — and pins it to ml.KMeans on the same CSR matrix.
func TestChunkedKMeansSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	store := testStore(t)
	c := oneHotCSR(rng, 180, 3, 4)
	m, err := FromCSR(store, c, 32)
	if err != nil {
		t.Fatal(err)
	}
	const k, iters, seed = 4, 4, 9
	ref, err := ml.KMeans(c, k, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kMeans(Parallel(), m, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(got.Centroids, ref.Centroids); diff > 1e-8 {
		t.Fatalf("sparse streamed centroids deviate by %g", diff)
	}
}

// TestChunkedKMeansValidation rejects bad arguments.
func TestChunkedKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	store := testStore(t)
	m, err := FromDense(store, randDense(rng, 10, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kMeans(Parallel(), m, 0, 3, 1); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := kMeans(Parallel(), m, 11, 3, 1); err == nil {
		t.Fatal("accepted k>n")
	}
	if _, err := kMeans(Parallel(), m, 2, 0, 1); err == nil {
		t.Fatal("accepted iters=0")
	}
}

// BenchmarkChunkedKMeans streams k-means over a table several times larger
// than the configured memory budget: AutoRows sizes the chunks so the
// pipeline keeps at most ~1 MiB of decoded chunks resident while the table
// holds ~5 MiB.
func BenchmarkChunkedKMeans(b *testing.B) {
	dir, err := os.MkdirTemp("", "morpheus-kmeans-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := newStore(filepath.Join(dir, "chunks"))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()

	const (
		n, d      = 20_000, 32
		k, iters  = 8, 2
		memBudget = 1 << 20 // 1 MiB of resident decoded chunks
	)
	ex := Parallel()
	chunkRows := AutoRows(memBudget, d, ex.Workers, ex.Prefetch)
	rng := rand.New(rand.NewSource(1))
	m, err := Build(store, n, d, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := range dst.Data() {
			dst.Data()[i] = rng.NormFloat64()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if m.BytesOnDisk() <= memBudget {
		b.Fatalf("table is %d bytes, not larger than the %d budget", m.BytesOnDisk(), memBudget)
	}
	b.SetBytes(m.BytesOnDisk() * (iters + 1)) // one read pass per iteration + assignment pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kMeans(ex, m, k, iters, 7)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Assign.Free(); err != nil {
			b.Fatal(err)
		}
	}
}
