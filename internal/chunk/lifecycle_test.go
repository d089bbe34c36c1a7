package chunk

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
)

func chunkFileCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			n++
		}
	}
	return n
}

// TestFreeRemovesIntermediateChunks: a pipeline's intermediate can be
// freed as soon as it is consumed, shrinking the on-disk footprint.
func TestFreeRemovesIntermediateChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(s, randDense(rng, 40, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	base := chunkFileCount(t, dir)
	inter, err := mulExec(MatOperand(Parallel(), m), randDense(rng, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != base+inter.NumChunks() {
		t.Fatalf("after Mul: %d files, want %d", got, base+inter.NumChunks())
	}
	final, err := mulExec(MatOperand(Parallel(), inter), randDense(rng, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := inter.Free(); err != nil {
		t.Fatal(err)
	}
	if err := inter.Free(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != base+final.NumChunks() {
		t.Fatalf("after Free: %d files, want %d", got, base+final.NumChunks())
	}
	// The freed matrix refuses further streaming.
	if _, err := inter.CrossProdExec(Parallel()); !errors.Is(err, ErrFreed) {
		t.Fatalf("CrossProd on freed matrix: %v, want ErrFreed", err)
	}
	if _, err := mulExec(MatOperand(Parallel(), inter), randDense(rng, 4, 1)); !errors.Is(err, ErrFreed) {
		t.Fatalf("Mul on freed matrix: %v, want ErrFreed", err)
	}
	// The surviving result is still readable.
	if _, err := final.Dense(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCloseRemovesEverything: Close deletes all remaining spill
// files and blocks new allocations.
func TestStoreCloseRemovesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(s, randDense(rng, 50, 5), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(Parallel(), m); err != nil {
		t.Fatal(err)
	}
	if s.LiveChunks() == 0 {
		t.Fatal("store tracks no chunks before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != 0 {
		t.Fatalf("after Close: %d chunk files left", got)
	}
	if s.LiveChunks() != 0 {
		t.Fatal("store still tracks chunks after Close")
	}
	if _, err := FromDense(s, randDense(rng, 8, 2), 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("FromDense on closed store: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestPipelineLeavesNoDeadChunks drives a multi-step pipeline the way the
// experiments do — build, transform, reduce, free — and checks the store
// directory holds only the inputs afterwards (the ISSUE acceptance
// criterion: no chunk files left after a pipeline completes).
func TestPipelineLeavesNoDeadChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(s, randDense(rng, 60, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	base := chunkFileCount(t, dir)

	joined, err := materialize(Parallel(), m)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := mulExec(MatOperand(Parallel(), joined), randDense(rng, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.CrossProdExec(Parallel()); err != nil {
		t.Fatal(err)
	}
	if err := joined.Free(); err != nil {
		t.Fatal(err)
	}
	if err := prod.Free(); err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != base {
		t.Fatalf("pipeline left %d files, want the %d inputs", got, base)
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	if got := chunkFileCount(t, dir); got != 0 {
		t.Fatalf("%d files left after freeing everything", got)
	}
}

// TestBuildCleansUpOnWriteFailure: Build removes already-written chunks
// when a later write fails (here: the store directory vanishes
// mid-build).
func TestBuildCleansUpOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "gone")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	s2, err := newStore(sub)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(s2, 40, 2, 8, func(lo, hi int, dst *la.Dense) {
		if lo >= 16 {
			os.RemoveAll(sub) // make the next writeChunk fail
		}
	})
	if err == nil {
		t.Fatal("Build succeeded with a vanished store directory")
	}
	if s2.LiveChunks() != 0 {
		t.Fatalf("failed Build left %d chunks registered", s2.LiveChunks())
	}
}

// TestFromNormalizedFreesOnFailure: the one spill constructor leaves
// nothing behind when any of its chunk writes fails — the k-th, for every
// k, over a 2-arm star (S and two key columns on disk) and an M:N join
// (two base tables and two selector columns).
func TestFromNormalizedFreesOnFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n, cr = 50, 8
	ind := func(domain int) *la.Indicator {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = rng.Intn(domain)
		}
		return la.NewIndicator(ks, domain)
	}
	shapes := []struct {
		name string
		s    la.Mat
		is   *la.Indicator
		ks   []*la.Indicator
		rs   []la.Mat
	}{
		{"star", randDense(rng, n, 3), nil, []*la.Indicator{ind(7), ind(5)}, []la.Mat{randDense(rng, 7, 2), oneHotCSR(rng, 5, 1, 3)}},
		{"mn", randDense(rng, 20, 3), ind(20), []*la.Indicator{ind(9)}, []la.Mat{randDense(rng, 9, 2)}},
	}
	for _, sh := range shapes {
		inner, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		flaky := &failWriteBackend{Backend: inner}
		st, err := NewShardedStoreBackends([]Backend{flaky}, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		flaky.ok.Store(math.MaxInt32)
		nt, err := FromNormalized(st, sh.s, sh.is, sh.ks, sh.rs, cr)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		writes := st.LiveChunks()
		if (nt.S == nil) != (sh.is != nil) || nt.Rows() != n || writes < 2*numChunks(n, cr) {
			t.Fatalf("%s: built S=%v, %d rows, %d chunks", sh.name, nt.S, nt.Rows(), writes)
		}
		if err := nt.Free(); err != nil || st.LiveChunks() != 0 {
			t.Fatalf("%s: Free: %v, %d chunks live", sh.name, err, st.LiveChunks())
		}
		for k := 0; k < writes; k++ {
			flaky.ok.Store(int64(k))
			if _, err := FromNormalized(st, sh.s, sh.is, sh.ks, sh.rs, cr); !errors.Is(err, errInjectedWrite) {
				t.Fatalf("%s: write %d failed but FromNormalized returned %v", sh.name, k, err)
			}
			if got := st.LiveChunks(); got != 0 {
				t.Fatalf("%s: write %d failed and %d chunks leaked", sh.name, k, got)
			}
		}
	}
}
