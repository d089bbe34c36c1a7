package chunk

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// corruptOneChunk truncates the first chunk file in the store directory.
func corruptOneChunk(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			p := filepath.Join(dir, e.Name())
			if err := os.Truncate(p, 8); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no chunk files found")
}

func TestTruncatedChunkSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(store, randDense(rng, 30, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	corruptOneChunk(t, dir)
	if _, err := m.Dense(); err == nil {
		t.Fatal("Dense succeeded on truncated chunk")
	}
	if _, err := m.CrossProdExec(Parallel()); err == nil {
		t.Fatal("CrossProd succeeded on truncated chunk")
	}
	if _, err := mulExec(MatOperand(Parallel(), m), randDense(rng, 4, 2)); err == nil {
		t.Fatal("Mul succeeded on truncated chunk")
	}
}

func TestMissingChunkSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(store, randDense(rng, 20, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if err := os.Remove(filepath.Join(dir, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrossProdExec(Parallel()); err == nil {
		t.Fatal("CrossProd succeeded on missing chunk")
	}
}

func TestLogRegSurfacesChunkError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	td := randDense(rng, 40, 5)
	m, err := FromDense(store, td, 16)
	if err != nil {
		t.Fatal(err)
	}
	y := randDense(rng, 40, 1)
	corruptOneChunk(t, dir)
	if _, err := logRegM(Parallel(), m, y, 2, 1e-3); err == nil {
		t.Fatal("training succeeded on corrupt store")
	}
}

// corruptLastChunk truncates the last chunk file in the store directory,
// so a streaming pass fails mid-stream after earlier chunks succeeded.
func corruptLastChunk(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if strings.HasPrefix(entries[i].Name(), "chunk-") {
			if err := os.Truncate(filepath.Join(dir, entries[i].Name()), 8); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no chunk files found")
}

// TestMapOpsCleanUpOnMidStreamFailure: when Mul/Scale/RowSums fail partway
// through (here: the last input chunk is truncated, so earlier output
// chunks were already written), every orphaned output chunk must be
// removed and nothing half-registered (the satellite bugfix for
// out.paths being appended before writeChunk succeeded).
func TestMapOpsCleanUpOnMidStreamFailure(t *testing.T) {
	for _, ex := range []Exec{Serial, {Workers: 4, Prefetch: 2}} {
		rng := rand.New(rand.NewSource(9))
		dir := t.TempDir()
		store, err := newStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromDense(store, randDense(rng, 40, 4), 8) // 5 chunks
		if err != nil {
			t.Fatal(err)
		}
		corruptLastChunk(t, dir)
		before := chunkFileCount(t, dir)
		live := store.LiveChunks()

		if _, err := mulExec(MatOperand(ex, m), randDense(rng, 4, 2)); err == nil {
			t.Fatal("Mul succeeded on truncated input")
		}
		if _, err := materialize(ex, m); err == nil {
			t.Fatal("Materialize succeeded on truncated input")
		}

		if got := chunkFileCount(t, dir); got != before {
			t.Fatalf("workers=%d: failed ops left %d chunk files, want %d", ex.Workers, got, before)
		}
		if got := store.LiveChunks(); got != live {
			t.Fatalf("workers=%d: failed ops left %d chunks registered, want %d", ex.Workers, got, live)
		}
	}
}

func TestNewStoreBadPath(t *testing.T) {
	// A path under a regular file cannot be created.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newStore(filepath.Join(f, "sub")); err == nil {
		t.Fatal("a store under a file succeeded")
	}
}

// TestDamagedKeyChunkSurfacesError: a key chunk of the right length whose
// contents no longer fit the range recorded at build time — a shard file
// edited on disk, a remote shard answering with another store's bytes —
// is an error naming the chunk, never an index panic on a pipeline
// worker. Both decode sites are hit: a star's key column read beside S,
// and an M:N table's first selector, which is the scan itself.
func TestDamagedKeyChunkSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, cr = 40, 16
	keys := func(domain int) []int32 {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = int32(rng.Intn(domain))
		}
		return ks
	}
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := FromDense(st, randDense(rng, n, 2), cr)
	must(err)
	fk, err := BuildIntVector(st, keys(3), cr)
	must(err)
	star, err := NewNormalizedTable(s, fk, randDense(rng, 3, 2))
	must(err)
	bs, err := FromDense(st, randDense(rng, 5, 2), cr)
	must(err)
	br, err := FromDense(st, randDense(rng, 4, 2), cr)
	must(err)
	is, err := BuildIntVector(st, keys(5), cr)
	must(err)
	ir, err := BuildIntVector(st, keys(4), cr)
	must(err)
	mn, err := NewStarTable(nil, []AttrTable{{FK: is, Disk: bs}, {FK: ir, Disk: br}})
	must(err)
	base := st.LiveChunks()

	y := pmLabels(rng, n)
	passes := map[string]func(*NormalizedTable, Exec) error{
		"Mul": func(nt *NormalizedTable, ex Exec) error {
			m, err := mulExec(nt.Operand(ex), la.Ones(nt.Cols(), 1))
			if err == nil {
				m.Free()
			}
			return err
		},
		"TMul": func(nt *NormalizedTable, ex Exec) error { _, err := la.ScanTMul(nt.Operand(ex), y); return err },
		"Gram": func(nt *NormalizedTable, ex Exec) error { _, err := nt.Operand(ex).Gram(); return err },
		"LogRegScan": func(nt *NormalizedTable, ex Exec) error {
			_, err := ml.LogRegScan(nt.Operand(ex), y, nil, ml.Options{Iters: 1, StepSize: 1e-3})
			return err
		},
	}
	for _, tc := range []struct {
		name string
		nt   *NormalizedTable
		col  *IntVector
	}{{"star", star, fk}, {"mn-scan", mn, is}, {"mn-side", mn, ir}} {
		file := filepath.Join(dir, tc.col.m.paths[0])
		good, err := os.ReadFile(file)
		must(err)
		for _, bad := range []float64{1e6, math.NaN(), -1, 0.5} {
			col := la.NewDense(cr, 1)
			col.Set(1, 0, bad)
			must(os.WriteFile(file, encodeDenseChunk(col), 0o644))
			for name, pass := range passes {
				for _, ex := range []Exec{Serial, {Workers: 3, Prefetch: 2}} {
					err := pass(tc.nt, ex)
					if err == nil || !strings.Contains(err.Error(), tc.col.m.paths[0]) {
						t.Fatalf("%s/%s under %+v with key %v: err = %v, want one naming %s", tc.name, name, ex, bad, err, tc.col.m.paths[0])
					}
					if got := st.LiveChunks(); got != base {
						t.Fatalf("%s/%s with key %v left %d live chunks, want %d", tc.name, name, bad, got, base)
					}
				}
			}
		}
		must(os.WriteFile(file, good, 0o644))
		for name, pass := range passes {
			if err := pass(tc.nt, Parallel()); err != nil {
				t.Fatalf("%s/%s after repair: %v", tc.name, name, err)
			}
		}
	}
}
