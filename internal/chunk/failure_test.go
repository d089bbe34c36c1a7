package chunk

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	store, err := NewStore(dir)
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
	if _, err := m.CrossProd(); err == nil {
		t.Fatal("CrossProd succeeded on truncated chunk")
	}
	if _, err := m.Mul(randDense(rng, 4, 2)); err == nil {
		t.Fatal("Mul succeeded on truncated chunk")
	}
	if _, err := m.Sum(); err == nil {
		t.Fatal("Sum succeeded on truncated chunk")
	}
}

func TestMissingChunkSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	store, err := NewStore(dir)
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
	if _, err := m.ColSums(); err == nil {
		t.Fatal("ColSums succeeded on missing chunk")
	}
}

func TestLogRegSurfacesChunkError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	store, err := NewStore(dir)
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
		store, err := NewStore(dir)
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

		if _, err := m.MulExec(ex, randDense(rng, 4, 2)); err == nil {
			t.Fatal("Mul succeeded on truncated input")
		}
		if _, err := m.ScaleExec(ex, 2); err == nil {
			t.Fatal("Scale succeeded on truncated input")
		}
		if _, err := m.RowSumsExec(ex); err == nil {
			t.Fatal("RowSums succeeded on truncated input")
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
	if _, err := NewStore(filepath.Join(f, "sub")); err == nil {
		t.Fatal("NewStore under a file succeeded")
	}
}
