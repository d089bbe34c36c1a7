package chunk

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
)

// TestDirBackendAtomicWrite: a spill goes through a temp file and an
// atomic rename, so after WriteChunk returns there is exactly the final
// blob — no temp debris — and a failed write leaves nothing at the final
// key.
func TestDirBackendAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChunk("chunk-000001.bin", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "chunk-000001.bin" {
		t.Fatalf("after WriteChunk the directory holds %v, want exactly chunk-000001.bin", entries)
	}
	raw, err := b.ReadChunk("chunk-000001.bin")
	if err != nil || len(raw) != 3 {
		t.Fatalf("ReadChunk = %v bytes, %v", raw, err)
	}
	// A write into a vanished directory fails without leaving the final
	// key readable anywhere.
	sub := filepath.Join(dir, "gone")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	b2, err := NewDirBackend(sub)
	if err != nil {
		t.Fatal(err)
	}
	os.RemoveAll(sub)
	if err := b2.WriteChunk("chunk-000002.bin", []byte{9}); err == nil {
		t.Fatal("WriteChunk into a vanished directory succeeded")
	}
	if _, err := b2.ReadChunk("chunk-000002.bin"); err == nil {
		t.Fatal("failed write left a readable blob at the final key")
	}
}

// TestInterruptedSpillNeverReadable simulates a spill interrupted mid-write
// — a *.tmp file left in the shard directory — and checks (a) the final
// key was never created, so a reader cannot misread a truncated chunk, and
// (b) a fresh store reaps the debris alongside stale chunk files.
func TestInterruptedSpillNeverReadable(t *testing.T) {
	dir := t.TempDir()
	// Debris of a crashed run: one complete stale chunk, one interrupted
	// spill caught between temp-file write and rename.
	if err := os.WriteFile(filepath.Join(dir, "chunk-000007.bin"), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chunk-000008.bin"+tmpSuffix), make([]byte, 13), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newStore(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("debris left after reopen: %v", entries)
	}
	// The interrupted key was never renamed into place, so nothing at the
	// final path could have been misread as a short chunk.
	if _, err := os.Stat(filepath.Join(dir, "chunk-000008.bin")); !os.IsNotExist(err) {
		t.Fatalf("interrupted spill left a readable final file (stat err %v)", err)
	}
}

// TestWriteUntrackedKeyError: writing through the store to a key it no
// longer tracks (freed, or foreign to the store) surfaces a clear error —
// the shardIndex -1 case — instead of writing an orphan blob or panicking.
func TestWriteUntrackedKeyError(t *testing.T) {
	s := testStore(t)
	if err := s.writeChunkFile("chunk-999999.bin", encodeDenseChunk(la.NewDense(1, 1))); err == nil || !strings.Contains(err.Error(), "not tracked") {
		t.Fatalf("write to foreign key: %v, want a not-tracked error", err)
	}
}

// TestSpillerReleasedPathSurfacesError: a spill pass whose output chunks
// were released out from under it (double-free bug in a caller, or a
// foreign path) must fail with an error on emit/finish, never an index
// panic — for both the synchronous and the write-behind spiller.
func TestSpillerReleasedPathSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, ex := range []Exec{Serial, {Workers: 2}} {
		s, _ := testShardedStore(t, 2, RoundRobin)
		sp, err := newOutputSpiller(s, 3, ex, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.release(sp.paths); err != nil {
			t.Fatal(err)
		}
		emitErr := sp.emit(0, randDense(rng, 4, 2))
		_, finErr := sp.finish(emitErr)
		if emitErr == nil && finErr == nil {
			t.Fatalf("workers=%d: spilling to released output paths reported no error", ex.Workers)
		}
	}
}

// TestSpillerForeignShardIndexSurfacesError pins the emit hardening
// directly: a shard index of -1 (untracked path) returns an error instead
// of indexing sp.writers[-1].
func TestSpillerForeignShardIndexSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	s, _ := testShardedStore(t, 2, RoundRobin)
	sp, err := newOutputSpiller(s, 2, Exec{Workers: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	sp.shards[1] = -1 // simulate a path the store no longer tracks
	if err := sp.emit(1, randDense(rng, 4, 2)); err == nil || !strings.Contains(err.Error(), "not tracked") {
		t.Fatalf("emit with shard index -1: %v, want a not-tracked error", err)
	}
	if _, err := sp.finish(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirBackendList pins the Backend.List contract the chunk server's
// key listing (and remote-shard adoption) is built on: only valid chunk
// keys come back, sorted — .tmp spill debris, foreign files, and
// subdirectories are invisible.
func TestDirBackendList(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"chunk-000002.bin", "chunk-000010.bin", "chunk-000001.bin"} {
		if err := b.WriteChunk(key, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, debris := range []string{
		"chunk-000003.bin" + tmpSuffix, // interrupted spill
		"notes.txt",                    // foreign file
		"chunk-abc.bin",                // malformed key
	} {
		if err := os.WriteFile(filepath.Join(dir, debris), []byte{2}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "chunk-000099.bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	keys, err := b.(*dirBackend).List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chunk-000001.bin", "chunk-000002.bin", "chunk-000010.bin"}
	if len(keys) != len(want) {
		t.Fatalf("List() = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("List() = %v, want %v", keys, want)
		}
	}
}
