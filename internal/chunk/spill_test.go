package chunk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/la"
)

// refEncodeDense is the dense chunk encoder as a plain loop: every float64's
// bits, little-endian, row after row. The store's encoder must write exactly
// these bytes whether it copies or hands over the chunk's own storage.
func refEncodeDense(d *la.Dense) []byte {
	raw := make([]byte, 8*len(d.Data()))
	for i, v := range d.Data() {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return raw
}

// goid names the calling goroutine by the number runtime.Stack prints.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// storedBlobs reads every chunk blob of paths back from its shard.
func storedBlobs(t *testing.T, s *Store, paths []string) [][]byte {
	t.Helper()
	blobs := make([][]byte, len(paths))
	for i, p := range paths {
		b, err := s.backendFor(p)
		if err == nil {
			blobs[i], err = b.ReadChunk(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// TestEncodeDenseChunkInPlace: on a little-endian host the blob of an
// aligned chunk is the chunk's own storage (no allocation) and holds the
// reference encoder's bytes.
func TestEncodeDenseChunkInPlace(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: every chunk takes the copy loop")
	}
	d := randDense(rand.New(rand.NewSource(62)), 16, 5)
	if allocs := testing.AllocsPerRun(100, func() { encodeDenseChunk(d) }); allocs != 0 {
		t.Fatalf("encoding an aligned chunk allocates %v times, want 0", allocs)
	}
	raw := encodeDenseChunk(d)
	if !bytes.Equal(raw, refEncodeDense(d)) {
		t.Fatal("in-place blob differs from the reference encoding")
	}
	d.Set(0, 0, 42)
	if math.Float64frombits(binary.LittleEndian.Uint64(raw)) != 42 {
		t.Fatal("the blob does not alias its aligned chunk")
	}
	if got := encodeDenseChunk(la.NewDense(0, 3)); len(got) != 0 {
		t.Fatalf("an empty chunk encodes to %d bytes", len(got))
	}
}

// TestBuildGenContract: Build calls gen once per chunk, in ascending row
// order, on the calling goroutine — and so NewTall's fill sees the blocks
// in order — whatever the shard count and GOMAXPROCS, while the writes go
// behind it. What gen wrote is what the matrix holds.
func TestBuildGenContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rows, cols, chunkRows = 103, 3, 8 // a ragged last chunk
	want := numChunks(rows, chunkRows)
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("GOMAXPROCS=%d/%d shards", procs, shards)
			s, err := newShardedStore(shardDirs(t, shards), RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			caller := goid()
			type call struct {
				lo, hi, rows int
				g            string
			}
			var calls []call
			m, err := Build(s, rows, cols, chunkRows, func(lo, hi int, dst *la.Dense) {
				calls = append(calls, call{lo, hi, dst.Rows(), goid()})
				for i := range dst.Data() {
					dst.Data()[i] = float64(lo*cols + i)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != want {
				t.Fatalf("%s: gen called %d times, want %d", name, len(calls), want)
			}
			for ci, c := range calls {
				lo := ci * chunkRows
				if hi := min(lo+chunkRows, rows); c.lo != lo || c.hi != hi || c.rows != hi-lo || c.g != caller {
					t.Fatalf("%s: call %d = rows [%d,%d) into %d rows on goroutine %s, want [%d,%d) on %s", name, ci, c.lo, c.hi, c.rows, c.g, lo, hi, caller)
				}
			}
			got, err := m.Dense()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data() {
				if v != float64(i) {
					t.Fatalf("%s: element %d reads %v, want %d", name, i, v, i)
				}
			}

			// NewTall's fill: numbered in call order, so chunk ci must hold ci.
			var fills []string
			tall, err := MatOperand(Exec{}, m).NewTall(2, func(dst *la.Dense) {
				for i := range dst.Data() {
					dst.Data()[i] = float64(len(fills))
				}
				fills = append(fills, goid())
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(fills) != want {
				t.Fatalf("%s: fill called %d times, want %d", name, len(fills), want)
			}
			for ci, g := range fills {
				_, c, err := tall.Chunk(ci)
				if err != nil {
					t.Fatal(err)
				}
				if g != caller || c.At(0, 0) != float64(ci) || c.At(c.Rows()-1, 1) != float64(ci) {
					t.Fatalf("%s: block %d was fill call %v on goroutine %s, want call %d on %s", name, ci, c.At(0, 0), g, ci, caller)
				}
			}
			if err := errors.Join(tall.Free(), m.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWidthDeterminismSpill: every spill path — Build, FromDense,
// BuildIntVector and a scan step with OutCols — writes blobs byte-identical
// to the reference encoder at GOMAXPROCS 1, 2 and 7, on a two-shard store
// whose write-behind is sized from GOMAXPROCS. A buffer reused before its
// write finished, or written from the wrong chunk, shows as a blob that
// differs.
func TestWidthDeterminismSpill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rows, cols, chunkRows = 300, 4, 7
	rng := rand.New(rand.NewSource(63))
	d := randDense(rng, rows, cols)
	keys := make([]int32, rows)
	for i := range keys {
		keys[i] = int32(rng.Intn(1000)) - 500
	}
	x := randDense(rng, cols, 3)
	// chunksOf cuts w into the chunks of chunkRows rows a store holds.
	chunksOf := func(w *la.Dense) []*la.Dense {
		var out []*la.Dense
		for lo := 0; lo < w.Rows(); lo += chunkRows {
			out = append(out, w.SliceRowsDense(lo, min(lo+chunkRows, w.Rows())))
		}
		return out
	}
	keyCol := la.NewDense(rows, 1)
	for i, k := range keys {
		keyCol.Data()[i] = float64(k)
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		s, err := newShardedStore(shardDirs(t, 2), RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		built, err := Build(s, rows, cols, chunkRows, func(lo, hi int, dst *la.Dense) {
			copy(dst.Data(), d.Data()[lo*cols:hi*cols])
		})
		if err != nil {
			t.Fatal(err)
		}
		fromDense, err := FromDense(s, d, chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := BuildIntVector(s, keys, chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		product, err := mulExec(MatOperand(Exec{}, fromDense), x)
		if err != nil {
			t.Fatal(err)
		}
		// The scan's rows come from the chunks' own products, whose bits
		// Dense.Mul reproduces chunk by chunk.
		var wantProduct []*la.Dense
		for _, c := range chunksOf(d) {
			wantProduct = append(wantProduct, c.Mul(x))
		}
		for _, c := range []struct {
			name string
			m    *Matrix
			want []*la.Dense
		}{
			{"Build", built, chunksOf(d)},
			{"FromDense", fromDense, chunksOf(d)},
			{"BuildIntVector", iv.m, chunksOf(keyCol)},
			{"scan OutCols", product, wantProduct},
		} {
			blobs := storedBlobs(t, s, c.m.paths)
			if len(blobs) != len(c.want) {
				t.Fatalf("GOMAXPROCS=%d %s: %d chunks, want %d", procs, c.name, len(blobs), len(c.want))
			}
			for ci, blob := range blobs {
				if !bytes.Equal(blob, refEncodeDense(c.want[ci])) {
					t.Fatalf("GOMAXPROCS=%d %s: chunk %d's blob differs from the reference encoding", procs, c.name, ci)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// listFiles lists every file in dirs.
func listFiles(t *testing.T, dirs []string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			files = append(files, filepath.Join(dir, n.Name()))
		}
	}
	return files
}

// waitGoroutines waits up to a second for the goroutine count to fall to
// at most n and returns the last count seen.
func waitGoroutines(n int) int {
	got := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); got > n && time.Now().Before(end); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestBuildWriteFailure: a write failing on one shard of two fails Build
// with that error; the chunks already written on either shard are removed,
// so LiveChunks is back at its baseline and no chunk or write debris
// remains at a readable key, and no writer goroutine outlives Build.
func TestBuildWriteFailure(t *testing.T) {
	const rows, cols, chunkRows = 90, 3, 6 // 15 chunks, 8 and 7 per shard
	d := randDense(rand.New(rand.NewSource(64)), rows, cols)
	for _, failing := range []int{0, 1} {
		for _, ok := range []int64{0, 1, 3, 6} {
			dirs := shardDirs(t, 2)
			backends := make([]Backend, 2)
			var flaky *failWriteBackend
			for i, dir := range dirs {
				b, err := NewDirBackend(dir)
				if err != nil {
					t.Fatal(err)
				}
				if i == failing {
					flaky = &failWriteBackend{Backend: b}
					b = flaky
				}
				backends[i] = b
			}
			s, err := NewShardedStoreBackends(backends, RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			flaky.ok.Store(math.MaxInt32)
			kept, err := FromDense(s, d, 50) // chunks that must survive the failure
			if err != nil {
				t.Fatal(err)
			}
			baseline, files := s.LiveChunks(), listFiles(t, dirs)
			goroutines := runtime.NumGoroutine()
			flaky.ok.Store(ok)
			if _, err := FromDense(s, d, chunkRows); !errors.Is(err, errInjectedWrite) {
				t.Fatalf("shard %d failing after %d writes: Build returned %v, want the injected failure", failing, ok, err)
			}
			if got := s.LiveChunks(); got != baseline {
				t.Fatalf("shard %d failing after %d writes: %d chunks live, want the baseline %d", failing, ok, got, baseline)
			}
			if left := listFiles(t, dirs); fmt.Sprint(left) != fmt.Sprint(files) {
				t.Fatalf("shard %d failing after %d writes: the shards hold %v, want only %v", failing, ok, left, files)
			}
			if got := waitGoroutines(goroutines); got > goroutines {
				t.Fatalf("shard %d failing after %d writes: %d goroutines after Build, %d before", failing, ok, got, goroutines)
			}
			if back, err := kept.Dense(); err != nil || la.MaxAbsDiff(back, d) != 0 {
				t.Fatalf("shard %d failing after %d writes: the earlier matrix reads %v", failing, ok, err)
			}
		}
	}
}

// hashingBackend records a hash of every blob when WriteChunk is called and
// keeps the blob itself, as a backend whose write may still be reading it
// after WriteChunk returns (a remote request body) would.
type hashingBackend struct {
	Backend
	mu    sync.Mutex
	blobs [][]byte
	sums  [][sha256.Size]byte
}

func (b *hashingBackend) WriteChunk(key string, data []byte) error {
	b.mu.Lock()
	b.blobs, b.sums = append(b.blobs, data), append(b.sums, sha256.Sum256(data))
	b.mu.Unlock()
	return b.Backend.WriteChunk(key, data)
}

// TestBuildLeavesHeldBlobsAlone: Build reuses a chunk buffer only on a
// backend that provably keeps nothing of a written blob. On any other one
// every blob it was handed hashes the same after Build returns as when its
// write began, so a buffer reused while its write may be in flight shows.
func TestBuildLeavesHeldBlobsAlone(t *testing.T) {
	inner, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hb := &hashingBackend{Backend: inner}
	s, err := NewShardedStoreBackends([]Backend{hb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols, chunkRows = 400, 3, 5 // 80 chunks: many times the window
	m, err := Build(s, rows, cols, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := range dst.Data() {
			dst.Data()[i] = float64(lo*cols + i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.blobs) != m.NumChunks() {
		t.Fatalf("%d writes for %d chunks", len(hb.blobs), m.NumChunks())
	}
	for i, blob := range hb.blobs {
		if sha256.Sum256(blob) != hb.sums[i] {
			t.Fatalf("write %d's blob changed after WriteChunk was called", i)
		}
	}
}

// TestBuildAllocs: Build writes each chunk's own storage, with no encoded
// copy, and a directory shard hands the buffer back once its write has
// returned, so spilling 64 chunks allocates fewer than the write-behind
// window's buffers plus one, not a buffer (or two) per chunk — on one
// core too, where Exec{} is the serial loop but Build still writes behind.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const chunks, cols, chunkRows = 64, 16, 512
			s := testStore(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Build(s, chunks*chunkRows, cols, chunkRows, func(lo, _ int, dst *la.Dense) {
				for i := range dst.Data() {
					dst.Data()[i] = float64(lo + i)
				}
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			_, window := Exec{}.depth()
			if limit := uint64((window + 1) * chunkRows * cols * 8); got >= limit {
				t.Errorf("GOMAXPROCS %d: Build of %d chunks allocates %d B, want < %d (the window's buffers plus one)", procs, chunks, got, limit)
			}
		}()
	}
}
