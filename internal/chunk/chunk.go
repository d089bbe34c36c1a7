// Package chunk is the out-of-core substitute for Oracle R Enterprise in
// the paper's §5.2.4 scalability experiments. ORE executes LA operators
// over an RDBMS-resident table by partitioning it into row chunks
// (ore.rowapply) and streaming operator code over the chunks; this package
// reproduces that execution model with a directory-backed chunk store, so
// that the materialized matrix pays per-iteration I/O plus FLOPs
// proportional to nS·(dS+dR) while the factorized version streams only the
// base tables (Tables 9 and 10).
//
// Execution is pipelined and parallel: every streaming pass runs as
//
//	reader ──2W chunks ahead──▶ W compute workers ──▶ ordered commit
//
// so the next chunks are read from disk while the current ones are being
// computed, and independent chunks proceed on all cores. Reductions are
// committed in chunk order, which makes parallel results bit-identical to
// the serial pass. See Exec, Serial, and Parallel.
//
// Every chunk file has exactly one owning matrix, and its Store tracks it:
// Matrix.Free deletes a matrix's chunks as soon as a pipeline no longer
// needs the intermediate, and Store.Close removes whatever is left, so long
// pipelines do not accumulate dead spill files.
//
// Where a shard's bytes live is pluggable (Backend): local spill
// directories by default, remote chunk servers (NewRemoteBackend, the
// morpheus-chunkd protocol) for multi-node sharding, or any mix of the
// two under one store (NewShardedStoreBackends).
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/la"
)

// ErrClosed is returned when allocating chunks in a closed store.
var ErrClosed = errors.New("chunk: store closed")

// ErrFreed is returned when streaming a matrix whose chunks were freed.
var ErrFreed = errors.New("chunk: use of freed matrix")

// Placement selects how a sharded store spreads chunk files across its
// shards. RoundRobin is the one policy.
type Placement int

// RoundRobin cycles chunk allocations across the shards in order. It
// balances chunk counts, and so bytes too: the chunks of each matrix, all
// of one width, alternate across the shards.
const RoundRobin Placement = 0

// shard is one chunk backend (a spill directory or a remote chunk server)
// plus its accounting.
type shard struct {
	backend Backend
	bytes   int64 // written bytes currently tracked on this shard

	chunksRead     int   // blobs fetched by passes
	bytesRead      int64 // stored bytes of those fetches
	chunksExecuted int   // chunks mapped in place by the shard's /exec
}

// chunkInfo is the store's bookkeeping for one chunk file.
type chunkInfo struct {
	shard   int
	written bool  // recordWrite ran (distinguishes a 0-byte file from no file)
	bytes   int64 // actual file size once written
}

// Store manages chunks across one or more shard backends — local spill
// directories, remote chunk servers, or a mix (NewShardedStoreBackends).
// Each chunk file belongs to exactly one matrix: the matrix registers its
// chunks at creation, Free deletes them, and Close deletes every file the
// store still tracks, across all shards. A Store is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	shards []shard
	next   int // chunks allocated so far: the key counter and the round-robin cursor
	refs   map[string]*chunkInfo
	closed bool

	free      [][]byte         // read buffers handed back by recycle
	onRecycle func(buf []byte) // tests only: sees every buffer handed back
}

// NewShardedStoreBackends wraps arbitrary chunk backends as one store, so
// local spill directories and remote chunk servers (NewRemoteBackend) can
// shard one store's chunks between them; a local spill directory is
// NewDirBackend. Round-robin placement, per-shard write-behind queues, the
// chunk lifecycle, and IOStats accounting are backend-agnostic and run
// unchanged; policy must be RoundRobin.
//
// Each backend's stale blobs from a crashed previous run (Backend.Reap) are
// removed before the store is returned.
func NewShardedStoreBackends(backends []Backend, policy Placement) (*Store, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("chunk: sharded store needs at least one backend")
	}
	if policy != RoundRobin {
		return nil, fmt.Errorf("chunk: unknown placement policy %d", policy)
	}
	seen := make(map[string]bool, len(backends))
	s := &Store{refs: make(map[string]*chunkInfo)}
	for _, b := range backends {
		if seen[b.Name()] {
			return nil, fmt.Errorf("chunk: shard %q listed twice", b.Name())
		}
		seen[b.Name()] = true
		if err := b.Reap(); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, shard{backend: b})
	}
	return s, nil
}

// NumShards reports the number of shard directories.
func (s *Store) NumShards() int { return len(s.shards) }

// alloc reserves n fresh chunk keys for one new matrix, placing each on
// the next shard in round-robin order. Keys are unique across the whole
// store (one counter), so a key also names a unique blob within whichever
// backend it lands on.
func (s *Store) alloc(n int) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	paths := make([]string, n)
	for i := range paths {
		si := s.next % len(s.shards)
		s.next++
		p := fmt.Sprintf("chunk-%06d.bin", s.next)
		s.refs[p] = &chunkInfo{shard: si}
		paths[i] = p
	}
	return paths, nil
}

// backendFor resolves the shard backend a tracked chunk key was placed on.
// An untracked key — already freed, or foreign to this store — surfaces as
// an error instead of a panic or a confusing missing-file read.
func (s *Store) backendFor(key string) (Backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.refs[key]
	if !ok {
		return nil, fmt.Errorf("chunk: %s is not tracked by this store (freed or foreign)", key)
	}
	return s.shards[info.shard].backend, nil
}

// execGroup is the chunks (indices into a pass's keys, ascending) that one
// exec-capable shard maps in place.
type execGroup struct {
	shard int
	eb    ExecBackend
	cis   []int
}

// execPlacement groups a pass's keys by the exec-capable shard holding
// them, one group per shard. Keys on passive shards, and untracked keys
// (which surface their error on read), are in no group: they are read.
func (s *Store) execPlacement(keys []string) []execGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	byShard := make([]execGroup, len(s.shards))
	for ci, k := range keys {
		info, ok := s.refs[k]
		if !ok {
			continue
		}
		g := &byShard[info.shard]
		if g.eb, ok = s.shards[info.shard].backend.(ExecBackend); ok {
			g.shard, g.cis = info.shard, append(g.cis, ci)
		}
	}
	var groups []execGroup
	for _, g := range byShard {
		if len(g.cis) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// shardIndex reports which shard a chunk path was placed on (-1 when the
// path is no longer tracked).
func (s *Store) shardIndex(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if info, ok := s.refs[path]; ok {
		return info.shard
	}
	return -1
}

// readOrder computes the placement-aware read order for a pipelined pass
// over keys: on a multi-shard store the reader interleaves chunks
// round-robin across shards within admission-bound windows (see
// interleavedOrder), so all spindles/nodes stream concurrently. Returns
// nil — plain chunk order — for single-shard stores and for the serial
// reference execution, whose strict read-compute-commit loop is pinned by
// the benchmarks.
func (s *Store) readOrder(keys []string, ex Exec) []int {
	lookahead, window := ex.depth()
	if lookahead == 0 {
		return nil
	}
	s.mu.Lock()
	if len(s.shards) < 2 {
		s.mu.Unlock()
		return nil
	}
	shardOf := make([]int, len(keys))
	for i, k := range keys {
		if info, ok := s.refs[k]; ok {
			shardOf[i] = info.shard
		}
	}
	numShards := len(s.shards)
	s.mu.Unlock()
	return interleavedOrder(shardOf, numShards, window)
}

// recordWrite attributes a successfully written chunk file's size to its
// shard, for the per-shard stats.
func (s *Store) recordWrite(path string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.refs[path]
	if !ok || info.written {
		return
	}
	info.written = true
	info.bytes = n
	s.shards[info.shard].bytes += n
}

// removal is one untracked chunk blob awaiting backend deletion. Backend
// removes run outside the store mutex — a Remove may now be a network
// call (remote shards), and holding the lock across it would stall every
// alloc, read, and spill on the healthy shards. Keys are never reused
// (one monotone counter), so deleting after unlock cannot collide with a
// fresh allocation.
type removal struct {
	backend Backend
	key     string
}

// removeAll performs the collected backend deletions — concurrently
// across backends, since each may be a different disk or node — and
// keeps the first error. After a backend's first failed Remove its
// remaining keys are skipped: a dead remote shard should cost one
// round of bounded retries per Free, not one per chunk, and whatever
// blobs it still holds are reaped when the shard is next adopted.
func removeAll(removals []removal) error {
	perBackend := make(map[Backend][]string)
	for _, r := range removals {
		perBackend[r.backend] = append(perBackend[r.backend], r.key)
	}
	errs := make(chan error, len(perBackend))
	for b, keys := range perBackend {
		go func(b Backend, keys []string) {
			for _, k := range keys {
				if err := b.Remove(k); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(b, keys)
	}
	var firstErr error
	for range perBackend {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// release untracks the chunks of a freed matrix and deletes their files.
// Missing files (e.g. a failed write that never created one) are not errors.
func (s *Store) release(paths []string) error {
	s.mu.Lock()
	var removals []removal
	for _, p := range paths {
		info, ok := s.refs[p]
		if !ok {
			continue
		}
		delete(s.refs, p)
		sh := &s.shards[info.shard]
		sh.bytes -= info.bytes
		removals = append(removals, removal{backend: sh.backend, key: p})
	}
	s.mu.Unlock()
	return removeAll(removals)
}

// LiveChunks reports how many chunk files the store currently tracks.
func (s *Store) LiveChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// BytesOnDisk reports the total written bytes the store currently tracks
// across all shards.
func (s *Store) BytesOnDisk() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b int64
	for i := range s.shards {
		b += s.shards[i].bytes
	}
	return b
}

// IOStats aggregates the store's read-side accounting across shards.
type IOStats struct {
	ChunksRead    int   `json:"chunks_read"`              // blobs fetched from shard backends
	BytesRead     int64 `json:"bytes_read"`               // stored bytes of those fetches (compressed size under a codec)
	ChunksSkipped int   `json:"chunks_skipped,omitempty"` // always 0; kept for bench/'s chunk.chunks_skipped until a benchmark change drops it
	BytesOnWire   int64 `json:"bytes_on_wire,omitempty"`  // chunk payload bytes that crossed remote-shard connections

	ChunksExecuted int `json:"chunks_executed,omitempty"` // chunks mapped in place by their shard's /exec
}

// IOStats reports what the store's passes actually moved: blobs fetched
// (at their stored size, so compression shows up as fewer bytes), chunks
// their shard mapped in place (observed placement), and — for stores with
// remote shards anywhere in their wrapper chains — the chunk payload bytes
// that crossed the network.
func (s *Store) IOStats() IOStats {
	s.mu.Lock()
	var out IOStats
	backends := make([]Backend, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		out.ChunksRead += sh.chunksRead
		out.BytesRead += sh.bytesRead
		out.ChunksExecuted += sh.chunksExecuted
		backends[i] = sh.backend
	}
	s.mu.Unlock()
	for _, b := range backends {
		if m, ok := wireMeterOf(b); ok {
			out.BytesOnWire += m.BytesOnWire()
		}
	}
	return out
}

// Close deletes every chunk file the store still tracks — across all
// shards — and marks the store closed; subsequent chunk allocations fail
// with ErrClosed. The directories themselves are left in place (the caller
// created them).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var removals []removal
	for p, info := range s.refs {
		removals = append(removals, removal{backend: s.shards[info.shard].backend, key: p})
	}
	s.refs = make(map[string]*chunkInfo)
	s.free = nil
	for i := range s.shards {
		s.shards[i] = shard{backend: s.shards[i].backend}
	}
	s.mu.Unlock()
	return removeAll(removals)
}

// Matrix is a dense matrix partitioned into fixed-height row chunks, each
// persisted as a raw little-endian float64 file. Reads always go to disk:
// the matrix is genuinely out-of-core. Everything that does not depend on
// the chunk encoding is the embedded chunked base (mat.go).
type Matrix struct{ chunked[*la.Dense] }

func newMatrix(store *Store, rows, cols, chunkRows int, paths []string) *Matrix {
	return &Matrix{chunked[*la.Dense]{store: store, rows: rows, cols: cols, chunkRows: chunkRows, paths: paths,
		kind: chunkKindDense, decode: (*Store).readDenseChunk}}
}

func numChunks(rows, chunkRows int) int {
	return (rows + chunkRows - 1) / chunkRows
}

// FromDense partitions d into chunks of chunkRows rows and spills them.
func FromDense(store *Store, d *la.Dense, chunkRows int) (*Matrix, error) {
	return Build(store, d.Rows(), d.Cols(), chunkRows, func(lo, hi int, dst *la.Dense) {
		copy(dst.Data(), d.Data()[lo*d.Cols():hi*d.Cols()])
	})
}

// RowSource is a row-addressable matrix view that can be streamed into
// chunked storage without ever materializing as a whole — the seam
// through which epoch snapshots (base table + copy-on-write overlay)
// reach the out-of-core engine. Implementations must be safe for
// concurrent ReadRow calls.
type RowSource interface {
	Rows() int
	Cols() int
	// ReadRow copies row i into dst, which has length Cols().
	ReadRow(i int, dst []float64)
}

// FromRowSource streams src into chunks of chunkRows rows and spills
// them, one row at a time, through Build's write-behind: at most its
// window of chunk buffers is resident. src is read exactly once per row,
// in ascending row order, on the calling goroutine.
func FromRowSource(store *Store, src RowSource, chunkRows int) (*Matrix, error) {
	return Build(store, src.Rows(), src.Cols(), chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			src.ReadRow(i, dst.Row(i-lo))
		}
	})
}

// Build streams rows from gen to the store, so matrices larger than memory
// can be created. gen fills a zeroed buffer per chunk (its half-open row
// range), in ascending order, on the calling goroutine, while the chunks
// before it are written behind (the stage scans spill through, holding at
// most Exec{}'s window of buffers). On failure every written chunk is removed.
func Build(store *Store, rows, cols, chunkRows int, gen func(lo, hi int, dst *la.Dense)) (*Matrix, error) {
	if chunkRows <= 0 {
		return nil, fmt.Errorf("chunk: chunkRows must be positive, got %d", chunkRows)
	}
	sp, err := newOutputSpiller(store, numChunks(rows, chunkRows), Exec{}, true)
	if err != nil {
		return nil, err
	}
	m := newMatrix(store, rows, cols, chunkRows, nil)
	for ci := 0; ci < len(sp.paths) && err == nil; ci++ {
		lo, hi := m.chunkBounds(ci)
		dst := sp.next(hi-lo, cols)
		gen(lo, hi, dst)
		err = sp.emit(ci, dst)
	}
	if m.paths, err = sp.finish(err); err != nil {
		return nil, err
	}
	return m, nil
}

// writeChunkFile stores one encoded chunk (dense or CSR) on the key's
// shard backend — at its compressed size when the backend compresses — and
// attributes the stored size to that shard on success.
func (s *Store) writeChunkFile(key string, blob []byte) error {
	b, err := s.backendFor(key)
	if err != nil {
		return err
	}
	stored, err := writeSized(b, key, blob)
	if err != nil {
		return err
	}
	s.recordWrite(key, stored)
	return nil
}

// readChunkBlob fetches key's blob from its shard backend and feeds the
// per-shard I/O accounting at the chunk's stored size, so bytes_read
// reflects actual (possibly compressed) I/O.
// With own, the caller hands the chunk back (recycle), so a local shard
// reads into the last buffer freed (dropped if too small: a last chunk).
func (s *Store) readChunkBlob(key string, own bool) (raw []byte, err error) {
	s.mu.Lock()
	info, ok := s.refs[key]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("chunk: %s is not tracked by this store (freed or foreign)", key)
	}
	si := info.shard
	stored := info.bytes
	b := s.shards[si].backend
	db, local := b.(*dirBackend)
	var buf []byte
	if n := len(s.free); own && local && n > 0 {
		if buf, s.free = s.free[n-1], s.free[:n-1]; int64(cap(buf)) < stored {
			buf = nil
		}
	}
	s.mu.Unlock()
	if own && local {
		raw, err = db.readInto(key, buf)
	} else {
		raw, err = b.ReadChunk(key)
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.shards[si].chunksRead++
	s.shards[si].bytesRead += stored
	s.mu.Unlock()
	return raw, nil
}

// noteExecuted counts one chunk whose partial shard si's /exec returned
// and the pass accepted.
func (s *Store) noteExecuted(si int) {
	s.mu.Lock()
	s.shards[si].chunksExecuted++
	s.mu.Unlock()
}

// readDenseChunk fetches key from its shard backend and decodes it as a
// rows×cols dense chunk.
func (s *Store) readDenseChunk(key string, rows, cols int, own bool) (*la.Dense, error) {
	raw, err := s.readChunkBlob(key, own)
	if err != nil {
		return nil, err
	}
	return decodeDenseChunk(key, raw, rows, cols)
}

// recycle hands back a chunk read with own, never to be used again: a dense
// chunk's storage joins the free list if it holds fewer than window.
func (s *Store) recycle(c la.Mat, window int) {
	d, ok := c.(*la.Dense)
	if !ok || len(d.Data()) == 0 {
		return
	}
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&d.Data()[0])), 8*len(d.Data()))
	if s.onRecycle != nil {
		s.onRecycle(buf)
	}
	s.mu.Lock()
	if len(s.free) < window {
		s.free = append(s.free, buf)
	}
	s.mu.Unlock()
}

// encodeDenseChunk serializes d as raw little-endian float64 rows: on a
// little-endian host d's own aligned storage, no copy (decodeDenseChunk's
// mirror), so d must not change until its write returns; else a copy.
func encodeDenseChunk(d *la.Dense) []byte {
	data := d.Data()
	if len(data) > 0 && littleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))
	}
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return raw
}

// littleEndian reports whether the host stores a float64 the way a dense
// chunk blob does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeDenseChunk validates the blob length against the expected shape (a
// truncated or foreign blob surfaces as an error, never garbage values) and
// decodes it. On a little-endian host an 8-byte-aligned blob already is the
// chunk's row-major float64s, so it becomes the chunk's storage in place: no
// second buffer, no copy. That is sound because the blob is the caller's
// for good (Backend.ReadChunk). A misaligned blob, or a big-endian host,
// takes the copy loop.
func decodeDenseChunk(key string, raw []byte, rows, cols int) (*la.Dense, error) {
	n := len(raw) / 8
	if rows < 0 || cols < 0 || len(raw)%8 != 0 || n != rows*cols || (cols > 0 && n/cols != rows) {
		return nil, fmt.Errorf("chunk: %s has %d bytes, want %d×%d×8", key, len(raw), rows, cols)
	}
	if n > 0 && littleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return la.NewDenseData(rows, cols, unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)), nil
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return la.NewDenseData(rows, cols, data), nil
}

// Chunk decodes chunk ci and returns it with its first-row offset. It is
// safe to call concurrently (each call reads its own chunk), which lets a
// pipeline over one matrix fetch the aligned chunk of another — the
// two-operand pattern the streamed GNMF W-passes use, mirroring
// IntVector.Keys for key columns.
func (m *Matrix) Chunk(ci int) (lo int, c *la.Dense, err error) {
	if m.freed {
		return 0, nil, ErrFreed
	}
	lo, _ = m.chunkBounds(ci)
	c, err = m.readAt(ci, false)
	return lo, c, err
}

// Dense loads the whole matrix into memory (tests and small data only).
func (m *Matrix) Dense() (*la.Dense, error) {
	out := la.NewDense(m.rows, m.cols)
	err := m.pipeline(Exec{}, false, nil, func(_, lo int, c la.Mat) (any, error) {
		copy(out.Data()[lo*m.cols:], c.(*la.Dense).Data())
		return nil, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trackedBytes sums the recorded written sizes of the given chunk keys;
// untracked (freed) or not-yet-written keys contribute nothing.
func (s *Store) trackedBytes(paths []string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b int64
	for _, p := range paths {
		if info, ok := s.refs[p]; ok && info.written {
			b += info.bytes
		}
	}
	return b
}
