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
//	reader ──bounded prefetch──▶ compute workers ──▶ ordered commit
//
// so the next chunks are read from disk while the current ones are being
// computed, and independent chunks proceed on all cores. Reductions are
// committed in chunk order, which makes parallel results bit-identical to
// the serial pass. See Exec, Serial, and Parallel.
//
// Chunk files are refcounted by their Store: Matrix.Free releases a
// matrix's chunks as soon as a pipeline no longer needs the intermediate,
// and Store.Close removes whatever is left, so long pipelines do not
// accumulate dead spill files.
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
// directories.
type Placement int

const (
	// RoundRobin cycles chunk allocations across the shard directories in
	// order, balancing chunk counts.
	RoundRobin Placement = iota
	// LeastBytes places each new chunk on the shard currently holding the
	// fewest bytes (chunks that are allocated but not yet written count at
	// the store's average chunk size), so shards stay byte-balanced even
	// when matrices of very different widths share the store.
	LeastBytes
)

// ShardStat is one shard's accounted footprint and read-side I/O: what was
// placed there, what the passes actually fetched, and what zone maps let
// them avoid fetching.
type ShardStat struct {
	Dir    string // shard identity: directory path, or base URL for a remote shard
	Chunks int    // tracked chunk files placed on this shard
	Bytes  int64  // bytes of written chunk files currently tracked

	ChunksRead    int   // chunk blobs fetched from this shard
	BytesRead     int64 // stored bytes of those fetches (compressed size under a codec)
	ChunksSkipped int   // reads avoided because the shard's zone map proved the chunk all-zero
	BytesSkipped  int64 // stored bytes those skipped reads would have fetched

	ChunksExecuted int // chunks whose op partial came back from this shard's /exec and was accepted
}

// shard is one chunk backend (a spill directory or a remote chunk server)
// plus its placement accounting.
type shard struct {
	backend Backend
	bytes   int64 // written bytes currently tracked on this shard
	chunks  int   // tracked chunks (written or pending)
	pending int   // allocated but not yet written

	chunksRead     int   // blobs fetched by passes
	bytesRead      int64 // stored bytes of those fetches
	chunksSkipped  int   // reads avoided via the zone map
	bytesSkipped   int64 // stored bytes of the avoided reads
	chunksExecuted int   // chunks mapped in place by the shard's /exec
}

// chunkInfo is the store's bookkeeping for one chunk file.
type chunkInfo struct {
	refs    int
	shard   int
	written bool  // recordWrite ran (distinguishes a 0-byte file from no file)
	bytes   int64 // actual file size once written
}

// Store manages chunks across one or more shard backends — local spill
// directories, remote chunk servers, or a mix (NewShardedStoreBackends).
// Chunk files are refcounted: matrices register their chunks at creation,
// Free releases them (files are deleted when the last referencing matrix
// is freed), and Close deletes every file the store still tracks, across
// all shards. A Store is safe for concurrent use.
type Store struct {
	policy Placement

	mu      sync.Mutex
	shards  []shard
	next    int
	allocs  int // round-robin cursor
	refs    map[string]*chunkInfo
	orphans int // stale spill files reaped at startup
	closed  bool

	free      [][]byte         // read buffers handed back by recycle
	onRecycle func(buf []byte) // tests only: sees every buffer handed back
}

// NewStore creates (if needed) and wraps a single-directory chunk store —
// NewShardedStore with one shard.
func NewStore(dir string) (*Store, error) {
	return NewShardedStore([]string{dir}, RoundRobin)
}

// NewShardedStore creates (if needed) the shard directories and wraps them
// as one chunk store: every chunk allocation is placed on a shard by the
// policy, and spill passes write to different shards concurrently (one
// write-behind queue per shard). Point the directories at different disks
// or volumes to spread out-of-core I/O across spindles.
//
// Any stale spill files (chunk-*.bin, plus *.tmp debris of interrupted
// spills) already present in a shard directory — left by a crashed
// previous run — are reaped before the store is returned; OrphansReaped
// reports how many.
func NewShardedStore(dirs []string, policy Placement) (*Store, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("chunk: sharded store needs at least one directory")
	}
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

// NewShardedStoreBackends wraps arbitrary chunk backends as one store, so
// local spill directories and remote chunk servers (NewRemoteBackend) can
// shard one store's chunks between them. Placement policies, per-shard
// write-behind queues, the refcounted chunk lifecycle, and ShardStats
// accounting are backend-agnostic and run unchanged.
//
// Each backend's stale blobs from a crashed previous run are reaped before
// the store is returned; OrphansReaped reports the total.
func NewShardedStoreBackends(backends []Backend, policy Placement) (*Store, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("chunk: sharded store needs at least one backend")
	}
	if policy != RoundRobin && policy != LeastBytes {
		return nil, fmt.Errorf("chunk: unknown placement policy %d", policy)
	}
	seen := make(map[string]bool, len(backends))
	s := &Store{policy: policy, refs: make(map[string]*chunkInfo)}
	for _, b := range backends {
		if seen[b.Name()] {
			return nil, fmt.Errorf("chunk: shard %q listed twice", b.Name())
		}
		seen[b.Name()] = true
		reaped, err := b.Reap()
		if err != nil {
			return nil, err
		}
		s.orphans += reaped
		s.shards = append(s.shards, shard{backend: b})
	}
	return s, nil
}

// OrphansReaped reports how many stale spill files from previous runs the
// store removed when it was opened.
func (s *Store) OrphansReaped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orphans
}

// NumShards reports the number of shard directories.
func (s *Store) NumShards() int { return len(s.shards) }

// pickShard chooses the shard for the next allocation. Caller holds mu.
func (s *Store) pickShard() int {
	if s.policy == RoundRobin || len(s.shards) == 1 {
		return s.allocs % len(s.shards)
	}
	// LeastBytes: score pending (not-yet-written) chunks at the store's
	// average written chunk size so a burst of allocations spreads out
	// instead of piling onto whichever shard was lightest at alloc time.
	var written int64
	var nWritten int
	for i := range s.shards {
		written += s.shards[i].bytes
		nWritten += s.shards[i].chunks - s.shards[i].pending
	}
	provisional := int64(1)
	if nWritten > 0 && written/int64(nWritten) > 0 {
		provisional = written / int64(nWritten)
	}
	best, bestScore := 0, int64(math.MaxInt64)
	for i := range s.shards {
		score := s.shards[i].bytes + int64(s.shards[i].pending)*provisional
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// alloc reserves n fresh chunk keys, each with an initial refcount of 1,
// placing each on a shard by the store's policy. Keys are unique across
// the whole store (one counter), so a key also names a unique blob within
// whichever backend it lands on.
func (s *Store) alloc(n int) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	paths := make([]string, n)
	for i := range paths {
		s.next++
		si := s.pickShard()
		s.allocs++
		p := fmt.Sprintf("chunk-%06d.bin", s.next)
		s.refs[p] = &chunkInfo{refs: 1, shard: si}
		s.shards[si].chunks++
		s.shards[si].pending++
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

// execPlacement partitions a pass's keys by where their op runs: one group
// per exec-capable shard, holding its chunks the shard's zone map does not
// prove all-zero, and local for the rest — chunks on passive shards,
// zone-proven zero chunks (the read path synthesizes them without touching
// the backend), and untracked keys, which surface their error on read.
func (s *Store) execPlacement(keys []string) (groups []execGroup, local []int) {
	s.mu.Lock()
	byShard := make([]execGroup, len(s.shards))
	for si := range s.shards {
		byShard[si].shard = si
		byShard[si].eb, _ = s.shards[si].backend.(ExecBackend)
	}
	shardOf := make([]int, len(keys))
	for i, k := range keys {
		shardOf[i] = -1
		if info, ok := s.refs[k]; ok && byShard[info.shard].eb != nil {
			shardOf[i] = info.shard
		}
	}
	s.mu.Unlock()
	for ci, si := range shardOf {
		if si < 0 || provenZero(byShard[si].eb, keys[ci]) {
			local = append(local, ci)
			continue
		}
		byShard[si].cis = append(byShard[si].cis, ci)
	}
	for _, g := range byShard {
		if len(g.cis) > 0 {
			groups = append(groups, g)
		}
	}
	return groups, local
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
	ex = ex.normalized()
	if ex.Workers == 1 && ex.Prefetch == 0 {
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
	return interleavedOrder(shardOf, numShards, ex.Workers+ex.Prefetch+1)
}

// recordWrite attributes a successfully written chunk file's size to its
// shard. Written bytes drive the LeastBytes policy and the per-shard stats.
func (s *Store) recordWrite(path string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.refs[path]
	if !ok || info.written {
		return
	}
	info.written = true
	info.bytes = n
	s.shards[info.shard].pending--
	s.shards[info.shard].bytes += n
}

// retain increments the refcount of every path.
func (s *Store) retain(paths []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range paths {
		if info, ok := s.refs[p]; ok {
			info.refs++
		}
	}
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

// release decrements refcounts and deletes files that reach zero. Missing
// files (e.g. a failed write that never created one) are not errors.
func (s *Store) release(paths []string) error {
	s.mu.Lock()
	var removals []removal
	for _, p := range paths {
		info, ok := s.refs[p]
		if !ok {
			continue
		}
		if info.refs > 1 {
			info.refs--
			continue
		}
		delete(s.refs, p)
		sh := &s.shards[info.shard]
		sh.chunks--
		if info.written {
			sh.bytes -= info.bytes
		} else {
			sh.pending--
		}
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

// ShardStats reports each shard's tracked chunk count and bytes plus its
// read-side I/O accounting (fetches and zone-map skips).
func (s *Store) ShardStats() []ShardStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		out[i] = ShardStat{
			Dir: sh.backend.Name(), Chunks: sh.chunks, Bytes: sh.bytes,
			ChunksRead: sh.chunksRead, BytesRead: sh.bytesRead,
			ChunksSkipped: sh.chunksSkipped, BytesSkipped: sh.bytesSkipped,
			ChunksExecuted: sh.chunksExecuted,
		}
	}
	return out
}

// IOStats aggregates the store's read-side accounting across shards.
type IOStats struct {
	ChunksRead    int   `json:"chunks_read"`              // blobs fetched from shard backends
	BytesRead     int64 `json:"bytes_read"`               // stored bytes of those fetches (compressed size under a codec)
	ChunksSkipped int   `json:"chunks_skipped,omitempty"` // reads avoided via zone maps
	BytesSkipped  int64 `json:"bytes_skipped,omitempty"`  // stored bytes of the avoided reads
	BytesOnWire   int64 `json:"bytes_on_wire,omitempty"`  // chunk payload bytes that crossed remote-shard connections

	ChunksExecuted int `json:"chunks_executed,omitempty"` // chunks mapped in place by their shard's /exec
}

// IOStats reports what the store's passes actually moved: blobs fetched
// (at their stored size, so compression shows up as fewer bytes), reads
// avoided because a zone map proved the chunk all-zero, chunks their shard
// mapped in place (observed placement), and — for stores with remote
// shards anywhere in their wrapper chains — the chunk payload bytes that
// crossed the network.
func (s *Store) IOStats() IOStats {
	s.mu.Lock()
	var out IOStats
	backends := make([]Backend, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		out.ChunksRead += sh.chunksRead
		out.BytesRead += sh.bytesRead
		out.ChunksSkipped += sh.chunksSkipped
		out.BytesSkipped += sh.bytesSkipped
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

// Retain returns a new handle sharing this matrix's chunk files. The
// files are deleted only after every handle (the original and all
// retained ones) has been freed, which lets pipelines hand intermediates
// to consumers with independent lifetimes. Retaining an already-freed
// matrix yields a handle that is itself freed (its files are gone), so
// streaming it reports ErrFreed instead of a confusing missing-file
// error.
func (m *Matrix) Retain() *Matrix {
	if !m.freed {
		m.store.retain(m.paths)
	}
	return &Matrix{m.chunked}
}

func numChunks(rows, chunkRows int) int {
	return (rows + chunkRows - 1) / chunkRows
}

// FromDense partitions d into chunks of chunkRows rows and spills them.
func FromDense(store *Store, d *la.Dense, chunkRows int) (*Matrix, error) {
	if chunkRows <= 0 {
		return nil, fmt.Errorf("chunk: chunkRows must be positive, got %d", chunkRows)
	}
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
// them, one row at a time — only one chunk buffer is resident. src is
// read exactly once per row, in ascending row order.
func FromRowSource(store *Store, src RowSource, chunkRows int) (*Matrix, error) {
	if chunkRows <= 0 {
		return nil, fmt.Errorf("chunk: chunkRows must be positive, got %d", chunkRows)
	}
	cols := src.Cols()
	return Build(store, src.Rows(), cols, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			src.ReadRow(i, dst.Row(i-lo))
		}
	})
}

// Build streams rows from gen (called once per chunk with the half-open row
// range) directly to disk, so matrices larger than memory can be created.
// On failure every chunk written so far is removed.
func Build(store *Store, rows, cols, chunkRows int, gen func(lo, hi int, dst *la.Dense)) (*Matrix, error) {
	if chunkRows <= 0 {
		return nil, fmt.Errorf("chunk: chunkRows must be positive, got %d", chunkRows)
	}
	paths, err := store.alloc(numChunks(rows, chunkRows))
	if err != nil {
		return nil, err
	}
	m := newMatrix(store, rows, cols, chunkRows, paths)
	buf := la.NewDense(min(chunkRows, rows), cols)
	for ci := range paths {
		lo, hi := m.chunkBounds(ci)
		dst := buf
		if hi-lo != buf.Rows() {
			dst = la.NewDense(hi-lo, cols)
		} else {
			clear(dst.Data())
		}
		gen(lo, hi, dst)
		if err := store.writeChunkFile(paths[ci], dst); err != nil {
			store.release(paths)
			return nil, err
		}
	}
	return m, nil
}

// writeChunkFile encodes one dense chunk, stores it on the key's shard
// backend — annotated with its zone map when the backend records them, at
// its compressed size when the backend compresses — and attributes the
// stored size to that shard on success.
func (s *Store) writeChunkFile(key string, d *la.Dense) error {
	b, err := s.backendFor(key)
	if err != nil {
		return err
	}
	stored, err := writeThrough(b, key, encodeDenseChunk(d), func() ZoneMap { return denseZoneMap(d) })
	if err != nil {
		return err
	}
	s.recordWrite(key, stored)
	return nil
}

// readChunkBlob fetches key's blob from its shard backend — unless the
// shard's zone map proves the chunk all-zero, in which case the read is
// skipped entirely (skipped=true, no backend touched) and the caller
// synthesizes the zero chunk the decode would have produced. Fetches and
// skips feed the per-shard I/O accounting at the chunk's stored size, so
// bytes_read reflects actual (possibly compressed) I/O and bytes_skipped
// reflects what skipping avoided.
// With own, the caller hands the chunk back (recycle), so a local shard
// reads into the last buffer freed (dropped if too small: a last chunk).
func (s *Store) readChunkBlob(key string, own bool) (raw []byte, skipped bool, err error) {
	s.mu.Lock()
	info, ok := s.refs[key]
	if !ok {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("chunk: %s is not tracked by this store (freed or foreign)", key)
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
	if provenZero(b, key) {
		s.mu.Lock()
		s.shards[si].chunksSkipped++
		s.shards[si].bytesSkipped += stored
		s.mu.Unlock()
		return nil, true, nil
	}
	if own && local {
		raw, err = db.readInto(key, buf)
	} else {
		raw, err = b.ReadChunk(key)
	}
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	s.shards[si].chunksRead++
	s.shards[si].bytesRead += stored
	s.mu.Unlock()
	return raw, false, nil
}

// provenZero is the one skip proof: b's zone map records key as all-zero,
// so decoding the chunk would yield exactly the zero chunk of its shape.
// Never touches chunk bytes.
func provenZero(b Backend, key string) bool {
	zb, ok := zoneMapperOf(b)
	if !ok {
		return false
	}
	zm, ok := zb.ZoneMap(key)
	return ok && zm.AllZero
}

// noteExecuted counts one chunk whose partial shard si's /exec returned
// and the pass accepted.
func (s *Store) noteExecuted(si int) {
	s.mu.Lock()
	s.shards[si].chunksExecuted++
	s.mu.Unlock()
}

// readDenseChunk fetches key from its shard backend and decodes it as a
// rows×cols dense chunk; a zone-map-skipped read synthesizes the zero
// chunk, which is bit-identical to what decoding would have produced
// (AllZero admits only +0.0 cells).
func (s *Store) readDenseChunk(key string, rows, cols int, own bool) (*la.Dense, error) {
	raw, skipped, err := s.readChunkBlob(key, own)
	if err != nil {
		return nil, err
	}
	if skipped {
		return la.NewDense(rows, cols), nil
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

// encodeDenseChunk serializes d as raw little-endian float64 rows.
func encodeDenseChunk(d *la.Dense) []byte {
	data := d.Data()
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
	err := m.ForEach(func(lo int, c *la.Dense) error {
		copy(out.Data()[lo*m.cols:], c.Data())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScaleExec computes m·x element-wise under the given execution.
func (m *Matrix) ScaleExec(ex Exec, x float64) (*Matrix, error) {
	return m.StreamToMatrix(ex, m.cols, func(ci, lo int, c la.Mat) (*la.Dense, error) {
		return c.(*la.Dense).ScaleDense(x), nil
	})
}

// RowSumsExec computes row sums into a chunked n×1 matrix under the given
// execution.
func (m *Matrix) RowSumsExec(ex Exec) (*Matrix, error) {
	return m.StreamToMatrix(ex, 1, func(ci, lo int, c la.Mat) (*la.Dense, error) {
		return c.RowSums(), nil
	})
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
