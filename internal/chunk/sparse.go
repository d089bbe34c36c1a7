package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/la"
)

// SparseMatrix is a CSR matrix partitioned into fixed-height row chunks,
// each persisted as its own little-endian CSR file. It brings the sparse
// real-data shapes of Table 6 (one-hot feature matrices with d in the tens
// of thousands) to the out-of-core engine: per-chunk I/O is proportional
// to the chunk's non-zeros, not rows×cols.
//
// Chunk file layout: three int64 header words (rows, cols, nnz), then
// rows+1 int64 row pointers, nnz int32 column indices, nnz float64 values.
type SparseMatrix struct {
	store      *Store
	rows, cols int
	chunkRows  int
	paths      []string
	nnz        int64
	freed      bool
}

// Rows reports the number of rows.
func (m *SparseMatrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *SparseMatrix) Cols() int { return m.cols }

// NNZ reports the total stored non-zeros.
func (m *SparseMatrix) NNZ() int64 { return m.nnz }

// NumChunks reports the chunk count.
func (m *SparseMatrix) NumChunks() int { return len(m.paths) }

// ChunkRows reports the chunk height.
func (m *SparseMatrix) ChunkRows() int { return m.chunkRows }

// Store returns the chunk store backing this matrix.
func (m *SparseMatrix) Store() *Store { return m.store }

// sparseChunkBytes is the on-disk size of one CSR chunk file: 3 header
// words + rows+1 row pointers, then 4+8 bytes per non-zero. The single
// source of truth for the layout that encodeSparseChunk produces,
// decodeSparseChunk validates, and the I/O accounting reports.
func sparseChunkBytes(rows int, nnz int64) int64 {
	return 8*int64(3+rows+1) + 12*nnz
}

// BytesOnDisk reports the storage footprint as the store tracks it: the
// bytes actually written for the matrix's chunks (compressed size when a
// codec wrapper is in the shard's chain). Zero once the matrix is freed.
func (m *SparseMatrix) BytesOnDisk() int64 { return m.store.trackedBytes(m.paths) }

// Free releases the matrix's chunk files.
func (m *SparseMatrix) Free() error {
	if m == nil || m.freed {
		return nil
	}
	m.freed = true
	return m.store.release(m.paths)
}

func (m *SparseMatrix) chunkBounds(i int) (lo, hi int) {
	lo = i * m.chunkRows
	hi = lo + m.chunkRows
	if hi > m.rows {
		hi = m.rows
	}
	return lo, hi
}

// FromCSR partitions c into chunks of chunkRows rows and spills them. On
// failure every chunk written so far is removed.
func FromCSR(store *Store, c *la.CSR, chunkRows int) (*SparseMatrix, error) {
	if chunkRows <= 0 {
		return nil, fmt.Errorf("chunk: chunkRows must be positive, got %d", chunkRows)
	}
	paths, err := store.alloc(numChunks(c.Rows(), chunkRows))
	if err != nil {
		return nil, err
	}
	m := &SparseMatrix{store: store, rows: c.Rows(), cols: c.Cols(), chunkRows: chunkRows, paths: paths, nnz: int64(c.NNZ())}
	for ci := range paths {
		lo, hi := m.chunkBounds(ci)
		part, ok := c.SliceRows(lo, hi).(*la.CSR)
		if !ok {
			store.release(paths)
			return nil, fmt.Errorf("chunk: CSR SliceRows returned %T", c.SliceRows(lo, hi))
		}
		if err := store.writeSparseChunkFile(paths[ci], part); err != nil {
			store.release(paths)
			return nil, err
		}
	}
	return m, nil
}

// writeSparseChunkFile encodes one CSR chunk, stores it on the key's shard
// backend — annotated with its zone map when the backend records them, at
// its compressed size when the backend compresses — and attributes the
// stored size to that shard on success.
func (s *Store) writeSparseChunkFile(key string, c *la.CSR) error {
	b, err := s.backendFor(key)
	if err != nil {
		return err
	}
	stored, err := writeThrough(b, key, encodeSparseChunk(c), func() ZoneMap { return csrZoneMap(c) })
	if err != nil {
		return err
	}
	s.recordWrite(key, stored)
	return nil
}

// encodeSparseChunk serializes c in the CSR chunk layout (header, row
// pointers, column indices, values), sized exactly sparseChunkBytes.
func encodeSparseChunk(c *la.CSR) []byte {
	nnz := c.NNZ()
	raw := make([]byte, 0, sparseChunkBytes(c.Rows(), int64(nnz)))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(c.Rows()))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(c.Cols()))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(nnz))
	off := 0
	raw = binary.LittleEndian.AppendUint64(raw, 0)
	for i := 0; i < c.Rows(); i++ {
		idx, _ := c.RowNNZ(i)
		off += len(idx)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(off))
	}
	for i := 0; i < c.Rows(); i++ {
		idx, _ := c.RowNNZ(i)
		for _, j := range idx {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(j))
		}
	}
	for i := 0; i < c.Rows(); i++ {
		_, vals := c.RowNNZ(i)
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// readSparseChunk fetches key from its shard backend and decodes it,
// validating shape and invariants (a corrupt blob surfaces as an error,
// never a panic). A zone-map-skipped read synthesizes the empty CSR chunk,
// allocated exactly as decodeSparseChunk would for a stored nnz=0 blob, so
// the result is bit-identical to reading.
func (s *Store) readSparseChunk(key string, rows, cols int) (*la.CSR, error) {
	raw, skipped, err := s.readChunkBlob(key)
	if err != nil {
		return nil, err
	}
	if skipped {
		return la.NewCSR(rows, cols, make([]int, rows+1), make([]int32, 0), make([]float64, 0)), nil
	}
	return decodeSparseChunk(key, raw, rows, cols)
}

func decodeSparseChunk(path string, raw []byte, rows, cols int) (c *la.CSR, err error) {
	if len(raw) < 8*3 {
		return nil, fmt.Errorf("chunk: %s truncated header", path)
	}
	gotRows := int(binary.LittleEndian.Uint64(raw[0:]))
	gotCols := int(binary.LittleEndian.Uint64(raw[8:]))
	nnz := int(binary.LittleEndian.Uint64(raw[16:]))
	if gotRows != rows || gotCols != cols || nnz < 0 {
		return nil, fmt.Errorf("chunk: %s is %dx%d (nnz %d), want %dx%d", path, gotRows, gotCols, nnz, rows, cols)
	}
	want := int(sparseChunkBytes(rows, int64(nnz)))
	if len(raw) != want {
		return nil, fmt.Errorf("chunk: %s has %d bytes, want %d", path, len(raw), want)
	}
	indptr := make([]int, rows+1)
	p := 8 * 3
	for i := range indptr {
		indptr[i] = int(int64(binary.LittleEndian.Uint64(raw[p:])))
		p += 8
	}
	indices := make([]int32, nnz)
	for i := range indices {
		indices[i] = int32(binary.LittleEndian.Uint32(raw[p:]))
		p += 4
	}
	vals := make([]float64, nnz)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	// la.NewCSR enforces the structural invariants by panicking; convert a
	// corrupt chunk into an error instead.
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("chunk: corrupt sparse chunk %s: %v", path, r)
		}
	}()
	return la.NewCSR(rows, cols, indptr, indices, vals), nil
}

func (m *SparseMatrix) readAt(ci int) (*la.CSR, error) {
	lo, hi := m.chunkBounds(ci)
	return m.store.readSparseChunk(m.paths[ci], hi-lo, m.cols)
}

func (m *SparseMatrix) pipeline(ex Exec, mapFn func(ci, lo int, c *la.CSR) (any, error), commit func(ci int, v any) error) error {
	if m.freed {
		return ErrFreed
	}
	return runPipelineOrder(len(m.paths), ex, m.store.readOrder(m.paths, ex),
		m.readAt,
		func(ci int, c *la.CSR) (any, error) {
			lo, _ := m.chunkBounds(ci)
			return mapFn(ci, lo, c)
		},
		commit)
}

// ForEach streams every CSR chunk through fn in row order with read-ahead;
// fn is never called concurrently.
func (m *SparseMatrix) ForEach(fn func(lo int, chunk *la.CSR) error) error {
	return m.ForEachExec(Exec{Workers: 1, Prefetch: 2}, fn)
}

// ForEachExec streams chunks under the given execution; with ex.Workers>1,
// fn runs concurrently and chunk order is unspecified.
func (m *SparseMatrix) ForEachExec(ex Exec, fn func(lo int, chunk *la.CSR) error) error {
	return m.pipeline(ex, func(ci, lo int, c *la.CSR) (any, error) {
		return nil, fn(lo, c)
	}, nil)
}

// CSR loads the whole matrix back into memory (tests and small data only).
func (m *SparseMatrix) CSR() (*la.CSR, error) {
	parts := make([]*la.CSR, len(m.paths))
	err := m.pipeline(Parallel(), func(ci, lo int, c *la.CSR) (any, error) {
		return c, nil
	}, func(ci int, v any) error {
		parts[ci] = v.(*la.CSR)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return la.VCatCSR(parts...), nil
}

// Stream implements Mat: the chunk pipeline with each decoded CSR chunk
// delivered as an la.Mat.
func (m *SparseMatrix) Stream(ex Exec, mapFn func(ci, lo int, c la.Mat) (any, error), commit func(ci int, v any) error) error {
	return m.pipeline(ex, func(ci, lo int, c *la.CSR) (any, error) {
		return mapFn(ci, lo, c)
	}, commit)
}

// StreamOp implements Mat: it runs a registered op over every CSR chunk
// and commits the partials in chunk order; with ex.Pushdown, chunks held
// by exec-capable remote shards are mapped in place by the shard's worker.
func (m *SparseMatrix) StreamOp(ex Exec, op Op, commit func(ci int, v any) error) error {
	if m.freed {
		return ErrFreed
	}
	src := opSource{
		store: m.store,
		keys:  m.paths,
		kind:  chunkKindCSR,
		cols:  m.cols,
		rowsAt: func(ci int) int {
			lo, hi := m.chunkBounds(ci)
			return hi - lo
		},
		read: func(ci int) (la.Mat, error) { return m.readAt(ci) },
	}
	return src.runOp(ex, op, commit)
}

// StreamToMatrix implements Mat: it maps every CSR chunk to a dense output
// chunk and spills the results as a new chunked dense matrix aligned with
// the input's chunking, exactly as Matrix.StreamToMatrix does.
func (m *SparseMatrix) StreamToMatrix(ex Exec, outCols int, f func(ci, lo int, c la.Mat) (*la.Dense, error)) (*Matrix, error) {
	return streamToMatrix(ex, m, outCols, f)
}

// Mul computes m·x into a new chunked dense matrix with one parallel
// streaming pass.
func (m *SparseMatrix) Mul(x *la.Dense) (*Matrix, error) { return m.MulExec(Parallel(), x) }

// MulExec computes m·x under the given execution. On failure every output
// chunk written so far is removed.
func (m *SparseMatrix) MulExec(ex Exec, x *la.Dense) (*Matrix, error) {
	return MatOperand(ex, m).mul(x)
}

// TMul computes mᵀ·x, accumulating the cols×xCols output in memory.
func (m *SparseMatrix) TMul(x *la.Dense) (*la.Dense, error) { return m.TMulExec(Parallel(), x) }

// TMulExec computes mᵀ·x under the given execution.
func (m *SparseMatrix) TMulExec(ex Exec, x *la.Dense) (*la.Dense, error) {
	return MatOperand(ex, m).tmul(x)
}

// CrossProd computes mᵀ·m by accumulating per-chunk cross-products.
func (m *SparseMatrix) CrossProd() (*la.Dense, error) { return m.CrossProdExec(Parallel()) }

// CrossProdExec computes mᵀ·m under the given execution, via the
// registered op (pushdown-capable).
func (m *SparseMatrix) CrossProdExec(ex Exec) (*la.Dense, error) {
	return reduceExec(ex, m, OpCrossProd(), m.cols, m.cols)
}

// ColSums aggregates column sums in one pass.
func (m *SparseMatrix) ColSums() (*la.Dense, error) { return m.ColSumsExec(Parallel()) }

// ColSumsExec aggregates column sums under the given execution, via the
// registered op (pushdown-capable).
func (m *SparseMatrix) ColSumsExec(ex Exec) (*la.Dense, error) {
	return reduceExec(ex, m, OpColSums(), 1, m.cols)
}

// Sum aggregates the grand total in one pass.
func (m *SparseMatrix) Sum() (float64, error) { return m.SumExec(Parallel()) }

// SumExec aggregates the grand total under the given execution, via the
// registered op (pushdown-capable).
func (m *SparseMatrix) SumExec(ex Exec) (float64, error) { return sumExec(ex, m) }
