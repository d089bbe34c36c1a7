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
	chunked[*la.CSR]
	nnz int64
}

// NNZ reports the total stored non-zeros.
func (m *SparseMatrix) NNZ() int64 { return m.nnz }

// sparseChunkBytes is the on-disk size of one CSR chunk file: 3 header
// words + rows+1 row pointers, then 4+8 bytes per non-zero. The single
// source of truth for the layout that encodeSparseChunk produces,
// decodeSparseChunk validates, and the I/O accounting reports.
func sparseChunkBytes(rows int, nnz int64) int64 {
	return 8*int64(3+rows+1) + 12*nnz
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
	m := &SparseMatrix{chunked[*la.CSR]{store: store, rows: c.Rows(), cols: c.Cols(), chunkRows: chunkRows, paths: paths,
		kind: chunkKindCSR, decode: (*Store).readSparseChunk}, int64(c.NNZ())}
	for ci := range paths {
		lo, hi := m.chunkBounds(ci)
		if err := store.writeSparseChunkFile(paths[ci], c.SliceRows(lo, hi)); err != nil {
			store.release(paths)
			return nil, err
		}
	}
	return m, nil
}

// writeSparseChunkFile encodes one CSR chunk, stores it on the key's shard
// backend — at its compressed size when the backend compresses — and
// attributes the stored size to that shard on success.
func (s *Store) writeSparseChunkFile(key string, c *la.CSR) error {
	b, err := s.backendFor(key)
	if err != nil {
		return err
	}
	stored, err := writeSized(b, key, encodeSparseChunk(c))
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
// never a panic).
func (s *Store) readSparseChunk(key string, rows, cols int, _ bool) (*la.CSR, error) {
	raw, err := s.readChunkBlob(key, false)
	if err != nil {
		return nil, err
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
	// Bound the header's counts by the blob before any arithmetic that could
	// overflow or any allocation they size: the header and rows+1 row
	// pointers take 8·(rows+4) bytes, and each non-zero 12 more.
	if rows < 0 || rows > len(raw)/8-4 || nnz > (len(raw)-8*(rows+4))/12 {
		return nil, fmt.Errorf("chunk: %s claims %d rows and %d non-zeros, more than its %d bytes hold", path, rows, nnz, len(raw))
	}
	if want := int(sparseChunkBytes(rows, int64(nnz))); len(raw) != want {
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

// CSR loads the whole matrix back into memory (tests and small data only).
func (m *SparseMatrix) CSR() (*la.CSR, error) {
	parts := make([]*la.CSR, len(m.paths))
	err := m.pipeline(Parallel(), nil, false, func(ci, lo int, c *la.CSR) (any, error) {
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
