package la

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary serialization for matrices: a small self-describing format so
// prepared normalized datasets can be persisted and shared between the
// generator, the benchmark harness, and user programs.
//
//	magic   [4]byte  "MXD1" (dense) | "MXS1" (CSR) | "MXI1" (indicator)
//	dims    2×int64  rows, cols
//	payload          row-major float64s | indptr/indices/vals | assignments
//
// The readers trust no size in a header: every count derived from one is
// checked for overflow, and every payload is read in bounded pieces, so a
// header that lies fails at EOF before any large allocation.

// maxDim bounds a header dimension; below math.MaxInt, so rows+1 fits.
const maxDim = min(1<<40, math.MaxInt-1)

// readChunk is how many values a payload read decodes at a time.
const readChunk = 8192

var (
	magicDense     = [4]byte{'M', 'X', 'D', '1'}
	magicCSR       = [4]byte{'M', 'X', 'S', '1'}
	magicIndicator = [4]byte{'M', 'X', 'I', '1'}
)

func writeHeader(w io.Writer, magic [4]byte, rows, cols int) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(rows)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, int64(cols))
}

func readHeader(r io.Reader) (magic [4]byte, rows, cols int, err error) {
	if _, err = io.ReadFull(r, magic[:]); err != nil {
		return magic, 0, 0, fmt.Errorf("la: reading magic: %w", err)
	}
	var r64, c64 int64
	if err = binary.Read(r, binary.LittleEndian, &r64); err != nil {
		return magic, 0, 0, err
	}
	if err = binary.Read(r, binary.LittleEndian, &c64); err != nil {
		return magic, 0, 0, err
	}
	if r64 < 0 || c64 < 0 || r64 > maxDim || c64 > maxDim {
		return magic, 0, 0, fmt.Errorf("la: implausible dimensions %dx%d", r64, c64)
	}
	return magic, int(r64), int(c64), nil
}

// elems returns rows·cols, capped at the most 8-byte values one slice can
// hold; ok is false when the cap applied.
func elems(rows, cols int) (n int, ok bool) {
	const most = math.MaxInt / 8
	if cols != 0 && rows > most/cols {
		return most, false
	}
	return rows * cols, true
}

// readN decodes n little-endian values of size bytes each, readChunk at a
// time: the result grows only as fast as the stream delivers.
func readN[T any](r io.Reader, n, size int, dec func([]byte) T) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	buf := make([]byte, min(n, readChunk)*size)
	for len(out) < n {
		b := buf[:min(n-len(out), readChunk)*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[size:] {
			out = append(out, dec(b))
		}
	}
	return out, nil
}

func decF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func decI64(b []byte) int     { return int(int64(binary.LittleEndian.Uint64(b))) }
func decI32(b []byte) int32   { return int32(binary.LittleEndian.Uint32(b)) }

func writeFloats(w io.Writer, vs []float64) error {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes the dense matrix.
func (m *Dense) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, magicDense, m.rows, m.cols); err != nil {
		return err
	}
	if err := writeFloats(bw, m.data); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDense deserializes a dense matrix.
func ReadDense(r io.Reader) (*Dense, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, rows, cols, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if magic != magicDense {
		return nil, fmt.Errorf("la: bad dense magic %q", magic[:])
	}
	n, ok := elems(rows, cols)
	if !ok {
		return nil, fmt.Errorf("la: %dx%d dense matrix is too large", rows, cols)
	}
	data, err := readN(br, n, 8, decF64)
	if err != nil {
		return nil, fmt.Errorf("la: reading dense payload: %w", err)
	}
	return NewDenseData(rows, cols, data), nil
}

// Encode serializes the CSR matrix.
func (c *CSR) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, magicCSR, c.rows, c.cols); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(c.NNZ())); err != nil {
		return err
	}
	for _, p := range c.indptr {
		if err := binary.Write(bw, binary.LittleEndian, int64(p)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, c.indices); err != nil {
		return err
	}
	if err := writeFloats(bw, c.vals); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSR deserializes a CSR matrix.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, rows, cols, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if magic != magicCSR {
		return nil, fmt.Errorf("la: bad CSR magic %q", magic[:])
	}
	var nnz64 int64
	if err := binary.Read(br, binary.LittleEndian, &nnz64); err != nil {
		return nil, err
	}
	if most, _ := elems(rows, cols); nnz64 < 0 || nnz64 > int64(most) {
		return nil, fmt.Errorf("la: implausible nnz %d for %dx%d", nnz64, rows, cols)
	}
	nnz := int(nnz64)
	indptr, err := readN(br, rows+1, 8, decI64)
	if err != nil {
		return nil, err
	}
	if indptr[0] != 0 || indptr[rows] != nnz {
		return nil, fmt.Errorf("la: corrupt CSR indptr")
	}
	for i := 1; i <= rows; i++ {
		if indptr[i] < indptr[i-1] {
			return nil, fmt.Errorf("la: corrupt CSR indptr at row %d", i)
		}
	}
	indices, err := readN(br, nnz, 4, decI32)
	if err != nil {
		return nil, err
	}
	vals, err := readN(br, nnz, 8, decF64)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		prev := int32(-1)
		for _, j := range indices[indptr[i]:indptr[i+1]] {
			if j < 0 || int(j) >= cols {
				return nil, fmt.Errorf("la: corrupt CSR column index %d", j)
			}
			if j <= prev {
				return nil, fmt.Errorf("la: corrupt CSR row %d: column %d not after %d", i, j, prev)
			}
			prev = j
		}
	}
	return NewCSR(rows, cols, indptr, indices, vals), nil
}

// Encode serializes the indicator matrix.
func (k *Indicator) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, magicIndicator, len(k.rows), k.nCols); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, k.rows); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadIndicator deserializes an indicator matrix, validating assignments.
func ReadIndicator(r io.Reader) (*Indicator, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, rows, cols, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if magic != magicIndicator {
		return nil, fmt.Errorf("la: bad indicator magic %q", magic[:])
	}
	assign, err := readN(br, rows, 4, decI32)
	if err != nil {
		return nil, err
	}
	for i, a := range assign {
		if a < 0 || int(a) >= cols {
			return nil, fmt.Errorf("la: corrupt indicator assignment %d at row %d", a, i)
		}
	}
	return NewIndicatorInt32(assign, cols), nil
}

// WriteCSV emits the dense matrix as comma-separated values (no header).
func (m *Dense) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDenseCSV parses headerless numeric CSV into a dense matrix.
func ReadDenseCSV(r io.Reader) (*Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]float64
	cols := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("la: ragged CSV row %d: %d fields, want %d", len(rows), len(fields), cols)
		}
		row := make([]float64, cols)
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("la: CSV row %d col %d: %w", len(rows), j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return DenseFromRows(rows), nil
}
