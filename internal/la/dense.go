// Package la provides the linear-algebra substrate for Morpheus-Go: a
// row-major dense matrix, a CSR sparse matrix, row-selector indicator
// matrices, parallel multiplication kernels, and a symmetric eigensolver
// backed Moore-Penrose pseudo-inverse.
//
// The package plays the role that R's matrix runtime and BLAS/LAPACK play in
// the paper's prototype. One operand contract organizes the types:
//
//   - Matrix is the operator set of the paper's Table 1, what ML algorithms
//     are written against. Its method set is frozen: decorators outside
//     this module (the benchmark's tracing wrapper) implement exactly it.
//   - Mat is Matrix plus the few methods the normalized matrix's rewrites
//     ask of a base table (S or an R_i). Dense, CSR and
//     core.NormalizedMatrix all implement it, so one algorithm runs
//     materialized or factorized, and a normalized matrix can itself be an
//     attribute table (a snowflake schema).
package la

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is the logical operand contract: every operator of the paper's
// Table 1 that ML algorithms consume. Dense, CSR, and the normalized matrix
// implement it, so an LA script written against Matrix is automatically
// factorized when handed a normalized matrix (closure property, §3).
type Matrix interface {
	// Rows and Cols report the logical dimensions (after any transpose).
	Rows() int
	Cols() int
	// T returns the transpose as a logical operand. Implementations may
	// share storage with the receiver.
	T() Matrix

	// Element-wise scalar operators (Table 1, "Element-wise Scalar Op").
	Scale(x float64) Matrix
	AddScalar(x float64) Matrix
	Pow(p float64) Matrix
	Apply(f func(float64) float64) Matrix

	// Aggregation operators. RowSums returns an n×1 column vector,
	// ColSums a 1×d row vector.
	RowSums() *Dense
	ColSums() *Dense
	Sum() float64

	// Mul is left matrix multiplication (LMM): receiver · X.
	Mul(x *Dense) *Dense
	// LeftMul is right matrix multiplication (RMM): X · receiver.
	LeftMul(x *Dense) *Dense
	// CrossProd computes receiverᵀ · receiver.
	CrossProd() *Dense
	// Ginv computes the Moore-Penrose pseudo-inverse.
	Ginv() *Dense

	// Dense materializes the operand as a dense matrix.
	Dense() *Dense
}

// Mat is a base table of the normalized matrix — the entity matrix S or an
// attribute matrix R_i, dense, sparse or itself normalized: a Matrix plus
// what the rewrite rules ask of a base table beyond Table 1. Its
// element-wise operators keep the storage class where they can (a Mat's
// Scale, AddScalar, Pow and Apply return a Mat).
type Mat interface {
	Matrix
	At(i, j int) float64
	NNZ() int
	// TMul computes Aᵀ·X.
	TMul(x *Dense) *Dense
	// GroupTMul computes Aᵀ·OneHot(groups, k) as group sums.
	GroupTMul(groups []int32, k int) *Dense
	// Gram computes AAᵀ.
	Gram() *Dense
	// ScaleRows multiplies row i by v[i] (used by the efficient
	// cross-product rewrite, Algorithm 2).
	ScaleRows(v []float64) Mat
}

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("la: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// DenseFromRows builds a dense matrix from a slice of equal-length rows.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	d := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("la: ragged row %d: %d != %d", i, len(r), c))
		}
		copy(d.data[i*c:(i+1)*c], r)
	}
	return d
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Ones returns an all-ones rows×cols matrix (the paper's 1_{a×b}).
func Ones(rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = 1
	}
	return m
}

// ColVector returns an n×1 matrix holding v.
func ColVector(v []float64) *Dense {
	m := NewDense(len(v), 1)
	copy(m.data, v)
	return m
}

// RowVector returns a 1×n matrix holding v.
func RowVector(v []float64) *Dense {
	m := NewDense(1, len(v))
	copy(m.data, v)
	return m
}

// Rows reports the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Dense) Cols() int { return m.cols }

// NNZ counts the stored non-zero entries.
func (m *Dense) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the i-th row as a shared slice (no copy).
func (m *Dense) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing row-major slice (no copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// TDense returns the transposed copy as a concrete *Dense.
func (m *Dense) TDense() *Dense {
	t := NewDense(m.cols, m.rows)
	// Blocked transpose for cache friendliness.
	const bs = 64
	for i0 := 0; i0 < m.rows; i0 += bs {
		i1 := min(i0+bs, m.rows)
		for j0 := 0; j0 < m.cols; j0 += bs {
			j1 := min(j0+bs, m.cols)
			for i := i0; i < i1; i++ {
				row := m.data[i*m.cols:]
				for j := j0; j < j1; j++ {
					t.data[j*m.rows+i] = row[j]
				}
			}
		}
	}
	return t
}

// SliceRowsDense returns a copy of rows [i0,i1).
func (m *Dense) SliceRowsDense(i0, i1 int) *Dense {
	if i0 < 0 || i1 > m.rows || i0 > i1 {
		panic(fmt.Sprintf("la: row slice [%d,%d) out of bounds %d", i0, i1, m.rows))
	}
	out := NewDense(i1-i0, m.cols)
	copy(out.data, m.data[i0*m.cols:i1*m.cols])
	return out
}

// SetBlock copies blk into m with its top-left corner at (r0, c0).
func (m *Dense) SetBlock(r0, c0 int, blk *Dense) {
	for i := 0; i < blk.rows; i++ {
		copy(m.Row(r0 + i)[c0:c0+blk.cols], blk.Row(i))
	}
}

// HCat concatenates matrices side by side: [a, b, ...].
func HCat(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			panic(fmt.Sprintf("la: HCat row mismatch %d != %d", m.rows, rows))
		}
		cols += m.cols
	}
	out := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(dst[off:off+m.cols], m.Row(i))
			off += m.cols
		}
	}
	return out
}

// VCat stacks matrices vertically: [a; b; ...].
func VCat(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("la: VCat col mismatch %d != %d", m.cols, cols))
		}
		rows += m.rows
	}
	out := NewDense(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out
}

// EqualApprox reports whether a and b have the same shape and all elements
// within tol of each other.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b, which must have the same shape.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("la: shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	d := 0.0
	for i, v := range a.data {
		if x := math.Abs(v - b.data[i]); x > d {
			d = x
		}
	}
	return d
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense %dx%d", m.rows, m.cols)
	if m.rows*m.cols > 64 {
		return sb.String()
	}
	for i := 0; i < m.rows; i++ {
		sb.WriteString("\n[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.At(i, j))
		}
		sb.WriteByte(']')
	}
	return sb.String()
}
