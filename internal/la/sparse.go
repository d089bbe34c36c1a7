package la

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. The real-world datasets in the
// paper (Table 6) are sparse one-hot feature matrices, so the entity and
// attribute tables of a normalized matrix may be CSR.
type CSR struct {
	rows, cols int
	indptr     []int
	indices    []int32
	vals       []float64
}

// NewCSR wraps pre-built CSR arrays without copying. indptr must have
// rows+1 entries starting at 0 and non-decreasing; per-row column indices
// must be strictly increasing and within [0, cols). Violations panic, so a
// constructed CSR always satisfies the invariants every kernel indexes by.
func NewCSR(rows, cols int, indptr []int, indices []int32, vals []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: negative CSR dimensions %dx%d", rows, cols))
	}
	if len(indptr) != rows+1 {
		panic(fmt.Sprintf("la: indptr length %d != rows+1 %d", len(indptr), rows+1))
	}
	if indptr[0] != 0 {
		panic(fmt.Sprintf("la: indptr[0] = %d, want 0", indptr[0]))
	}
	for i := 0; i < rows; i++ {
		if indptr[i+1] < indptr[i] {
			panic(fmt.Sprintf("la: indptr decreases at row %d: %d -> %d", i, indptr[i], indptr[i+1]))
		}
	}
	if len(indices) != len(vals) || len(indices) != indptr[rows] {
		panic("la: CSR arrays inconsistent")
	}
	for i := 0; i < rows; i++ {
		prev := int32(-1)
		for _, j := range indices[indptr[i]:indptr[i+1]] {
			if j < 0 || int(j) >= cols {
				panic(fmt.Sprintf("la: CSR column %d out of range [0,%d) in row %d", j, cols, i))
			}
			if j <= prev {
				panic(fmt.Sprintf("la: CSR columns not strictly increasing in row %d (%d after %d)", i, j, prev))
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, indptr: indptr, indices: indices, vals: vals}
}

// CSRBuilder accumulates (i,j,v) triplets and assembles a CSR matrix.
// Duplicate coordinates are summed.
type CSRBuilder struct {
	rows, cols int
	is         []int32
	js         []int32
	vs         []float64
}

// NewCSRBuilder returns a builder for a rows×cols sparse matrix.
func NewCSRBuilder(rows, cols int) *CSRBuilder {
	return &CSRBuilder{rows: rows, cols: cols}
}

// Add records a triplet; zero values are dropped.
func (b *CSRBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("la: triplet (%d,%d) out of bounds %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, int32(i))
	b.js = append(b.js, int32(j))
	b.vs = append(b.vs, v)
}

// Build assembles the CSR matrix: a stable counting sort of the triplets by
// row, then per row an insertion sort by column (rows are short or already
// in order) that keeps duplicates in the order they were added, which is
// the order they are summed in.
func (b *CSRBuilder) Build() *CSR {
	indptr := make([]int, b.rows+1)
	for _, i := range b.is {
		indptr[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		indptr[i+1] += indptr[i]
	}
	indices := make([]int32, len(b.is))
	vals := make([]float64, len(b.is))
	next := append([]int(nil), indptr...)
	for k, i := range b.is {
		indices[next[i]], vals[next[i]] = b.js[k], b.vs[k]
		next[i]++
	}
	n := 0 // entries kept so far
	for i := 0; i < b.rows; i++ {
		lo, hi := indptr[i], indptr[i+1]
		for p := lo + 1; p < hi; p++ {
			for q := p; q > lo && indices[q-1] > indices[q]; q-- {
				indices[q-1], indices[q] = indices[q], indices[q-1]
				vals[q-1], vals[q] = vals[q], vals[q-1]
			}
		}
		indptr[i] = n
		for p := lo; p < hi; {
			j, v := indices[p], 0.0
			for ; p < hi && indices[p] == j; p++ {
				v += vals[p]
			}
			if v != 0 {
				indices[n], vals[n] = j, v
				n++
			}
		}
	}
	indptr[b.rows] = n
	return &CSR{rows: b.rows, cols: b.cols, indptr: indptr, indices: indices[:n], vals: vals[:n]}
}

// CSRFromDense converts a dense matrix, dropping exact zeros: one parallel
// pass counts each row's non-zeros, a second writes them in place.
func CSRFromDense(d *Dense) *CSR {
	indptr := make([]int, d.rows+1)
	parallelFor(d.rows, len(d.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, v := range d.Row(i) {
				if v != 0 {
					indptr[i+1]++
				}
			}
		}
	})
	for i := 0; i < d.rows; i++ {
		indptr[i+1] += indptr[i]
	}
	indices, vals := make([]int32, indptr[d.rows]), make([]float64, indptr[d.rows])
	parallelFor(d.rows, len(d.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at := indptr[i]
			for j, v := range d.Row(i) {
				if v != 0 {
					indices[at], vals[at] = int32(j), v
					at++
				}
			}
		}
	})
	return &CSR{rows: d.rows, cols: d.cols, indptr: indptr, indices: indices, vals: vals}
}

// Rows reports the number of rows.
func (c *CSR) Rows() int { return c.rows }

// Cols reports the number of columns.
func (c *CSR) Cols() int { return c.cols }

// NNZ reports the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.vals) }

// At returns the (i,j) element by binary search within row i.
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("la: index (%d,%d) out of bounds %dx%d", i, j, c.rows, c.cols))
	}
	lo, hi := c.indptr[i], c.indptr[i+1]
	idx := sort.Search(hi-lo, func(k int) bool { return c.indices[lo+k] >= int32(j) })
	if lo+idx < hi && c.indices[lo+idx] == int32(j) {
		return c.vals[lo+idx]
	}
	return 0
}

// RowNNZ returns the column indices and values of row i (shared slices).
func (c *CSR) RowNNZ(i int) ([]int32, []float64) {
	lo, hi := c.indptr[i], c.indptr[i+1]
	return c.indices[lo:hi], c.vals[lo:hi]
}

// Dense materializes the matrix.
func (c *CSR) Dense() *Dense {
	out := NewDense(c.rows, c.cols)
	for i := 0; i < c.rows; i++ {
		row := out.Row(i)
		idx, vals := c.RowNNZ(i)
		for k, j := range idx {
			row[j] = vals[k]
		}
	}
	return out
}

// Clone returns a deep copy.
func (c *CSR) Clone() *CSR {
	ip := make([]int, len(c.indptr))
	copy(ip, c.indptr)
	ix := make([]int32, len(c.indices))
	copy(ix, c.indices)
	vs := make([]float64, len(c.vals))
	copy(vs, c.vals)
	return &CSR{rows: c.rows, cols: c.cols, indptr: ip, indices: ix, vals: vs}
}

// TCSR returns the transposed matrix in CSR form (an O(nnz) counting sort).
func (c *CSR) TCSR() *CSR {
	indptr := make([]int, c.cols+1)
	for _, j := range c.indices {
		indptr[j+1]++
	}
	for j := 0; j < c.cols; j++ {
		indptr[j+1] += indptr[j]
	}
	indices := make([]int32, len(c.indices))
	vals := make([]float64, len(c.vals))
	next := make([]int, c.cols)
	copy(next, indptr[:c.cols])
	for i := 0; i < c.rows; i++ {
		idx, vs := c.RowNNZ(i)
		for k, j := range idx {
			p := next[j]
			indices[p] = int32(i)
			vals[p] = vs[k]
			next[j]++
		}
	}
	return &CSR{rows: c.cols, cols: c.rows, indptr: indptr, indices: indices, vals: vals}
}

// GatherRows returns the CSR matrix whose i-th row is row assign[i] of c
// (i.e. K·c for an indicator K with assignments assign).
func (c *CSR) GatherRows(assign []int32) *CSR {
	indptr := make([]int, len(assign)+1)
	for i, r := range assign {
		indptr[i+1] = indptr[i] + (c.indptr[r+1] - c.indptr[r])
	}
	indices := make([]int32, indptr[len(assign)])
	vals := make([]float64, indptr[len(assign)])
	parallelFor(len(assign), indptr[len(assign)], func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := assign[i]
			copy(indices[indptr[i]:indptr[i+1]], c.indices[c.indptr[r]:c.indptr[r+1]])
			copy(vals[indptr[i]:indptr[i+1]], c.vals[c.indptr[r]:c.indptr[r+1]])
		}
	})
	return &CSR{rows: len(assign), cols: c.cols, indptr: indptr, indices: indices, vals: vals}
}

// JoinCSR materializes [K_1·A_1, ..., K_q·A_q] in CSR form: row i is row
// ks[p].ColOf(i) of each part A_p (row i itself when ks[p] is nil), side by
// side. CSR parts keep what they store; any other part is converted once
// by CSRFromDense, so its exact zeros drop. One parallel pass sizes every
// row, a prefix sum places it, and a second parallel pass fills it from its
// base-table rows.
func JoinCSR(ks []*Indicator, parts []Mat) *CSR {
	cs, sels, offs, n := make([]*CSR, len(parts)), make([][]int32, len(parts)), make([]int32, len(parts)+1), 0
	for p, a := range parts {
		c, ok := a.(*CSR)
		if !ok {
			c = CSRFromDense(a.Dense())
		}
		k := ks[p]
		if k == nil {
			k = IdentityIndicator(c.rows)
		}
		cs[p], sels[p], offs[p+1], n = c, k.rows, offs[p]+int32(c.cols), len(k.rows)
	}
	indptr := make([]int, n+1)
	parallelFor(n, n*len(cs), func(lo, hi int) {
		for p, c := range cs {
			for i, r := range sels[p][lo:hi] {
				indptr[lo+i+1] += c.indptr[r+1] - c.indptr[r]
			}
		}
	})
	for i := 0; i < n; i++ {
		indptr[i+1] += indptr[i]
	}
	indices, vals := make([]int32, indptr[n]), make([]float64, indptr[n])
	parallelFor(n, indptr[n], func(lo, hi int) {
		// A block of rows at a time, part by part: the block's output stays
		// in cache while the tight per-part loop overlaps its random reads.
		var next [256]int
		for b := lo; b < hi; b += len(next) {
			e := min(b+len(next), hi)
			copy(next[:], indptr[b:e])
			for p, c := range cs {
				for i := b; i < e; i++ {
					idx, vs := c.RowNNZ(int(sels[p][i]))
					at := next[i-b]
					di, dv := indices[at:at+len(idx)], vals[at:at+len(idx)]
					for k, j := range idx {
						di[k], dv[k] = j+offs[p], vs[k]
					}
					next[i-b] += len(idx)
				}
			}
		}
	})
	return &CSR{rows: n, cols: int(offs[len(cs)]), indptr: indptr, indices: indices, vals: vals}
}

// VCatCSR stacks sparse matrices vertically: [a; b; ...].
func VCatCSR(ms ...*CSR) *CSR {
	if len(ms) == 0 {
		return NewCSR(0, 0, []int{0}, nil, nil)
	}
	cols := ms[0].cols
	rows, nnz := 0, 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("la: VCatCSR col mismatch %d != %d", m.cols, cols))
		}
		rows += m.rows
		nnz += m.NNZ()
	}
	indptr := make([]int, rows+1)
	indices := make([]int32, 0, nnz)
	vals := make([]float64, 0, nnz)
	r := 0
	for _, m := range ms {
		base := len(indices)
		for i := 0; i < m.rows; i++ {
			indptr[r+i+1] = base + m.indptr[i+1]
		}
		r += m.rows
		indices = append(indices, m.indices...)
		vals = append(vals, m.vals...)
	}
	return &CSR{rows: rows, cols: cols, indptr: indptr, indices: indices, vals: vals}
}

// --- Mat interface ---

// Mul computes c·X (sparse × dense → dense), row-parallel.
func (c *CSR) Mul(x *Dense) *Dense {
	if x.rows != c.cols {
		panic(fmt.Sprintf("la: CSR Mul %dx%d · %dx%d", c.rows, c.cols, x.rows, x.cols))
	}
	out := NewDense(c.rows, x.cols)
	c.MulInto(out, x)
	return out
}

// MulInto writes c·x into out, c.Rows()×x.Cols(), like Dense.MulInto.
func (c *CSR) MulInto(out, x *Dense) {
	parallelFor(c.rows, c.NNZ()*x.cols, func(lo, hi int) { c.MulRows(out, x, lo, hi) })
}

// MulRows writes rows [lo,hi) of c·x into the same rows of out: the
// sparse twin of Dense.MulRows, with the same dispatch.
func (c *CSR) MulRows(out, x *Dense, lo, hi int) {
	k := x.cols
	if k > 1 {
		clear(out.data[lo*k : hi*k])
	}
	for i := lo; i < hi; i++ {
		idx, vs := c.RowNNZ(i)
		switch {
		case k == 1:
			s := 0.0
			for p, j := range idx {
				s += vs[p] * x.data[j]
			}
			out.data[i] = s
		case k <= narrowMax:
			for p, j := range idx {
				axpyNarrow(out.data[i*k:], x.data[int(j)*k:(int(j)+1)*k], vs[p])
			}
		default:
			for p, j := range idx {
				axpy(out.data[i*k:], x.data[int(j)*k:(int(j)+1)*k], vs[p])
			}
		}
	}
}

// TMul computes cᵀ·X without materializing the transpose: a scatter per
// row block under blockReduce, so bit-identical for any GOMAXPROCS.
func (c *CSR) TMul(x *Dense) *Dense {
	if x.rows != c.rows {
		panic(fmt.Sprintf("la: CSR TMul %dx%dᵀ · %dx%d", c.rows, c.cols, x.rows, x.cols))
	}
	k := x.cols
	return NewDenseData(c.cols, k, blockReduce(c.rows, c.cols*k, c.NNZ()*k, func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			idx, vs := c.RowNNZ(i)
			xrow := x.data[i*k : (i+1)*k]
			switch {
			case k == 1:
				for p, j := range idx {
					acc[j] += vs[p] * xrow[0]
				}
			case k <= narrowMax:
				for p, j := range idx {
					axpyNarrow(acc[int(j)*k:], xrow, vs[p])
				}
			default:
				for p, j := range idx {
					axpy(acc[int(j)*k:], xrow, vs[p])
				}
			}
		}
	}))
}

// GroupTMul computes cᵀ·OneHot(groups, k) as group sums, one add per
// stored entry (Dense.GroupTMul).
func (c *CSR) GroupTMul(groups []int32, k int) *Dense {
	return groupSums(c.rows, c.cols, k, groups, c.NNZ(), func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := acc[int(groups[i])*c.cols:]
			idx, vs := c.RowNNZ(i)
			for p, j := range idx {
				dst[j] += vs[p]
			}
		}
	})
}

// LeftMul computes X·c (dense × sparse → dense).
func (c *CSR) LeftMul(x *Dense) *Dense {
	if x.cols != c.rows {
		panic(fmt.Sprintf("la: CSR LeftMul %dx%d · %dx%d", x.rows, x.cols, c.rows, c.cols))
	}
	out := NewDense(x.rows, c.cols)
	parallelFor(x.rows, c.NNZ()*x.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := x.Row(i)
			orow := out.Row(i)
			for r := 0; r < c.rows; r++ {
				xv := xrow[r]
				idx, vs := c.RowNNZ(r)
				for k, j := range idx {
					orow[j] += xv * vs[k]
				}
			}
		}
	})
	return out
}

// CrossProd computes cᵀc. Rows are rank-1 updates on the upper triangle.
func (c *CSR) CrossProd() *Dense {
	d := c.cols
	out := NewDense(d, d)
	for i := 0; i < c.rows; i++ {
		idx, vs := c.RowNNZ(i)
		for a, ja := range idx {
			va := vs[a]
			orow := out.Row(int(ja))
			for b := a; b < len(idx); b++ {
				orow[idx[b]] += va * vs[b]
			}
		}
	}
	mirrorLower(out)
	return out
}

// Gram computes c·cᵀ via the transpose: (cᵀ)ᵀ(cᵀ).
func (c *CSR) Gram() *Dense { return c.TCSR().CrossProd() }

// RowSums returns an n×1 column vector of row sums.
func (c *CSR) RowSums() *Dense {
	out := make([]float64, c.rows)
	for i := 0; i < c.rows; i++ {
		_, vs := c.RowNNZ(i)
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out[i] = s
	}
	return ColVector(out)
}

// ColSums returns a 1×d row vector of column sums.
func (c *CSR) ColSums() *Dense {
	out := make([]float64, c.cols)
	for k, j := range c.indices {
		out[j] += c.vals[k]
	}
	return RowVector(out)
}

// Sum returns the sum of all elements.
func (c *CSR) Sum() float64 {
	s := 0.0
	for _, v := range c.vals {
		s += v
	}
	return s
}

func (c *CSR) mapVals(f func(float64) float64) *CSR {
	out := c.Clone()
	for k, v := range out.vals {
		out.vals[k] = f(v)
	}
	return out
}

// Scale implements Matrix; scaling preserves sparsity.
func (c *CSR) Scale(x float64) Matrix { return c.mapVals(func(v float64) float64 { return v * x }) }

// AddScalar implements Matrix. Adding a non-zero scalar densifies.
func (c *CSR) AddScalar(x float64) Matrix {
	if x == 0 {
		return c.Clone()
	}
	return c.Dense().AddScalarDense(x)
}

// Pow implements Matrix; 0^p stays 0 for p>0, so sparsity is preserved.
func (c *CSR) Pow(p float64) Matrix {
	if p <= 0 {
		return c.Dense().PowDense(p)
	}
	if p == 2 {
		return c.mapVals(func(v float64) float64 { return v * v })
	}
	return c.mapVals(func(v float64) float64 { return math.Pow(v, p) })
}

// Apply implements Matrix. If f(0)==0 the result stays sparse; otherwise it
// densifies (e.g. exp).
func (c *CSR) Apply(f func(float64) float64) Matrix {
	if f(0) == 0 {
		return c.mapVals(f)
	}
	return c.Dense().ApplyDense(f)
}

// ScaleRows implements Mat.
func (c *CSR) ScaleRows(v []float64) Mat {
	if len(v) != c.rows {
		panic(fmt.Sprintf("la: ScaleRows length %d != rows %d", len(v), c.rows))
	}
	out := c.Clone()
	for i := 0; i < c.rows; i++ {
		for k := out.indptr[i]; k < out.indptr[i+1]; k++ {
			out.vals[k] *= v[i]
		}
	}
	return out
}

// SliceRows returns a copy of rows [i0,i1).
func (c *CSR) SliceRows(i0, i1 int) *CSR {
	if i0 < 0 || i1 > c.rows || i0 > i1 {
		panic(fmt.Sprintf("la: row slice [%d,%d) out of bounds %d", i0, i1, c.rows))
	}
	base := c.indptr[i0]
	indptr := make([]int, i1-i0+1)
	for i := i0; i <= i1; i++ {
		indptr[i-i0] = c.indptr[i] - base
	}
	indices := make([]int32, c.indptr[i1]-base)
	copy(indices, c.indices[base:c.indptr[i1]])
	vals := make([]float64, c.indptr[i1]-base)
	copy(vals, c.vals[base:c.indptr[i1]])
	return &CSR{rows: i1 - i0, cols: c.cols, indptr: indptr, indices: indices, vals: vals}
}

// T implements Matrix.
func (c *CSR) T() Matrix { return c.TCSR() }

// Ginv computes the pseudo-inverse of the materialized operand.
func (c *CSR) Ginv() *Dense { return GinvOf(c) }
