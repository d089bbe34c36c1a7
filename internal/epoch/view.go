package epoch

import (
	"sync"

	"repro/internal/la"
)

// viewMat is one table of a pinned epoch: the frozen base matrix with
// the epoch's overlay patched on top. Element access (At, ReadRow) is
// served directly from base+overlay, so streaming a snapshot out of
// core never materializes the table, and neither does Mul; the other
// heavy la.Mat operations delegate to a lazily materialized patched
// matrix, built at most once. A viewMat is immutable and safe for
// concurrent use.
type viewMat struct {
	base    la.Mat
	overlay map[int32][]float64

	once sync.Once
	mat  la.Mat // materialized base+overlay; == base when overlay is empty
}

var _ la.Mat = (*viewMat)(nil)

// Rows reports the table's tuple count.
func (v *viewMat) Rows() int { return v.base.Rows() }

// Cols reports the table's feature width.
func (v *viewMat) Cols() int { return v.base.Cols() }

// At returns the element at (i, j), reading the overlay first.
func (v *viewMat) At(i, j int) float64 {
	if row, ok := v.overlay[int32(i)]; ok {
		return row[j]
	}
	return v.base.At(i, j)
}

// ReadRow copies row i into dst (len(dst) == Cols()), overlay first.
// It implements chunk.RowSource so snapshots stream straight into a
// chunk store.
func (v *viewMat) ReadRow(i int, dst []float64) {
	if row, ok := v.overlay[int32(i)]; ok {
		copy(dst, row)
		return
	}
	readBaseRow(v.base, i, dst)
}

// materialize builds (once) the patched concrete matrix all heavy
// operations run on. An empty overlay yields the base itself — the
// common case for unchanged tables, where the view is free.
func (v *viewMat) materialize() la.Mat {
	v.once.Do(func() {
		if len(v.overlay) == 0 {
			v.mat = v.base
			return
		}
		if c, ok := v.base.(*la.CSR); ok {
			v.mat = patchCSR(c, v.overlay)
			return
		}
		d := v.base.Dense().Clone()
		for r, vals := range v.overlay {
			copy(d.Row(int(r)), vals)
		}
		v.mat = d
	})
	return v.mat
}

// patchCSR rebuilds a CSR matrix with the overlay rows replaced,
// preserving sparsity: patched rows store only their nonzeros.
func patchCSR(c *la.CSR, overlay map[int32][]float64) *la.CSR {
	rows, cols := c.Rows(), c.Cols()
	indptr := make([]int, rows+1)
	var indices []int32
	var vals []float64
	for i := 0; i < rows; i++ {
		idx, vs := c.RowNNZ(i)
		if row, ok := overlay[int32(i)]; ok {
			idx, vs = csrRow(row).RowNNZ(0)
		}
		indices = append(indices, idx...)
		vals = append(vals, vs...)
		indptr[i+1] = len(indices)
	}
	return la.NewCSR(rows, cols, indptr, indices, vals)
}

// csrRow is row as a one-row CSR matrix of its nonzeros.
func csrRow(row []float64) *la.CSR {
	idx, vs := make([]int32, 0, len(row)), make([]float64, 0, len(row))
	for j, x := range row {
		if x != 0 {
			idx, vs = append(idx, int32(j)), append(vs, x)
		}
	}
	return la.NewCSR(1, len(row), []int{0, len(idx)}, idx, vs)
}

// NNZ counts nonzero elements of the patched table.
func (v *viewMat) NNZ() int { return v.materialize().NNZ() }

// Mul computes A·X without materializing the table: base·X, with each
// overlay row recomputed by the kernel the materialized product runs on
// that row. Rows are independent, so the result is bit-identical.
func (v *viewMat) Mul(x *la.Dense) *la.Dense {
	_, dense := v.base.(*la.Dense)
	if _, sparse := v.base.(*la.CSR); !dense && !sparse {
		return v.materialize().Mul(x)
	}
	out := v.base.Mul(x)
	for i, r := range v.overlay {
		dst := la.NewDenseData(1, out.Cols(), out.Row(int(i)))
		if dense {
			la.NewDenseData(1, len(r), r).MulRows(dst, x, 0, 1)
		} else {
			csrRow(r).MulRows(dst, x, 0, 1)
		}
	}
	return out
}

// TMul computes Aᵀ·X.
func (v *viewMat) TMul(x *la.Dense) *la.Dense { return v.materialize().TMul(x) }

// GroupTMul computes Aᵀ·OneHot(groups, k).
func (v *viewMat) GroupTMul(groups []int32, k int) *la.Dense {
	return v.materialize().GroupTMul(groups, k)
}

// LeftMul computes X·A.
func (v *viewMat) LeftMul(x *la.Dense) *la.Dense { return v.materialize().LeftMul(x) }

// CrossProd computes AᵀA.
func (v *viewMat) CrossProd() *la.Dense { return v.materialize().CrossProd() }

// Gram computes AAᵀ.
func (v *viewMat) Gram() *la.Dense { return v.materialize().Gram() }

// RowSums sums each row.
func (v *viewMat) RowSums() *la.Dense { return v.materialize().RowSums() }

// ColSums sums each column.
func (v *viewMat) ColSums() *la.Dense { return v.materialize().ColSums() }

// Sum totals all elements.
func (v *viewMat) Sum() float64 { return v.materialize().Sum() }

// T returns the patched table's transpose.
func (v *viewMat) T() la.Matrix { return v.materialize().T() }

// Scale returns v scaled by x.
func (v *viewMat) Scale(x float64) la.Matrix { return v.materialize().Scale(x) }

// AddScalar returns v with x added to every element.
func (v *viewMat) AddScalar(x float64) la.Matrix { return v.materialize().AddScalar(x) }

// Pow returns v with every element raised to p.
func (v *viewMat) Pow(p float64) la.Matrix { return v.materialize().Pow(p) }

// Apply returns v with f applied elementwise.
func (v *viewMat) Apply(f func(float64) float64) la.Matrix { return v.materialize().Apply(f) }

// ScaleRows returns v with row i scaled by s[i].
func (v *viewMat) ScaleRows(s []float64) la.Mat { return v.materialize().ScaleRows(s) }

// Ginv computes the patched table's pseudo-inverse.
func (v *viewMat) Ginv() *la.Dense { return v.materialize().Ginv() }

// Dense materializes the patched table densely.
func (v *viewMat) Dense() *la.Dense { return v.materialize().Dense() }
