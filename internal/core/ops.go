package core

import (
	"fmt"

	"repro/internal/la"
)

// --- Element-wise scalar operators (§3.3.1, §3.5, appendix A/D/E) ---
//
// T ∘ x → (S ∘ x, K1..Kq, R1 ∘ x, ..., Rq ∘ x); the indicators are shared
// and the transpose flag is preserved, so the result stays normalized and
// later operators keep exploiting the factorized form. A base table's
// element-wise result is again a base table (la.Mat).

func (m *NormalizedMatrix) mapParts(f func(la.Mat) la.Matrix) *NormalizedMatrix {
	var s la.Mat
	if m.s != nil {
		s = f(m.s).(la.Mat)
	}
	rs := make([]la.Mat, len(m.rs))
	for i, r := range m.rs {
		rs[i] = f(r).(la.Mat)
	}
	return m.withParts(s, rs)
}

// Scale implements T * x.
func (m *NormalizedMatrix) Scale(x float64) la.Matrix {
	return m.mapParts(func(p la.Mat) la.Matrix { return p.Scale(x) })
}

// AddScalar implements T + x.
func (m *NormalizedMatrix) AddScalar(x float64) la.Matrix {
	return m.mapParts(func(p la.Mat) la.Matrix { return p.AddScalar(x) })
}

// Pow implements T ^ p element-wise.
func (m *NormalizedMatrix) Pow(p float64) la.Matrix {
	return m.mapParts(func(q la.Mat) la.Matrix { return q.Pow(p) })
}

// Apply implements f(T) for a scalar function f.
func (m *NormalizedMatrix) Apply(f func(float64) float64) la.Matrix {
	return m.mapParts(func(p la.Mat) la.Matrix { return p.Apply(f) })
}

// --- Aggregation operators (§3.3.2, §3.5, appendix A/D/E) ---

// rowSumsRaw computes rowSums over the untransposed T, the LMM's gather
// with each arm's row sums as its prepared product:
//
//	rowSums(T) → IS·rowSums(S) + Σ Ki·rowSums(Ri)
func (m *NormalizedMatrix) rowSumsRaw() *la.Dense {
	return m.gatherRows(func(p la.Mat) *la.Dense { return p.RowSums() })
}

// RowSquaredNorms returns ‖t_i‖² for every row of T without forming T²
// (la.RowSquaredNorms): rowSums(T²) → IS·norms(S) + Σ Ki·norms(Ri).
func (m *NormalizedMatrix) RowSquaredNorms() []float64 {
	if m.trans {
		return m.Pow(2).RowSums().Data()
	}
	return m.gatherRows(func(p la.Mat) *la.Dense { return la.ColVector(la.RowSquaredNorms(p)) }).Data()
}

// gatherRows computes a per-row statistic f of the untransposed T from its
// parts': S's beside each arm's, gathered by MulBlock's nil-S path.
func (m *NormalizedMatrix) gatherRows(f func(la.Mat) *la.Dense) *la.Dense {
	b, rs := m.star()
	z := make([]*la.Dense, len(rs))
	for t, r := range rs {
		z[t] = f(r)
	}
	out := f(b.S)
	MulBlock(out, Block{Keys: b.Keys}, nil, z)
	return out
}

// colSumsRaw computes colSums over the untransposed T:
//
//	colSums(T) → [colSums(IS)·S, colSums(K1)·R1, ..., colSums(Kq)·Rq]
func (m *NormalizedMatrix) colSumsRaw() *la.Dense {
	s, ks, rs := m.arms()
	parts := []*la.Dense{s.ColSums()}
	for t, k := range ks {
		parts = append(parts, rs[t].LeftMul(la.RowVector(k.ColCounts())))
	}
	return la.HCat(parts...)
}

// RowSums returns the n×1 row-sum vector; on a transposed matrix it is
// rewritten as colSums(T)ᵀ (appendix A).
func (m *NormalizedMatrix) RowSums() *la.Dense {
	if m.trans {
		return m.colSumsRaw().TDense()
	}
	return m.rowSumsRaw()
}

// ColSums returns the 1×d column-sum vector; on a transposed matrix it is
// rewritten as rowSums(T)ᵀ (appendix A).
func (m *NormalizedMatrix) ColSums() *la.Dense {
	if m.trans {
		return m.rowSumsRaw().TDense()
	}
	return m.colSumsRaw()
}

// Sum computes the grand total:
//
//	sum(T) → colSums(IS)·rowSums(S) + Σ colSums(Ki)·rowSums(Ri)
//
// sum(Tᵀ) = sum(T), so the transpose flag is irrelevant.
func (m *NormalizedMatrix) Sum() float64 {
	s, ks, rs := m.arms()
	total := s.Sum()
	for t, k := range ks {
		total += weightedSum(k.ColCounts(), rs[t].RowSums().Data())
	}
	return total
}

func weightedSum(w, v []float64) float64 {
	s := 0.0
	for i, x := range w {
		s += x * v[i]
	}
	return s
}

// --- Multiplication operators (§3.3.3, §3.3.4, §3.5, appendix A/D/E) ---

// mulRaw computes the factorized LMM over the untransposed T:
//
//	TX → IS·(S·X[1:dS,]) + Σ Ki·(Ri·X[d'i-1+1 : d'i,])
//
// The small products Zi = Ri·Xi come first, then MulBlock's one pass over
// the output, out, or a new matrix when it is nil.
func (m *NormalizedMatrix) mulRaw(out, x *la.Dense) *la.Dense {
	if x.Rows() != m.dCols {
		panicShape("LMM", m.nRows, m.dCols, x)
	}
	if out == nil {
		out = la.NewDense(m.nRows, x.Cols())
	}
	b, rs := m.star()
	off := b.S.Cols()
	xs := x.SliceRowsDense(0, off)
	z := make([]*la.Dense, len(rs))
	for t, r := range rs {
		z[t] = r.Mul(x.SliceRowsDense(off, off+r.Cols()))
		off += r.Cols()
	}
	if _, ok := b.S.(rowMuler); !ok {
		copy(out.Data(), b.S.Mul(xs).Data())
		b.S = nil
	}
	MulBlock(out, b, xs, z)
	return out
}

// GroupTMul computes Tᵀ·A for A = la.OneHot(groups, k) without forming A:
// TMul's reduction with the indicator products taken on A's groups. A
// transposed T takes the LMM rewrite over the materialized A.
func (m *NormalizedMatrix) GroupTMul(groups []int32, k int) *la.Dense {
	if m.trans {
		return m.mulRaw(nil, la.OneHot(groups, k))
	}
	return m.reduceT(nil, groups, k)
}

// reduceT computes the transposed LMM TᵀP over the untransposed parts, or
// TᵀA for A = OneHot(groups, k) when p is nil: TMul's phases with the whole
// of T as one block.
func (m *NormalizedMatrix) reduceT(p *la.Dense, groups []int32, k int) *la.Dense {
	if p != nil && p.Rows() != m.nRows {
		panicShape("transposed LMM", m.dCols, m.nRows, p)
	}
	b, rs := m.star()
	nR := make([]int, len(rs))
	for t, r := range rs {
		nR[t] = r.Rows()
	}
	red := NewTMul(b.S.Cols(), nR, k)
	red.Merge(TMulBlock(b.S, p, groups, k), b.Keys, p, groups)
	out, _ := red.Finish(func(t int, kp *la.Dense) (*la.Dense, error) { return rs[t].TMul(kp), nil })
	return out
}

// leftMulRaw computes the factorized RMM over the untransposed T:
//
//	XT → [ (X·IS)·S , (X·K1)·R1 , ... , (X·Kq)·Rq ]
func (m *NormalizedMatrix) leftMulRaw(x *la.Dense) *la.Dense {
	if x.Cols() != m.nRows {
		panicShape("RMM", m.nRows, m.dCols, x)
	}
	s, ks, rs := m.arms()
	parts := []*la.Dense{s.LeftMul(x)}
	for t, k := range ks {
		parts = append(parts, rs[t].LeftMul(k.LeftMul(x)))
	}
	return la.HCat(parts...)
}

// Mul computes T·X (LMM); on a transposed matrix it computes Tᵀ·X via the
// stacked transposed-LMM rewrite.
func (m *NormalizedMatrix) Mul(x *la.Dense) *la.Dense {
	if m.trans {
		return m.reduceT(x, nil, x.Cols())
	}
	return m.mulRaw(nil, x)
}

// MulInto writes T·X into out, n×k: MulBlock's one pass over a caller's
// output (la.InMemory's T·X, kept from scan to scan).
func (m *NormalizedMatrix) MulInto(out, x *la.Dense) {
	if m.trans {
		copy(out.Data(), m.Mul(x).Data())
	} else {
		m.mulRaw(out, x)
	}
}

// LeftMul computes X·T (RMM); on a transposed matrix, X·Tᵀ → (T·Xᵀ)ᵀ
// (appendix A).
func (m *NormalizedMatrix) LeftMul(x *la.Dense) *la.Dense {
	if m.trans {
		return m.mulRaw(nil, x.TDense()).TDense()
	}
	return m.leftMulRaw(x)
}

// TMul computes Tᵀ·X (la.Mat): Mul on the transpose.
func (m *NormalizedMatrix) TMul(x *la.Dense) *la.Dense { return m.Transpose().Mul(x) }

// ScaleRows returns diag(v)·T materialized (la.Mat): it has no normalized
// form. Only a nested attribute table's diagonal Gram block asks for it.
func (m *NormalizedMatrix) ScaleRows(v []float64) la.Mat { return m.Dense().ScaleRowsDense(v) }

func panicShape(op string, rows, cols int, x *la.Dense) {
	panic(fmt.Sprintf("core: %s shape mismatch: %dx%d with %dx%d", op, rows, cols, x.Rows(), x.Cols()))
}
