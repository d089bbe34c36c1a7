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

// rowSumsRaw computes rowSums over the untransposed T:
//
//	rowSums(T) → IS·rowSums(S) + Σ Ki·rowSums(Ri)
func (m *NormalizedMatrix) rowSumsRaw() *la.Dense {
	out := make([]float64, m.nRows)
	if m.s != nil {
		sv := m.s.RowSums().Data()
		if m.is == nil {
			copy(out, sv)
		} else {
			for i, c := range m.is.Assignments() {
				out[i] = sv[c]
			}
		}
	}
	for i, k := range m.ks {
		rv := m.rs[i].RowSums().Data()
		for r, c := range k.Assignments() {
			out[r] += rv[c]
		}
	}
	return la.ColVector(out)
}

// colSumsRaw computes colSums over the untransposed T:
//
//	colSums(T) → [colSums(IS)·S, colSums(K1)·R1, ..., colSums(Kq)·Rq]
func (m *NormalizedMatrix) colSumsRaw() *la.Dense {
	parts := make([]*la.Dense, 0, len(m.ks)+1)
	if m.s != nil {
		if m.is == nil {
			parts = append(parts, m.s.ColSums())
		} else {
			parts = append(parts, m.s.LeftMul(la.RowVector(m.is.ColCounts())))
		}
	}
	for i, k := range m.ks {
		parts = append(parts, m.rs[i].LeftMul(la.RowVector(k.ColCounts())))
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
	total := 0.0
	if m.s != nil {
		if m.is == nil {
			total += m.s.Sum()
		} else {
			total += weightedSum(m.is.ColCounts(), m.s.RowSums().Data())
		}
	}
	for i, k := range m.ks {
		total += weightedSum(k.ColCounts(), m.rs[i].RowSums().Data())
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

// rowMuler is a base-table matrix whose LMM kernel runs block by block
// over a caller's output (la.Dense and la.CSR).
type rowMuler interface {
	MulRows(out, x *la.Dense, lo, hi int)
}

// mulBlock is how many output rows mulRaw finishes at a time: few enough
// that the block stays in cache between the entity part writing it and
// the gathers adding to it.
const mulBlock = 256

// mulRaw computes the factorized LMM over the untransposed T:
//
//	TX → IS·(S·X[1:dS,]) + Σ Ki·(Ri·X[d'i-1+1 : d'i,])
//
// The multiplication order Ki·(Ri·Xi) — never (Ki·Ri)·Xi — is what avoids
// re-materializing the join (§3.3.3). The small products Zi = Ri·Xi come
// first; then one pass over the output computes, block by block,
// out[i,:] = S[i,:]·X_S + Σ Zi[Ki[i],:], so each row is written once
// instead of once per table.
func (m *NormalizedMatrix) mulRaw(x *la.Dense) *la.Dense {
	if x.Rows() != m.dCols {
		panicShape("LMM", m.nRows, m.dCols, x)
	}
	offs := m.colOffsets()
	k := x.Cols()
	type gather struct {
		assign []int32
		z      []float64
	}
	terms := make([]gather, 0, len(m.ks)+1)
	var out, xs *la.Dense
	var direct rowMuler
	if m.s != nil {
		xs = x.SliceRowsDense(0, offs[0])
		if m.is != nil {
			terms = append(terms, gather{m.is.Assignments(), m.s.Mul(xs).Data()})
		} else if rm, ok := m.s.(rowMuler); ok {
			direct = rm
		} else {
			out = m.s.Mul(xs)
		}
	}
	for i, ki := range m.ks {
		zi := m.rs[i].Mul(x.SliceRowsDense(offs[i], offs[i+1]))
		terms = append(terms, gather{ki.Assignments(), zi.Data()})
	}
	fresh := out == nil
	if fresh {
		out = la.NewDense(m.nRows, k)
	}
	od := out.Data()
	la.ParallelRows(m.nRows, m.nRows*k*(m.dS()+len(terms)), func(lo, hi int) {
		for b := lo; b < hi; b += mulBlock {
			e := min(b+mulBlock, hi)
			if direct != nil {
				direct.MulRows(out, xs, b, e)
			} else if fresh {
				clear(od[b*k : e*k]) // written before read: one page fault per fresh page, not two
			}
			for _, t := range terms {
				if k == 1 {
					for i, a := range t.assign[b:e] {
						od[b+i] += t.z[a]
					}
					continue
				}
				for i := b; i < e; i++ {
					dst, a := od[i*k:(i+1)*k], int(t.assign[i])
					for c, v := range t.z[a*k : (a+1)*k] {
						dst[c] += v
					}
				}
			}
		}
	})
	return out
}

// tMulRaw computes the transposed LMM TᵀX over the untransposed parts:
//
//	TᵀX → [ Sᵀ·(ISᵀ·X) ; R1ᵀ·(K1ᵀ·X) ; ... ]  (stacked),
//
// which is the [PS, (PK)R]ᵀ pattern the factorized ML algorithms in §4 use.
func (m *NormalizedMatrix) tMulRaw(x *la.Dense) *la.Dense {
	if x.Rows() != m.nRows {
		panicShape("transposed LMM", m.dCols, m.nRows, x)
	}
	parts := make([]*la.Dense, 0, len(m.ks)+1)
	if m.s != nil {
		xs := x
		if m.is != nil {
			xs = m.is.TMul(x)
		}
		parts = append(parts, m.s.TMul(xs))
	}
	for i, k := range m.ks {
		parts = append(parts, m.rs[i].TMul(k.TMul(x)))
	}
	return la.VCat(parts...)
}

// GroupTMul computes Tᵀ·A for A = la.OneHot(groups, k) without forming A:
// tMulRaw's rewrite with the indicator products taken on A's groups,
//
//	TᵀA → [ Sᵀ·(ISᵀ·A) ; R1ᵀ·(K1ᵀ·A) ; ... ],
//
// where Sᵀ·A without an IS is S's own group sums, and each KᵀA (ISᵀA) is
// an nR×k matrix of join counts — small integers, exact in any order. A
// transposed T takes the LMM rewrite over the materialized A.
func (m *NormalizedMatrix) GroupTMul(groups []int32, k int) *la.Dense {
	if m.trans {
		return m.mulRaw(la.OneHot(groups, k))
	}
	counts := func(ind *la.Indicator) *la.Dense {
		c := la.NewDense(ind.Cols(), k)
		cd := c.Data()
		for i, r := range ind.Assignments() {
			cd[int(r)*k+int(groups[i])]++
		}
		return c
	}
	parts := make([]*la.Dense, 0, len(m.ks)+1)
	if m.s != nil {
		if m.is == nil {
			parts = append(parts, m.s.GroupTMul(groups, k))
		} else {
			parts = append(parts, m.s.TMul(counts(m.is)))
		}
	}
	for i, ki := range m.ks {
		parts = append(parts, m.rs[i].TMul(counts(ki)))
	}
	return la.VCat(parts...)
}

// leftMulRaw computes the factorized RMM over the untransposed T:
//
//	XT → [ (X·IS)·S , (X·K1)·R1 , ... , (X·Kq)·Rq ]
func (m *NormalizedMatrix) leftMulRaw(x *la.Dense) *la.Dense {
	if x.Cols() != m.nRows {
		panicShape("RMM", m.nRows, m.dCols, x)
	}
	parts := make([]*la.Dense, 0, len(m.ks)+1)
	if m.s != nil {
		xs := x
		if m.is != nil {
			xs = m.is.LeftMul(x)
		}
		parts = append(parts, m.s.LeftMul(xs))
	}
	for i, k := range m.ks {
		parts = append(parts, m.rs[i].LeftMul(k.LeftMul(x)))
	}
	return la.HCat(parts...)
}

// Mul computes T·X (LMM); on a transposed matrix it computes Tᵀ·X via the
// stacked transposed-LMM rewrite.
func (m *NormalizedMatrix) Mul(x *la.Dense) *la.Dense {
	if m.trans {
		return m.tMulRaw(x)
	}
	return m.mulRaw(x)
}

// LeftMul computes X·T (RMM); on a transposed matrix, X·Tᵀ → (T·Xᵀ)ᵀ
// (appendix A).
func (m *NormalizedMatrix) LeftMul(x *la.Dense) *la.Dense {
	if m.trans {
		return m.mulRaw(x.TDense()).TDense()
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
