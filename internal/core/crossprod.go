package core

import "repro/internal/la"

// CrossProd computes Tᵀ·T with the paper's efficient method (Algorithm 2,
// generalized to star schemas in §3.5 and to M:N joins in Algorithm 10):
// Gram's phases with the whole of T as one block. On a transposed matrix
// it computes the Gram matrix T·Tᵀ via the appendix A rewrite. The result
// is a regular dense matrix.
func (m *NormalizedMatrix) CrossProd() *la.Dense { return m.crossProd(false) }

// CrossProdNaive computes Tᵀ·T with the naive method (Algorithm 1 / 9):
// no symmetry exploitation in the diagonal blocks and the KᵀK product
// computed explicitly as a sparse matrix. Kept for the ablation benchmark.
func (m *NormalizedMatrix) CrossProdNaive() *la.Dense { return m.crossProd(true) }

func (m *NormalizedMatrix) crossProd(naive bool) *la.Dense {
	if m.trans {
		return m.gramRaw()
	}
	b, rs := m.star()
	g := NewGram(b.S.Cols(), rs, naive)
	g.Block(b)()
	return g.Finish()
}

// gramRaw computes crossprod(Tᵀ) = T·Tᵀ via the appendix A/D rewrite:
//
//	crossprod(Tᵀ) → IS·crossprod(Sᵀ)·ISᵀ + Σ Ki·crossprod(Riᵀ)·Kiᵀ
//
// Each term is a two-sided gather of a small nRi×nRi Gram matrix.
func (m *NormalizedMatrix) gramRaw() *la.Dense {
	s, ks, rs := m.arms()
	out := la.NewDense(m.nRows, m.nRows)
	if s.Cols() > 0 {
		out.AddInPlace(s.Gram())
	}
	for t, r := range rs {
		gatherAdd(out, ks[t], ks[t], r.Gram())
	}
	return out
}

// gatherAdd adds KA·M·KBᵀ into out by indexing M with both assignment
// vectors: out[i,j] += M[KA[i], KB[j]].
func gatherAdd(out *la.Dense, ka, kb *la.Indicator, m *la.Dense) {
	ab := kb.Assignments()
	for i, ca := range ka.Assignments() {
		src, dst := m.Row(int(ca)), out.Row(i)
		for j, cb := range ab {
			dst[j] += src[cb]
		}
	}
}

// Gram computes T·Tᵀ = crossprod(Tᵀ).
func (m *NormalizedMatrix) Gram() *la.Dense { return m.Transpose().CrossProd() }

// Ginv computes the Moore-Penrose pseudo-inverse with the §3.3.6 rewrite:
//
//	ginv(T) → ginv(crossprod(T))·Tᵀ   if d ≤ n
//	ginv(T) → Tᵀ·ginv(crossprod(Tᵀ))  otherwise
//
// Both branches are la.GinvOf over already-factorized operators (CrossProd,
// Gram, Mul, TMul), so the rewrite needs no machinery of its own.
func (m *NormalizedMatrix) Ginv() *la.Dense { return la.GinvOf(m) }
