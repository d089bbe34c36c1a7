package core

import (
	"math"

	"repro/internal/la"
)

// CrossProd computes Tᵀ·T with the paper's efficient method (Algorithm 2,
// generalized to star schemas in §3.5 and to M:N joins in Algorithm 10).
// On a transposed matrix it computes the Gram matrix T·Tᵀ via the appendix
// A rewrite. The result is a regular dense matrix.
func (m *NormalizedMatrix) CrossProd() *la.Dense {
	if m.trans {
		return m.gramRaw()
	}
	return m.crossProdBlocks(true)
}

// CrossProdNaive computes Tᵀ·T with the naive method (Algorithm 1 / 9):
// no symmetry exploitation in the diagonal blocks and the KᵀK product
// computed explicitly as a sparse matrix. Kept for the ablation benchmark.
func (m *NormalizedMatrix) CrossProdNaive() *la.Dense {
	if m.trans {
		return m.gramRaw()
	}
	return m.crossProdBlocks(false)
}

// part is one column block of T: sel·feat with sel possibly identity.
type part struct {
	sel  *la.Indicator // nil means identity
	feat la.Mat
	off  int // starting column in T
}

func (m *NormalizedMatrix) parts() []part {
	offs := m.colOffsets()
	ps := make([]part, 0, len(m.ks)+1)
	if m.s != nil {
		ps = append(ps, part{sel: m.is, feat: m.s, off: 0})
	}
	for i, k := range m.ks {
		ps = append(ps, part{sel: k, feat: m.rs[i], off: offs[i]})
	}
	return ps
}

// crossProdBlocks assembles the symmetric d×d output block by block.
// Diagonal blocks:
//
//	efficient: crossprod(diag(colSums(sel))^½ · feat)   (Algorithm 2)
//	naive:     featᵀ·((selᵀ·sel)·feat)                  (Algorithm 1)
//
// Off-diagonal block (i,j): featiᵀ·(seliᵀ·selj)·featj with the sparse
// count matrix seliᵀ·selj in the middle (§3.5).
func (m *NormalizedMatrix) crossProdBlocks(efficient bool) *la.Dense {
	ps := m.parts()
	out := la.NewDense(m.dCols, m.dCols)
	for i, pi := range ps {
		var diag *la.Dense
		switch {
		case pi.sel == nil && efficient:
			diag = pi.feat.CrossProd()
		case pi.sel == nil:
			diag = matTMulMat(pi.feat, pi.feat)
		case efficient:
			counts := pi.sel.ColCounts()
			sq := make([]float64, len(counts))
			for c, v := range counts {
				sq[c] = math.Sqrt(v)
			}
			diag = pi.feat.ScaleRows(sq).CrossProd()
		default:
			// Naive: featᵀ·((selᵀ·sel)·feat).
			kk := pi.sel.TMulIndicator(pi.sel)
			diag = pi.feat.TMul(kk.MulMat(pi.feat))
		}
		out.SetBlock(pi.off, pi.off, diag)
		for j := i + 1; j < len(ps); j++ {
			blk := crossBlock(ps[i], ps[j])
			out.SetBlock(pi.off, ps[j].off, blk)
			out.SetBlock(ps[j].off, pi.off, blk.TDense())
		}
	}
	return out
}

// crossBlock computes (seli·feati)ᵀ·(selj·featj) without materializing
// either gathered part: featiᵀ·(seliᵀ·selj)·featj. When seli is the
// identity this degenerates to featiᵀ·(selj-gathered rows), i.e. the
// paper's (SᵀKj)·Rj order.
func crossBlock(a, b part) *la.Dense {
	switch {
	case a.sel == nil && b.sel == nil:
		return matTMulMat(a.feat, b.feat)
	case a.sel == nil:
		// featAᵀ·(selB·featB) in the cheap order (§3.3.5): first the
		// scatter-add selBᵀ·featA (nRb×dA), then its transpose times
		// featB — never gathering featB up to n rows.
		kta := indicatorTMulMat(b.sel, a.feat)
		return matTMulMat(kta, b.feat)
	case b.sel == nil:
		kta := indicatorTMulMat(a.sel, b.feat)
		return a.feat.TMul(kta)
	default:
		p := a.sel.TMulIndicator(b.sel) // sparse count matrix nRa×nRb
		return a.feat.TMul(p.MulMat(b.feat))
	}
}

// indicatorTMulMat computes Kᵀ·M for a base-table matrix M (dense or
// sparse) with a scatter-add, preserving M's sparsity pattern handling.
func indicatorTMulMat(k *la.Indicator, m la.Mat) *la.Dense {
	switch t := m.(type) {
	case *la.Dense:
		return k.TMul(t)
	case *la.CSR:
		out := la.NewDense(k.Cols(), m.Cols())
		for i, c := range k.Assignments() {
			idx, vals := t.RowNNZ(i)
			row := out.Row(int(c))
			for p, j := range idx {
				row[j] += vals[p]
			}
		}
		return out
	default:
		return k.TMul(m.Dense())
	}
}

// matTMulMat computes Aᵀ·B for two base-table matrices, without
// densifying a CSR B when A is already dense.
func matTMulMat(a, b la.Mat) *la.Dense {
	switch t := b.(type) {
	case *la.Dense:
		return a.TMul(t)
	case *la.CSR:
		if ad, ok := a.(*la.Dense); ok {
			// Aᵀ·B = (Bᵀ·A)ᵀ using the CSR transposed kernel.
			return t.TMul(ad).TDense()
		}
	}
	return a.TMul(b.Dense())
}

// gramRaw computes crossprod(Tᵀ) = T·Tᵀ via the appendix A/D rewrite:
//
//	crossprod(Tᵀ) → IS·crossprod(Sᵀ)·ISᵀ + Σ Ki·crossprod(Riᵀ)·Kiᵀ
//
// Each term is a two-sided gather of a small nRi×nRi Gram matrix.
func (m *NormalizedMatrix) gramRaw() *la.Dense {
	out := la.NewDense(m.nRows, m.nRows)
	for _, p := range m.parts() {
		g := p.feat.Gram()
		if p.sel == nil {
			out.AddInPlace(g)
			continue
		}
		assign := p.sel.Assignments()
		for a := 0; a < m.nRows; a++ {
			ga := g.Row(int(assign[a]))
			row := out.Row(a)
			for b, cb := range assign {
				row[b] += ga[cb]
			}
		}
	}
	return out
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
