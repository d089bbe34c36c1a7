package core

import (
	"fmt"

	"repro/internal/la"
)

// The double-matrix-multiplication (DMM) rewrites of appendix C multiply two
// normalized matrices without materializing either. They are defined for
// two-table PK-FK normalized matrices (S, K, R) — the shape the appendix
// analyzes; multi-table inputs report an error so callers can fall back to
// materialized execution.

// ErrDMMShape is returned when a DMM rewrite does not apply to the inputs.
var ErrDMMShape = fmt.Errorf("core: DMM rewrites require untransposed two-table PK-FK normalized matrices")

func (m *NormalizedMatrix) dmmParts() (s la.Mat, k *la.Indicator, r la.Mat, ok bool) {
	if m.trans || m.is != nil || len(m.ks) != 1 || m.s == nil {
		return nil, nil, nil, false
	}
	return m.s, m.ks[0], m.rs[0], true
}

// MulNorm computes A·B for two normalized matrices (appendix C):
//
//	AB → [ SA·SB1 + KA·(RA·SB2) , (SA·KB1)·RB + KA·((RA·KB2)·RB) ]
//
// where SB1/SB2 (and KB1/KB2) split B's entity matrix and indicator at
// row dSA. The output is a regular matrix.
func (a *NormalizedMatrix) MulNorm(b *NormalizedMatrix) (*la.Dense, error) {
	sa, ka, ra, ok := a.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	sb, kb, rb, ok := b.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	if a.dCols != b.nRows {
		return nil, fmt.Errorf("core: DMM %dx%d · %dx%d", a.nRows, a.dCols, b.nRows, b.dCols)
	}
	dSA := sa.Cols()
	kb1 := kb.SliceRows(0, dSA)
	kb2 := kb.SliceRows(dSA, kb.Rows())

	// Left block: SA·SB1 + KA·(RA·SB2), the LMM of A with SB.
	left := a.mulRaw(nil, sb.Dense())

	// Right block: (SA·KB1)·RB + KA·((RA·KB2)·RB).
	saDense := sa.Dense()
	raDense := ra.Dense()
	r1 := rb.LeftMul(kb1.LeftMul(saDense))
	r2 := ka.Mul(rb.LeftMul(kb2.LeftMul(raDense)))
	r1.AddInPlace(r2)
	return la.HCat(left, r1), nil
}

// MulNormTT computes Aᵀ·Bᵀ → (B·A)ᵀ (appendix C, transposed DMM).
func (a *NormalizedMatrix) MulNormTT(b *NormalizedMatrix) (*la.Dense, error) {
	ba, err := b.MulNorm(a)
	if err != nil {
		return nil, err
	}
	return ba.TDense(), nil
}

// MulNormNT computes A·Bᵀ (appendix C). Three cases on dSA vs dSB:
//
//	dSA == dSB: SA·SBᵀ + KA·(RA·RBᵀ)·KBᵀ
//	dSA <  dSB: SA·SB1ᵀ + KA·(RA1·SB2ᵀ) + KA·(RA2·RBᵀ)·KBᵀ
//	dSA >  dSB: (B·Aᵀ)ᵀ (recast as the previous case)
func (a *NormalizedMatrix) MulNormNT(b *NormalizedMatrix) (*la.Dense, error) {
	sa, ka, ra, ok := a.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	sb, kb, rb, ok := b.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	if a.dCols != b.dCols {
		return nil, fmt.Errorf("core: DMM NT %dx%d · (%dx%d)ᵀ", a.nRows, a.dCols, b.nRows, b.dCols)
	}
	dSA, dSB := sa.Cols(), sb.Cols()
	switch {
	case dSA == dSB:
		out := matMulT(sa, sb)
		gatherAdd(out, ka, kb, matMulT(ra, rb))
		return out, nil
	case dSA < dSB:
		sbDense, raDense := sb.Dense(), ra.Dense()
		sb1 := sbDense.SliceColsDense(0, dSA)
		sb2 := sbDense.SliceColsDense(dSA, dSB)
		ra1 := raDense.SliceColsDense(0, dSB-dSA)
		ra2 := raDense.SliceColsDense(dSB-dSA, ra.Cols())
		out := matMulT(sa, sb1)
		out.AddInPlace(ka.Mul(matMulT(ra1, sb2)))
		gatherAdd(out, ka, kb, matMulT(ra2, rb))
		return out, nil
	default:
		ba, err := b.MulNormNT(a)
		if err != nil {
			return nil, err
		}
		return ba.TDense(), nil
	}
}

// MulNormTN computes Aᵀ·B (appendix C):
//
//	AᵀB → [ SAᵀSB        (SAᵀKB)·RB
//	        RAᵀ(KAᵀSB)   RAᵀ·(KAᵀKB)·RB ]
//
// The fourth tile computes the sparse count matrix P = KAᵀKB first; the
// appendix proves max(nRA,nRB) ≤ nnz(P) ≤ nSA, so P is never denser than
// the join itself.
func (a *NormalizedMatrix) MulNormTN(b *NormalizedMatrix) (*la.Dense, error) {
	sa, ka, ra, ok := a.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	sb, kb, rb, ok := b.dmmParts()
	if !ok {
		return nil, ErrDMMShape
	}
	if a.nRows != b.nRows {
		return nil, fmt.Errorf("core: DMM TN (%dx%d)ᵀ · %dx%d", a.nRows, a.dCols, b.nRows, b.dCols)
	}
	tile11 := matTMulMat(sa, sb)
	tile12 := matTMulMat(kb.TMul(sa.Dense()), rb)
	tile21 := ra.TMul(ka.TMul(sb.Dense()))
	p := ka.TMulIndicator(kb)
	tile22 := ra.TMul(p.MulMat(rb))
	top := la.HCat(tile11, tile12)
	bottom := la.HCat(tile21, tile22)
	return la.VCat(top, bottom), nil
}

// matMulT computes A·Bᵀ for base-table matrices via dense fallback on the
// smaller operand pair.
func matMulT(a, b la.Mat) *la.Dense {
	return la.MatMulT(a.Dense(), b.Dense())
}
