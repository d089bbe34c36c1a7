package core

import (
	"fmt"

	"repro/internal/la"
)

// Element-wise matrix-matrix operators are "non-factorizable" (§3.3.7):
// when the other operand X is a regular matrix with no schema-induced
// structure, the computation T ∘ X has no redundancy to avoid, so Morpheus
// materializes T and computes directly. They are provided for API
// completeness — the paper notes no popular ML algorithm bottlenecks on
// them — and return regular matrices.
//
// The one special case that does factorize is X being a normalized matrix
// with the *same* indicator structure (e.g. T + T, or f(T) ∘ g(T) for
// element-wise f, g): then the operation distributes over the shared parts
// and the result stays normalized. AddNorm exploits that.

// AddElem computes T + X for a regular X.
func (m *NormalizedMatrix) AddElem(x *la.Dense) *la.Dense { return m.Dense().Add(x) }

// SubElem computes T − X for a regular X.
func (m *NormalizedMatrix) SubElem(x *la.Dense) *la.Dense { return m.Dense().Sub(x) }

// MulElem computes T ∗ X (Hadamard) for a regular X.
func (m *NormalizedMatrix) MulElem(x *la.Dense) *la.Dense { return m.Dense().MulElem(x) }

// DivElem computes T / X element-wise for a regular X.
func (m *NormalizedMatrix) DivElem(x *la.Dense) *la.Dense { return m.Dense().DivElem(x) }

// SameStructure reports whether b shares the receiver's indicator
// structure (same selectors, same part shapes, same orientation), which is
// the condition under which element-wise matrix ops stay factorizable.
func (m *NormalizedMatrix) SameStructure(b *NormalizedMatrix) bool {
	if m.trans != b.trans || m.nRows != b.nRows || m.dCols != b.dCols || (m.s == nil) != (b.s == nil) || (m.is == nil) != (b.is == nil) {
		return false
	}
	ms, mks, mrs := m.arms()
	bs, bks, brs := b.arms()
	if ms.Cols() != bs.Cols() || len(mks) != len(bks) {
		return false
	}
	for t := range mks {
		if mrs[t].Rows() != brs[t].Rows() || mrs[t].Cols() != brs[t].Cols() || !sameAssign(mks[t], bks[t]) {
			return false
		}
	}
	return true
}

func sameAssign(a, b *la.Indicator) bool {
	if a.Cols() != b.Cols() || a.Rows() != b.Rows() {
		return false
	}
	aa, ba := a.Assignments(), b.Assignments()
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	return true
}

// AddNorm computes T + B for two normalized matrices with identical
// indicator structure, staying factorized: the parts add independently.
// It returns an error when the structures differ (use AddElem instead).
func (m *NormalizedMatrix) AddNorm(b *NormalizedMatrix) (*NormalizedMatrix, error) {
	if !m.SameStructure(b) {
		return nil, fmt.Errorf("core: AddNorm requires identical normalized structure")
	}
	var s la.Mat
	if m.s != nil {
		s = addMat(m.s, b.s)
	}
	rs := make([]la.Mat, len(m.rs))
	for i := range m.rs {
		rs[i] = addMat(m.rs[i], b.rs[i])
	}
	return m.withParts(s, rs), nil
}

func addMat(a, b la.Mat) la.Mat {
	ad, aok := a.(*la.Dense)
	bd, bok := b.(*la.Dense)
	if aok && bok {
		return ad.Add(bd)
	}
	return a.Dense().Add(b.Dense())
}
