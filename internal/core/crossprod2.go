package core

import (
	"math"

	"repro/internal/la"
)

// InvertibilityBound checks the appendix B theorem: if the materialized
// matrix T of a two-table PK-FK join is invertible (square and
// non-singular), then TR ≤ 1/FR + 1. Equivalently, a normalized matrix
// whose dimensions violate the bound is guaranteed singular, so callers
// can skip `solve` and go straight to the pseudo-inverse. It reports
// whether the bound ALLOWS invertibility (false ⇒ certainly singular).
func (m *NormalizedMatrix) InvertibilityBound() bool {
	if m.Rows() != m.Cols() {
		return false // not square ⇒ not invertible at all
	}
	st := m.ComputeStats()
	if st.FeatureRatio == 0 {
		return true
	}
	return st.TupleRatio <= 1/st.FeatureRatio+1+1e-12
}

// SpectralNormEst estimates ‖T‖₂ with a few factorized power iterations —
// useful for choosing gradient-descent step sizes (α < ‖T‖₂⁻² keeps the
// least-squares iteration stable) without materializing T.
func (m *NormalizedMatrix) SpectralNormEst(iters int) float64 {
	if iters <= 0 {
		iters = 8
	}
	v := la.Ones(m.Cols(), 1)
	tm := m.Transpose()
	norm := 0.0
	for i := 0; i < iters; i++ {
		w := tm.Mul(m.Mul(v)) // TᵀT·v, both factorized
		norm = math.Sqrt(frob(w))
		if norm == 0 {
			return 0
		}
		v = w.ScaleDense(1 / norm)
	}
	return math.Sqrt(norm)
}

func frob(x *la.Dense) float64 {
	s := 0.0
	for _, v := range x.Data() {
		s += v * v
	}
	return s
}
