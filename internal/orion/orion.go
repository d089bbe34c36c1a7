// Package orion reimplements the ML-algorithm-specific factorized learning
// baseline of Kumar et al. (SIGMOD'15) — the "Orion" tool the paper
// compares against in Table 8. Orion factorizes generalized linear models
// over a single PK-FK join by caching the attribute-table partial inner
// products in an associative array keyed by the foreign key, instead of
// expressing the computation as LA operators. The hash lookups are exactly
// the overhead the paper attributes Morpheus's edge to (§5.2.3).
//
// Orion supports only dense features and a single PK-FK join, mirroring
// the original tool's restrictions.
package orion

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// GLM is a factorized generalized linear model trainer over the base
// tables S (entity) and R (attribute) linked by foreign key fk.
type GLM struct {
	s  *la.Dense
	r  *la.Dense
	fk []int32
	// partials is the associative array of cached R-side inner products,
	// keyed by RID. A Go map is used deliberately: the original system
	// stores partials in a hash table, and the per-lookup cost is part of
	// the baseline's measured behaviour.
	partials map[int32]float64
}

// NewGLM validates the base tables and returns a trainer.
func NewGLM(s, r *la.Dense, fk []int32) (*GLM, error) {
	if s == nil || r == nil {
		return nil, fmt.Errorf("orion: dense S and R are required")
	}
	if len(fk) != s.Rows() {
		return nil, fmt.Errorf("orion: %d foreign keys for %d entity rows", len(fk), s.Rows())
	}
	for i, k := range fk {
		if k < 0 || int(k) >= r.Rows() {
			return nil, fmt.Errorf("orion: fk[%d]=%d out of range [0,%d)", i, k, r.Rows())
		}
	}
	return &GLM{s: s, r: r, fk: fk, partials: make(map[int32]float64, r.Rows())}, nil
}

// LogisticGD trains logistic regression with gradient descent using
// factorized learning: per iteration, (1) compute wRᵀxR once per R tuple
// into the associative array, (2) stream S computing full inner products
// via hash lookup, (3) accumulate the S-side gradient directly and the
// R-side gradient grouped by RID, again through the associative array.
func (g *GLM) LogisticGD(y *la.Dense, iters int, alpha float64) (*la.Dense, error) {
	if y.Rows() != g.s.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("orion: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), g.s.Rows())
	}
	if iters <= 0 {
		return nil, fmt.Errorf("orion: iters must be positive")
	}
	dS, dR := g.s.Cols(), g.r.Cols()
	w := la.NewDense(dS+dR, 1)
	wS := w.Data()[:dS]
	wR := w.Data()[dS:]
	gradS := make([]float64, dS)
	gradRByRID := make(map[int32]float64, g.r.Rows())
	for it := 0; it < iters; it++ {
		// Phase 1: partial inner products over R.
		for rid := 0; rid < g.r.Rows(); rid++ {
			g.partials[int32(rid)] = dot(g.r.Row(rid), wR)
		}
		// Phase 2+3: stream S, reusing partials via hash lookups.
		for j := range gradS {
			gradS[j] = 0
		}
		clearMap(gradRByRID)
		for i := 0; i < g.s.Rows(); i++ {
			srow := g.s.Row(i)
			inner := dot(srow, wS) + g.partials[g.fk[i]]
			c := y.At(i, 0) / (1 + math.Exp(inner))
			for j, v := range srow {
				gradS[j] += c * v
			}
			gradRByRID[g.fk[i]] += c
		}
		// Apply updates; the R-side gradient expands grouped coefficients.
		for j := range wS {
			wS[j] += alpha * gradS[j]
		}
		for rid, c := range gradRByRID {
			rrow := g.r.Row(int(rid))
			for j, v := range rrow {
				wR[j] += alpha * c * v
			}
		}
	}
	return w, nil
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func clearMap(m map[int32]float64) {
	for k := range m {
		delete(m, k)
	}
}
