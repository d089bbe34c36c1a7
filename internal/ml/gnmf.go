package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/la"
)

// GNMFResult holds the two non-negative factors T ≈ W·Hᵀ.
type GNMFResult struct {
	W *la.Dense // n×r
	H *la.Dense // d×r
}

// GNMF runs Gaussian non-negative matrix factorization with multiplicative
// updates (Algorithm 16; factorized as Algorithm 8):
//
//	H = H ∗ (Tᵀ·W) / (H·crossprod(W))
//	W = W ∗ (T·H)  / (W·crossprod(H))
//
// The data-intensive products Tᵀ·W (transposed LMM / RMM) and T·H (LMM)
// are the factorized operators; everything else is r-dimensional.
func GNMF(t la.Matrix, rank int, opt Options) (*GNMFResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if rank <= 0 {
		return nil, fmt.Errorf("ml: rank must be positive, got %d", rank)
	}
	n, d := t.Rows(), t.Cols()
	rng := rand.New(rand.NewSource(opt.Seed))
	w := positiveRandom(rng, n, rank)
	h := positiveRandom(rng, d, rank)
	tt := t.T()
	const eps = 1e-12
	for it := 0; it < opt.Iters; it++ {
		// H update.
		tw := tt.Mul(w)                     // d×r
		hww := la.MatMul(h, w.CrossProd())  // d×r
		h = multiplicative(h, tw, hww, eps) // H ∗ TᵀW / (H WᵀW)
		th := t.Mul(h)                      // n×r
		whh := la.MatMul(w, h.CrossProd())  // n×r
		w = multiplicative(w, th, whh, eps) // W ∗ TH / (W HᵀH)
	}
	return &GNMFResult{W: w, H: h}, nil
}

// ReconstructionError returns ‖T − W·Hᵀ‖²_F computed against the
// materialized matrix; intended for tests and small inputs.
func (r *GNMFResult) ReconstructionError(t la.Matrix) float64 {
	td := t.Dense()
	rec := la.MatMulT(r.W, r.H)
	diff := td.Sub(rec)
	return diff.PowDense(2).Sum()
}

func positiveRandom(rng *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64() + 0.1
	}
	return m
}

// multiplicative computes base ∗ num / den element-wise with a stabilizer.
func multiplicative(base, num, den *la.Dense, eps float64) *la.Dense {
	out := la.NewDense(base.Rows(), base.Cols())
	bd, nd, dd, od := base.Data(), num.Data(), den.Data(), out.Data()
	cols := base.Cols()
	la.ParallelRows(base.Rows(), 4*len(bd), func(lo, hi int) {
		for i := lo * cols; i < hi*cols; i++ {
			od[i] = bd[i] * nd[i] / (dd[i] + eps)
		}
	})
	return out
}
