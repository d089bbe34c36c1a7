// Package ml implements the four ML algorithms the paper factorizes (§4):
// logistic regression, least-squares linear regression (normal equations,
// gradient descent, and the Schleich et al. co-factor variant), K-Means
// clustering, and Gaussian non-negative matrix factorization.
//
// Every algorithm is written once against la.Matrix. Passing a regular
// dense/sparse matrix runs the paper's "materialized" version; passing a
// core.NormalizedMatrix runs the automatically factorized version — no
// per-algorithm rewriting, which is the point of Morpheus.
package ml

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Options controls the iterative algorithms.
type Options struct {
	// Iters is the number of iterations (paper experiments use 20).
	Iters int
	// StepSize is the gradient-descent learning rate α.
	StepSize float64
	// Seed drives deterministic initialization of centroids/factors.
	Seed int64
}

func (o Options) validate() error {
	if o.Iters <= 0 {
		return fmt.Errorf("ml: Iters must be positive, got %d", o.Iters)
	}
	return nil
}

// LogisticRegressionGD fits a binary classifier with gradient descent
// (Algorithm 3; factorized automatically as Algorithm 4):
//
//	w = w + α·Tᵀ(Y / (1 + exp(T·w)))
//
// y must be an n×1 ±1 label vector. Returns the d×1 weight vector.
func LogisticRegressionGD(t la.Matrix, y *la.Dense, w0 *la.Dense, opt Options) (*la.Dense, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n, d := t.Rows(), t.Cols()
	if y.Rows() != n || y.Cols() != 1 {
		return nil, fmt.Errorf("ml: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), n)
	}
	w := initWeights(w0, d)
	tt := t.T() // transpose once; normalized matrices just flip a flag
	for it := 0; it < opt.Iters; it++ {
		tw := t.Mul(w) // LMM
		p := la.NewDense(n, 1)
		pd, yd, twd := p.Data(), y.Data(), tw.Data()
		la.ParallelRows(n, 16*n, func(lo, hi int) { // an exp is worth ~16 flops
			for i := lo; i < hi; i++ {
				pd[i] = yd[i] / (1 + math.Exp(twd[i]))
			}
		})
		grad := tt.Mul(p) // transposed LMM
		w.AXPYInPlace(opt.StepSize, grad)
	}
	return w, nil
}

// LogisticLoss reports the logistic loss Σ log(1+exp(-y·Tw)), useful for
// verifying that materialized and factorized runs converge identically.
func LogisticLoss(t la.Matrix, y, w *la.Dense) float64 {
	tw := t.Mul(w)
	loss := 0.0
	for i := 0; i < tw.Rows(); i++ {
		loss += math.Log1p(math.Exp(-y.At(i, 0) * tw.At(i, 0)))
	}
	return loss
}

// LinearRegressionNE solves least squares via the normal equations
// (Algorithm 5; factorized as Algorithm 6):
//
//	w = ginv(crossprod(T)) · (Tᵀ·Y)
//
// As the paper notes for `solve` (§3.3.6), a Cholesky solve is attempted
// first; the pseudo-inverse is the fallback when crossprod(T) is singular.
func LinearRegressionNE(t la.Matrix, y *la.Dense) (*la.Dense, error) {
	if y.Rows() != t.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("ml: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), t.Rows())
	}
	cp := t.CrossProd()
	tty := t.T().Mul(y)
	if w, err := la.SolveSPD(cp, tty); err == nil {
		return w, nil
	}
	return la.MatMul(la.SymGinv(cp), tty), nil
}

// LinearRegressionGD solves least squares by gradient descent
// (Algorithm 11; factorized as Algorithm 12):
//
//	w = w − α·Tᵀ(T·w − Y)
func LinearRegressionGD(t la.Matrix, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if y.Rows() != t.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("ml: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), t.Rows())
	}
	w := initWeights(w0, t.Cols())
	tt := t.T()
	for it := 0; it < opt.Iters; it++ {
		resid := t.Mul(w).Sub(y)
		grad := tt.Mul(resid)
		w.AXPYInPlace(-opt.StepSize, grad)
	}
	return w, nil
}

// LinearRegressionCofactor implements the hybrid algorithm of Schleich et
// al. [35] (Algorithms 13/14): build the co-factor matrix C = [YᵀT ;
// crossprod(T)] once, then iterate AdaGrad steps w ← w − α·Cᵀ[−1; w]
// against it. The expensive data-dependent work (RMM + cross-product) is
// factorized; the iterations touch only (d+1)×d state.
func LinearRegressionCofactor(t la.Matrix, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if y.Rows() != t.Rows() || y.Cols() != 1 {
		return nil, fmt.Errorf("ml: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), t.Rows())
	}
	d := t.Cols()
	ytT := t.LeftMul(y.TDense()) // RMM: 1×d
	cp := t.CrossProd()
	c := la.VCat(ytT, cp) // (d+1)×d co-factor
	w := initWeights(w0, d)
	accum := make([]float64, d) // AdaGrad accumulator
	const eps = 1e-8
	for it := 0; it < opt.Iters; it++ {
		// grad = Cᵀ·[−1; w] = crossprod(T)·w − (YᵀT)ᵀ.
		v := la.NewDense(d+1, 1)
		v.Set(0, 0, -1)
		for j := 0; j < d; j++ {
			v.Set(j+1, 0, w.At(j, 0))
		}
		grad := la.TMatMul(c, v)
		for j := 0; j < d; j++ {
			g := grad.At(j, 0)
			accum[j] += g * g
			w.Set(j, 0, w.At(j, 0)-opt.StepSize*g/(math.Sqrt(accum[j])+eps))
		}
	}
	return w, nil
}

func initWeights(w0 *la.Dense, d int) *la.Dense {
	if w0 == nil {
		return la.NewDense(d, 1)
	}
	if w0.Rows() != d || w0.Cols() != 1 {
		panic(fmt.Sprintf("ml: w0 is %dx%d, want %dx1", w0.Rows(), w0.Cols(), d))
	}
	return w0.Clone()
}
