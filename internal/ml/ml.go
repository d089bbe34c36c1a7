// Package ml implements the four ML algorithms the paper factorizes (§4):
// logistic regression, least-squares linear regression (normal equations,
// gradient descent, and the Schleich et al. co-factor variant), K-Means
// clustering, and Gaussian non-negative matrix factorization.
//
// Every algorithm is written once, against la.Operand. The iterative ones
// (LogRegScan, KMeansScan, GNMFScan) use the row-block scan contract: a
// pass prepares its products' small side once, runs a short step per
// block, merges the results strictly in block order and finishes once, so
// an algorithm owns only its update rule. The one-shot solvers
// (LinRegNEScan, RidgeScan, CofactorScan, PCAScan) take TᵀT from
// Operand.Gram and Tᵀ·y from one more scan (la.ScanTMul), then work on
// d×d state. The la.Matrix forms run the same code over la.InMemory: a
// dense or sparse matrix gives the paper's "materialized" version, a
// core.NormalizedMatrix the factorized one, internal/chunk's operands the
// out-of-core ones — no per-representation rewriting.
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
	return LogRegScan(la.InMemory(t), y, w0, opt)
}

// LogRegScan is LogisticRegressionGD over any operand, one scan a step.
func LogRegScan(t la.Operand, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	yd := y.Data()
	return descend(t, y, w0, opt, opt.StepSize, func(lo int, tw, p []float64) {
		la.ParallelRows(len(p), 16*len(p), func(a, b int) { // an exp is worth ~16 flops
			for i := a; i < b; i++ {
				p[i] = yd[lo+i] / (1 + math.Exp(tw[i]))
			}
		})
	})
}

// descend runs gradient descent w ← w + step·Tᵀ·link(T·w). Each iteration
// is one scan: the LMM T_b·w, the link on the block's rows (first row lo)
// into all of the block's P, and the transposed-LMM partial, in block order.
func descend(t la.Operand, y, w0 *la.Dense, opt Options, step float64, link func(lo int, tw, p []float64)) (*la.Dense, error) {
	w, err := start(t, y, w0, opt)
	if err != nil {
		return nil, err
	}
	for it := 0; it < opt.Iters; it++ {
		// LMM in, transposed LMM of the link's output out.
		_, grad, err := t.Scan(la.Step{X: w, PCols: 1, Do: func(b la.Block, tw *la.Dense, _ []float64) (la.Result, error) {
			p := b.P()
			link(b.Lo(), tw.Data(), p.Data())
			return la.Result{P: p}, nil
		}}, nil)
		if err != nil {
			return nil, err
		}
		w.AXPYInPlace(step, grad)
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
	return LinRegNEScan(la.InMemory(t), y)
}

// LinRegNEScan is LinearRegressionNE over any operand — ridge regression
// at λ = 0: the Gram pass, then one scan for Tᵀ·Y.
func LinRegNEScan(t la.Operand, y *la.Dense) (*la.Dense, error) { return RidgeScan(t, y, 0) }

// LinearRegressionGD solves least squares by gradient descent
// (Algorithm 11; factorized as Algorithm 12):
//
//	w = w − α·Tᵀ(T·w − Y)
func LinearRegressionGD(t la.Matrix, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	yd := y.Data()
	return descend(la.InMemory(t), y, w0, opt, -opt.StepSize, func(lo int, tw, p []float64) {
		for i := range p {
			p[i] = tw[i] - yd[lo+i]
		}
	})
}

// LinearRegressionCofactor implements the hybrid algorithm of Schleich et
// al. [35] (Algorithms 13/14): build the co-factor matrix C = [YᵀT ;
// crossprod(T)] once, then iterate AdaGrad steps w ← w − α·Cᵀ[−1; w]
// against it. The expensive data-dependent work (RMM + cross-product) is
// factorized; the iterations touch only (d+1)×d state.
func LinearRegressionCofactor(t la.Matrix, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	return CofactorScan(la.InMemory(t), y, w0, opt)
}

// CofactorScan is LinearRegressionCofactor over any operand: YᵀT is the
// transpose of the scan product Tᵀ·Y.
func CofactorScan(t la.Operand, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	w, err := start(t, y, w0, opt)
	if err != nil {
		return nil, err
	}
	cp, tty, err := normalEquations(t, y)
	if err != nil {
		return nil, err
	}
	d := t.Cols()
	c := la.VCat(tty.TDense(), cp) // (d+1)×d co-factor
	accum := make([]float64, d)    // AdaGrad accumulator
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

// normalEquations reads T twice: the Gram pass for TᵀT, one scan for Tᵀ·Y.
func normalEquations(t la.Operand, y *la.Dense) (cp, tty *la.Dense, err error) {
	if cp, err = t.Gram(); err != nil {
		return nil, nil, err
	}
	tty, err = la.ScanTMul(t, y)
	return cp, tty, err
}

// start validates a supervised fit's inputs and returns its first iterate.
func start(t la.Operand, y, w0 *la.Dense, opt Options) (*la.Dense, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := checkLabels(t, y); err != nil {
		return nil, err
	}
	return initWeights(w0, t.Cols())
}

func checkLabels(t la.Operand, y *la.Dense) error {
	if y.Rows() != t.Rows() || y.Cols() != 1 {
		return fmt.Errorf("ml: labels are %dx%d, want %dx1", y.Rows(), y.Cols(), t.Rows())
	}
	return nil
}

func initWeights(w0 *la.Dense, d int) (*la.Dense, error) {
	if w0 == nil {
		return la.NewDense(d, 1), nil
	}
	if w0.Rows() != d || w0.Cols() != 1 {
		return nil, fmt.Errorf("ml: w0 is %dx%d, want %dx1", w0.Rows(), w0.Cols(), d)
	}
	return w0.Clone(), nil
}
