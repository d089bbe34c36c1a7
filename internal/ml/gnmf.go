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

// GNMFFit is GNMFScan's result: the tall factor W is n-tall state beside
// the operand's rows, the short factor H is in memory.
type GNMFFit struct {
	W la.Tall   // n×r
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
	fit, err := GNMFScan(la.InMemory(t), rank, opt)
	if err != nil {
		return nil, err
	}
	_, w, _ := fit.W.Chunk(0)
	return &GNMFResult{W: w, H: fit.H}, nil
}

// GNMFScan is GNMF over any operand. Each iteration is two scans of T
// beside the aligned blocks of W: the H scan reduces Tᵀ·W and WᵀW in block
// order, the W scan writes the next W generation into the blocks' Out and
// the previous one is freed. The caller owns the returned W.
func GNMFScan(t la.Operand, rank int, opt Options) (fit *GNMFFit, err error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if rank <= 0 {
		return nil, fmt.Errorf("ml: rank must be positive, got %d", rank)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	positive := func(m *la.Dense) {
		for i := range m.Data() {
			m.Data()[i] = rng.Float64() + 0.1
		}
	}
	w, err := t.NewTall(rank, positive)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.Free()
		}
	}()
	h := la.NewDense(t.Cols(), rank)
	positive(h)
	const eps = 1e-12
	for it := 0; it < opt.Iters; it++ {
		// H update: H ∗ TᵀW / (H WᵀW); TᵀW is a transposed LMM.
		wtw := la.NewDense(rank, rank)
		_, tw, err := t.Scan(la.Step{PCols: rank, Do: func(b la.Block, _ *la.Dense, _ []float64) (la.Result, error) {
			_, wb, err := w.Chunk(b.Index())
			if err != nil {
				return la.Result{}, err
			}
			return la.Result{P: wb, Part: wb.CrossProd()}, nil
		}}, func(part any) error { wtw.AddInPlace(part.(*la.Dense)); return nil })
		if err != nil {
			return nil, err
		}
		h = multiplicative(la.NewDense(h.Rows(), rank), h, tw, la.MatMul(h, wtw), eps)

		// W update: W ∗ TH / (W HᵀH), written as the next generation.
		hth := h.CrossProd()
		next, _, err := t.Scan(la.Step{X: h, OutCols: rank, Do: func(b la.Block, th *la.Dense, _ []float64) (la.Result, error) { // LMM
			_, wb, err := w.Chunk(b.Index())
			if err != nil {
				return la.Result{}, err
			}
			out := b.Out()
			wb.MulInto(out, hth) // W_b·HᵀH, then the update in place
			return la.Result{Out: multiplicative(out, wb, th, out, eps)}, nil
		}}, nil)
		if err != nil {
			return nil, err
		}
		err = w.Free()
		w = next
		if err != nil {
			return nil, err
		}
	}
	return &GNMFFit{W: w, H: h}, nil
}

// multiplicative writes base ∗ num / (den + eps) element-wise into out, which may be den.
func multiplicative(out, base, num, den *la.Dense, eps float64) *la.Dense {
	bd, nd, dd, od := base.Data(), num.Data(), den.Data(), out.Data()
	cols := base.Cols()
	la.ParallelRows(base.Rows(), 4*len(bd), func(lo, hi int) {
		for i := lo * cols; i < hi*cols; i++ {
			od[i] = bd[i] * nd[i] / (dd[i] + eps)
		}
	})
	return out
}
