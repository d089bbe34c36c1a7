package chunk

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/la"
)

// GNMFResult holds the streamed factorization T ≈ W·Hᵀ: the tall factor W
// stays chunked on disk, the wide-but-short factor H lives in memory.
type GNMFResult struct {
	// W is the n×rank chunked factor, aligned with the input's chunking.
	W *Matrix
	// H is the d×rank factor.
	H *la.Dense
	// BytesRead tallies the chunk bytes streamed across all passes.
	BytesRead int64
}

// gnmfPart is one chunk's contribution to the H-update pass: the partials
// T_cᵀ·W_c and W_cᵀ·W_c.
type gnmfPart struct {
	tw, wtw *la.Dense
	bytes   int64
}

// GNMFExec runs streamed GNMF under the given execution, with the same
// multiplicative updates as ml.GNMF:
//
//	H = H ∗ (Tᵀ·W) / (H·crossprod(W))
//	W = W ∗ (T·H)  / (W·crossprod(H))
//
// The n-tall factor W is itself chunked, aligned with T, so the pass never
// holds more than the in-flight chunks of either operand. Each iteration
// is two passes: the H pass streams T and the aligned W chunks, reducing
// Tᵀ·W (d×rank) and WᵀW (rank×rank) in chunk order; the W pass streams T
// again, computing each new W chunk W_c ∗ (T_c·H) / (W_c·HᵀH) and spilling
// it through the (per-shard) write-behind stage. Reductions commit in
// chunk order, so results are bit-identical for every Exec, and the
// initialization draws the identical rng sequence as ml.GNMF, so the two
// agree to floating-point reassociation error. Intermediate W generations
// are freed as soon as the next one is spilled. The planner-driven entry
// point is plan.GNMF.
func GNMFExec(ex Exec, t Mat, rank, iters int, seed int64) (*GNMFResult, error) {
	n, d := t.Rows(), t.Cols()
	if rank <= 0 {
		return nil, fmt.Errorf("chunk: rank must be positive, got %d", rank)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("chunk: iters must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	w, err := Build(t.Store(), n, rank, t.ChunkRows(), func(lo, hi int, dst *la.Dense) {
		for i := range dst.Data() {
			dst.Data()[i] = rng.Float64() + 0.1
		}
	})
	if err != nil {
		return nil, err
	}
	h := la.NewDense(d, rank)
	for i := range h.Data() {
		h.Data()[i] = rng.Float64() + 0.1
	}

	const eps = 1e-12
	var bytesRead int64
	for it := 0; it < iters; it++ {
		// H pass: tw = Tᵀ·W and wtw = WᵀW in one streamed reduction.
		tw := la.NewDense(d, rank)
		wtw := la.NewDense(rank, rank)
		err := t.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
			_, wc, err := w.Chunk(ci)
			if err != nil {
				return nil, err
			}
			return gnmfPart{
				tw:    c.TMul(wc),
				wtw:   wc.CrossProd(),
				bytes: EncodedBytes(c) + EncodedBytes(wc),
			}, nil
		}, func(ci int, v any) error {
			pt := v.(gnmfPart)
			tw.AddInPlace(pt.tw)
			wtw.AddInPlace(pt.wtw)
			bytesRead += pt.bytes
			return nil
		})
		if err != nil {
			w.Free()
			return nil, err
		}
		h = multiplicative(h, tw, la.MatMul(h, wtw), eps)

		// W pass: each new chunk is W_c ∗ (T_c·H) / (W_c·HᵀH), spilled as
		// the next W generation.
		hth := h.CrossProd()
		var passBytes atomic.Int64
		next, err := t.StreamToMatrix(ex, rank, func(ci, lo int, c la.Mat) (*la.Dense, error) {
			_, wc, err := w.Chunk(ci)
			if err != nil {
				return nil, err
			}
			passBytes.Add(EncodedBytes(c) + EncodedBytes(wc))
			return multiplicative(wc, c.Mul(h), la.MatMul(wc, hth), eps), nil
		})
		if err != nil {
			w.Free()
			return nil, err
		}
		bytesRead += passBytes.Load()
		if err := w.Free(); err != nil {
			next.Free()
			return nil, err
		}
		w = next
	}
	return &GNMFResult{W: w, H: h, BytesRead: bytesRead}, nil
}

// ReconstructionError returns ‖T − W·Hᵀ‖²_F in one streamed pass over T
// and the aligned W chunks, expanded per chunk as
//
//	‖T_c‖² − 2·Σ_{t_ij≠0} t_ij·(w_i·h_j) + tr((W_cᵀW_c)·(HᵀH))
//
// so the cross term touches only stored entries (CSR chunks pay
// O(nnz·rank), never rows×cols) and the reconstruction never
// materializes.
func (r *GNMFResult) ReconstructionError(ex Exec, t Mat) (float64, error) {
	hth := r.H.CrossProd() // rank×rank
	total := 0.0
	err := t.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		_, wc, err := r.W.Chunk(ci)
		if err != nil {
			return nil, err
		}
		s := 0.0
		for _, v := range rowSquaredNorms(c) {
			s += v
		}
		switch tc := c.(type) {
		case *la.CSR:
			for i := 0; i < tc.Rows(); i++ {
				idx, vals := tc.RowNNZ(i)
				wr := wc.Row(i)
				for k, j := range idx {
					s -= 2 * vals[k] * la.Dot(wr, r.H.Row(int(j)))
				}
			}
		default:
			for i := 0; i < c.Rows(); i++ {
				wr := wc.Row(i)
				for j := 0; j < c.Cols(); j++ {
					if v := c.At(i, j); v != 0 {
						s -= 2 * v * la.Dot(wr, r.H.Row(j))
					}
				}
			}
		}
		// tr((W_cᵀW_c)·(HᵀH)) — both factors are symmetric rank×rank, so
		// the trace is their element-wise dot.
		wtw := wc.CrossProd()
		for i, v := range wtw.Data() {
			s += v * hth.Data()[i]
		}
		return s, nil
	}, func(ci int, v any) error {
		total += v.(float64)
		return nil
	})
	return total, err
}

// multiplicative computes base ∗ num / den element-wise with a stabilizer,
// matching ml's update rule exactly.
func multiplicative(base, num, den *la.Dense, eps float64) *la.Dense {
	out := la.NewDense(base.Rows(), base.Cols())
	bd, nd, dd, od := base.Data(), num.Data(), den.Data(), out.Data()
	for i := range bd {
		od[i] = bd[i] * nd[i] / (dd[i] + eps)
	}
	return out
}
