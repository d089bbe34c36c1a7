package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/la"
)

// KMeansResult holds the fitted centroids and final assignments.
type KMeansResult struct {
	// Centroids is d×k: one column per cluster, matching the paper's C.
	Centroids *la.Dense
	// Assign[i] is the cluster of point i.
	Assign []int
	// Objective is the final sum of squared distances to assigned centroids.
	Objective float64
}

// KMeansFit is KMeansScan's result: the assignments are n-tall state
// beside the operand's rows, one n×1 column of cluster ids.
type KMeansFit struct {
	Centroids *la.Dense
	Assign    la.Tall
	Objective float64
}

// KMeans clusters the rows of T (Algorithm 15; factorized as Algorithm 7).
// All data-intensive steps are the vectorized bulk operators of Table 1:
//
//	DT = rowSums(T²)·1(1×k)                      — scalar op + aggregation
//	D  = DT + 1(n×1)·colSums(C²) − 2·T·C         — LMM
//	A  = (D == rowMin(D)·1(1×k))                 — one-hot assignment
//	C  = (Tᵀ·A) / (1(d×1)·colSums(A))            — transposed LMM
//
// A is one-hot, so it is held as each row's column (la.Result.Groups), like
// the paper's indicator K, and Tᵀ·A is a group sum, never an n×k product.
func KMeans(t la.Matrix, k int, opt Options) (*KMeansResult, error) {
	fit, err := KMeansScan(la.InMemory(t), k, opt)
	if err != nil {
		return nil, err
	}
	_, ids, _ := fit.Assign.Chunk(0)
	res := &KMeansResult{Centroids: fit.Centroids, Assign: make([]int, t.Rows()), Objective: fit.Objective}
	for i, v := range ids.Data() {
		res.Assign[i] = int(v)
	}
	return res, nil
}

// KMeansScan is KMeans over any operand: one scan of T per iteration, in
// which each block is assigned and contributes its share of Tᵀ·A, and a
// final scan that writes the assignment column and sums the objective.
// Empty clusters keep their previous centroid.
func KMeansScan(t la.Operand, k int, opt Options) (*KMeansFit, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("ml: k must be positive, got %d", k)
	}
	if k > t.Rows() {
		return nil, fmt.Errorf("ml: k=%d exceeds %d points", k, t.Rows())
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := la.NewDense(t.Cols(), k)
	for i := range c.Data() {
		c.Data()[i] = rng.NormFloat64()
	}
	for it := 0; it < opt.Iters; it++ {
		counts := make([]float64, k)
		_, sums, err := t.Scan(KMeansAssign(c), func(part any) error {
			for j, v := range part.([]float64) {
				counts[j] += v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, v := range sums.Data() {
			if cnt := counts[i%k]; cnt != 0 {
				c.Data()[i] = v / cnt
			}
		}
	}
	fit := &KMeansFit{Centroids: c}
	final := nearest(c, func(b la.Block, assign []int32, dist func(i int) float64) la.Result {
		ids, obj := b.Out(), 0.0
		for i, j := range assign {
			ids.Data()[i] = float64(j)
			obj += dist(i)
		}
		return la.Result{Out: ids, Part: obj}
	})
	final.OutCols = 1
	var err error
	fit.Assign, _, err = t.Scan(final, func(part any) error { fit.Objective += part.(float64); return nil })
	if err != nil {
		return nil, err
	}
	return fit, nil
}

// KMeansAssign is one assignment pass against the d×k centroids c: the
// step assigns a block's rows, its Groups are their clusters — the one-hot
// assignment matrix A_b, so the scan returns Tᵀ·A, d×k — and its Part the
// cluster counts colSums(A_b). It carries its registered name, so an
// operand that stores blocks remotely may run this same function there.
func KMeansAssign(c *la.Dense) la.Step {
	k := c.Cols()
	step := nearest(c, func(_ la.Block, assign []int32, _ func(int) float64) la.Result {
		counts := make([]float64, k)
		for _, j := range assign {
			counts[j]++
		}
		return la.Result{Groups: assign, Part: counts}
	})
	step.PCols, step.Op, step.Params = k, "kmeans-assign-v2", c
	return step
}

// nearest is the distance+argmin step for centroids c: a block's squared
// distances D = dt·1 + 1·colSums(C²) − T_b·(2C) (an LMM; the doubling is
// exact) are formed, scanned for their minimum (ties to the lowest cluster
// index) and dropped one row at a time; then gets the rows' clusters, in
// the block's Groups, and dist(i), row i's distance recomputed bit for bit.
func nearest(c *la.Dense, then func(b la.Block, assign []int32, dist func(i int) float64) la.Result) la.Step {
	k := c.Cols()
	cNorm := c.PowDense(2).ColSums().Data() // length k
	return la.Step{X: c.ScaleDense(2), Norms: true, Do: func(b la.Block, tc *la.Dense, dt []float64) (la.Result, error) {
		tcd, assign := tc.Data(), b.Groups()
		la.ParallelRows(len(dt), 2*len(tcd), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := tcd[i*k : (i+1)*k]
				best, bd := 0, dt[i]+cNorm[0]-row[0]
				for j := 1; j < k; j++ {
					if dd := dt[i] + cNorm[j] - row[j]; dd < bd {
						best, bd = j, dd
					}
				}
				assign[i] = int32(best)
			}
		})
		return then(b, assign, func(i int) float64 { j := int(assign[i]); return dt[i] + cNorm[j] - tcd[i*k+j] }), nil
	}}
}
