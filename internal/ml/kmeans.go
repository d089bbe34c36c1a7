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

// KMeans clusters the rows of T (Algorithm 15; factorized as Algorithm 7).
// All data-intensive steps are the vectorized bulk operators of Table 1:
//
//	DT = rowSums(T²)·1(1×k)                      — scalar op + aggregation
//	D  = DT + 1(n×1)·colSums(C²) − 2·T·C         — LMM
//	A  = (D == rowMin(D)·1(1×k))                 — dense boolean assignment
//	C  = (Tᵀ·A) / (1(d×1)·colSums(A))            — transposed LMM
func KMeans(t la.Matrix, k int, opt Options) (*KMeansResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("ml: k must be positive, got %d", k)
	}
	n, d := t.Rows(), t.Cols()
	if k > n {
		return nil, fmt.Errorf("ml: k=%d exceeds %d points", k, n)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := la.NewDense(d, k)
	for i := range c.Data() {
		c.Data()[i] = rng.NormFloat64()
	}

	// Pre-compute the point norms once (they never change).
	dt := t.Pow(2).RowSums().Data() // length n
	t2 := t.Scale(2)                // stays normalized for a normalized input
	t2T := t2.T()
	res := &KMeansResult{Centroids: c, Assign: make([]int, n)}
	bestD := make([]float64, n)
	for it := 0; it < opt.Iters; it++ {
		nearest(dt, c, t2.Mul(c), res.Assign, bestD) // LMM inside
		// Boolean assignment matrix A and its column sums.
		a := la.NewDense(n, k)
		counts := make([]float64, k)
		for i, j := range res.Assign {
			a.Data()[i*k+j] = 1
			counts[j]++
		}
		// New centroids; empty clusters keep their previous centroid.
		ta := t2T.Mul(a).Data() // d×k = 2·Tᵀ·A (transposed LMM on the scaled matrix)
		for i, v := range ta {
			if cnt := counts[i%k]; cnt != 0 {
				c.Data()[i] = v / (2 * cnt)
			}
		}
	}
	nearest(dt, c, t2.Mul(c), res.Assign, bestD)
	for _, v := range bestD {
		res.Objective += v
	}
	return res, nil
}

// nearest assigns every point its closest centroid from the squared
// distances D = dt·1 + 1·colSums(C²) − 2TC, given dt and tc = 2TC: the
// rows of D are formed, scanned for their minimum (ties to the lowest
// cluster index) and dropped one at a time, in parallel over the points.
func nearest(dt []float64, c, tc *la.Dense, assign []int, bestD []float64) {
	k := c.Cols()
	cNorm := c.PowDense(2).ColSumsVec() // length k
	tcd := tc.Data()
	la.ParallelRows(len(dt), 2*len(tcd), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := tcd[i*k : (i+1)*k]
			best, bd := 0, dt[i]+cNorm[0]-row[0]
			for j := 1; j < k; j++ {
				if dd := dt[i] + cNorm[j] - row[j]; dd < bd {
					best, bd = j, dd
				}
			}
			assign[i], bestD[i] = best, bd
		}
	})
}
