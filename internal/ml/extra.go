package ml

import (
	"fmt"
	"sort"

	"repro/internal/la"
)

// The paper's framework factorizes any algorithm whose data-intensive work
// is Table 1 operators. Ridge regression and PCA are two such algorithms
// beyond the paper's four, included to demonstrate the generality claim:
// neither required any new rewrite rules.

// RidgeRegression solves (crossprod(T) + λI)·w = Tᵀ·Y. The data-intensive
// operators — crossprod and the transposed LMM — are exactly the ones the
// normalized matrix factorizes; the λI shift is d×d.
func RidgeRegression(t la.Matrix, y *la.Dense, lambda float64) (*la.Dense, error) {
	return RidgeScan(la.InMemory(t), y, lambda)
}

// RidgeScan is RidgeRegression over any operand.
func RidgeScan(t la.Operand, y *la.Dense, lambda float64) (*la.Dense, error) {
	if err := checkLabels(t, y); err != nil {
		return nil, err
	}
	if lambda < 0 {
		return nil, fmt.Errorf("ml: lambda must be non-negative, got %g", lambda)
	}
	a, tty, err := normalEquations(t, y)
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Cols(); i++ {
		a.Set(i, i, a.At(i, i)+lambda)
	}
	if w, err := la.SolveSPD(a, tty); err == nil {
		return w, nil
	}
	return la.MatMul(la.SymGinv(a), tty), nil
}

// PCAResult holds the top principal components and their variances.
type PCAResult struct {
	// Components is d×k: one principal direction per column, sorted by
	// decreasing explained variance.
	Components *la.Dense
	// Variances holds the corresponding eigenvalues of the covariance.
	Variances []float64
}

// PCA computes the top-k principal components of the rows of T via the
// covariance matrix
//
//	C = (crossprod(T) − n·mean·meanᵀ) / (n−1)
//
// crossprod and colSums are factorized operators, so PCA over a normalized
// matrix never materializes the join.
func PCA(t la.Matrix, k int) (*PCAResult, error) { return PCAScan(la.InMemory(t), k) }

// PCAScan is PCA over any operand: the Gram pass, and the column sums as
// the scan product Tᵀ·1.
func PCAScan(t la.Operand, k int) (*PCAResult, error) {
	n, d := t.Rows(), t.Cols()
	if k <= 0 || k > d {
		return nil, fmt.Errorf("ml: k=%d out of range (1..%d)", k, d)
	}
	if n < 2 {
		return nil, fmt.Errorf("ml: PCA needs at least 2 rows, got %d", n)
	}
	cp, sums, err := normalEquations(t, la.Ones(n, 1))
	if err != nil {
		return nil, err
	}
	mean := sums.ScaleDense(1 / float64(n)) // d×1
	cov := la.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			cov.Set(i, j, (cp.At(i, j)-float64(n)*mean.At(i, 0)*mean.At(j, 0))/float64(n-1))
		}
	}
	vals, vecs := la.SymEigen(cov)
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	comp := la.NewDense(d, k)
	variances := make([]float64, k)
	for c := 0; c < k; c++ {
		src := order[c]
		variances[c] = vals[src]
		for i := 0; i < d; i++ {
			comp.Set(i, c, vecs.At(i, src))
		}
	}
	return &PCAResult{Components: comp, Variances: variances}, nil
}
