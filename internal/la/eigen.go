package la

import (
	"fmt"
	"math"
)

// SymEigen computes the eigendecomposition A = V·diag(vals)·Vᵀ of a
// symmetric matrix with the cyclic Jacobi method. It is the LAPACK
// substitute backing the pseudo-inverse; Jacobi is chosen for its
// robustness and simplicity at the d×d sizes the factorized ginv rewrite
// produces (d = dS + ΣdRi, small compared to n).
func SymEigen(a *Dense) (vals []float64, vecs *Dense) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("la: SymEigen on %dx%d", a.rows, a.cols))
	}
	n := a.rows
	w := a.Clone()
	v := Eye(n)
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.data[i*n+j] * w.data[i*n+j]
			}
		}
		if math.Sqrt(off) <= 1e-14*(1+symNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				// Rotation angle that annihilates the (p,q) entry.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				jacobiRotate(w, v, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.data[i*n+i]
	}
	return vals, v
}

func symNorm(a *Dense) float64 {
	m := 0.0
	for _, x := range a.data {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	return m
}

// jacobiRotate applies the Givens rotation G(p,q,c,s) as W ← GᵀWG and
// accumulates V ← VG.
func jacobiRotate(w, v *Dense, p, q int, c, s float64) {
	n := w.rows
	for i := 0; i < n; i++ {
		wip := w.data[i*n+p]
		wiq := w.data[i*n+q]
		w.data[i*n+p] = c*wip - s*wiq
		w.data[i*n+q] = s*wip + c*wiq
	}
	for j := 0; j < n; j++ {
		wpj := w.data[p*n+j]
		wqj := w.data[q*n+j]
		w.data[p*n+j] = c*wpj - s*wqj
		w.data[q*n+j] = s*wpj + c*wqj
	}
	for i := 0; i < n; i++ {
		vip := v.data[i*n+p]
		viq := v.data[i*n+q]
		v.data[i*n+p] = c*vip - s*viq
		v.data[i*n+q] = s*vip + c*viq
	}
}

// SymGinv computes the Moore-Penrose pseudo-inverse of a symmetric matrix
// by thresholded eigenvalue reciprocation: A⁺ = V·diag(1/λᵢ or 0)·Vᵀ.
func SymGinv(a *Dense) *Dense {
	vals, v := SymEigen(a)
	n := len(vals)
	maxAbs := 0.0
	for _, l := range vals {
		if al := math.Abs(l); al > maxAbs {
			maxAbs = al
		}
	}
	tol := float64(n) * 1e-13 * maxAbs
	// A⁺ = V diag(inv) Vᵀ computed as (V·diag)·Vᵀ.
	vd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(vals[j]) > tol {
				vd.data[i*n+j] = v.data[i*n+j] / vals[j]
			}
		}
	}
	return MatMulT(vd, v)
}

// Ginv computes the Moore-Penrose pseudo-inverse of a dense matrix using
// the paper's reduction (§3.3.6): ginv(T) = ginv(crossprod(T))·Tᵀ when
// n ≥ d, and Tᵀ·ginv(crossprod(Tᵀ)) otherwise.
func Ginv(m *Dense) *Dense { return GinvOf(m) }

// GinvOf computes the pseudo-inverse of any Mat through the same crossprod
// reduction, keeping the large multiplications in the operand's native
// form: a sparse one stays sparse, a normalized one factorized.
func GinvOf(a Mat) *Dense {
	if a.Rows() >= a.Cols() {
		p := SymGinv(a.CrossProd())
		// ginv = P·Aᵀ = (A·Pᵀ)ᵀ = (A·P)ᵀ since P is symmetric.
		return a.Mul(p).TDense()
	}
	g := SymGinv(a.Gram())
	return a.TMul(g)
}

// Cholesky factors an SPD matrix A = L·Lᵀ, returning the lower-triangular
// factor, or an error if A is not positive definite.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("la: Cholesky on %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("la: matrix not positive definite at pivot %d (%g)", i, s)
				}
				l.data[i*n+i] = math.Sqrt(s)
			} else {
				l.data[i*n+j] = s / l.data[j*n+j]
			}
		}
	}
	return l, nil
}

// SolveSPD solves A·X = B for SPD A via Cholesky. It is the `solve` analog
// the paper mentions alongside ginv; callers fall back to Ginv when A is
// singular.
func SolveSPD(a, b *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	if b.rows != n {
		return nil, fmt.Errorf("la: SolveSPD rhs rows %d != %d", b.rows, n)
	}
	x := b.Clone()
	// Forward substitution L·Y = B.
	for col := 0; col < x.cols; col++ {
		for i := 0; i < n; i++ {
			s := x.data[i*x.cols+col]
			for k := 0; k < i; k++ {
				s -= l.data[i*n+k] * x.data[k*x.cols+col]
			}
			x.data[i*x.cols+col] = s / l.data[i*n+i]
		}
		// Back substitution Lᵀ·X = Y.
		for i := n - 1; i >= 0; i-- {
			s := x.data[i*x.cols+col]
			for k := i + 1; k < n; k++ {
				s -= l.data[k*n+i] * x.data[k*x.cols+col]
			}
			x.data[i*x.cols+col] = s / l.data[i*n+i]
		}
	}
	return x, nil
}
