package la

import "fmt"

// Every multiplication kernel in this package (MatMul, TMatMul, CSR.Mul,
// CSR.TMul, Indicator.Mul, Indicator.TMul) picks one of three shape classes
// from the width k of its dense right operand, and from nothing else:
//
//   - vector (k = 1): loops over plain slices, four rows of the left
//     operand at a time where they can share loads or stores;
//   - narrow (1 < k ≤ narrowMax): the k columns are looped over in the
//     kernel itself, and nothing is called per scalar of the left operand:
//     MulRows keeps two rows × three columns of the output in registers
//     (mulNarrow2), the others four columns of one row (combineNarrow);
//   - wide (k > narrowMax): one unrolled axpy per scalar.
//
// CrossProd packs up to crossPanel rows column-major and sums 2×3 tiles of
// the upper triangle over them (crossTiles); a 2×4 tile spills, as Go
// reserves X15. The §4 algorithms multiply by k = 1 (GLMs) or k = 5–10
// (K-Means, GNMF), where a call per scalar costs more than its flops.
//
// A kernel may reorder loops, never an element's additions: each output
// element sums in the same order under every class, tile and GOMAXPROCS.
const narrowMax = 16

// crossPanel rows of a 50-column chunk (25 KiB) stay in the L1 cache.
const crossPanel = 64

// Dot returns Σ x[i]·y[i] over four independent accumulators; y must be at
// least as long as x.
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes dst[i] += alpha*src[i] over src with 4-way unrolling; dst
// must be at least as long as src.
func axpy(dst, src []float64, alpha float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// axpyNarrow is axpy for rows of the narrow class: the bare loop, which
// inlines, so a kernel calling it once per scalar of its left operand pays
// no call.
func axpyNarrow(dst, src []float64, alpha float64) {
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// MatMul computes a·b for dense matrices, row-parallel.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("la: MatMul %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	a.MulInto(out, b)
	return out
}

// MulInto writes m·x into out, m.Rows()×x.Cols(): Mul for a caller that
// keeps its output from product to product (la.InMemory's T·X).
func (m *Dense) MulInto(out, x *Dense) {
	parallelFor(m.rows, m.rows*m.cols*x.cols, func(lo, hi int) { m.MulRows(out, x, lo, hi) })
}

// MulRows writes rows [lo,hi) of m·x into the same rows of out. It is the
// dense LMM kernel and where its shape dispatch lives; callers that fuse
// more work into the same pass over the output (core's factorized LMM)
// call it block by block. It never reads out before writing it: a fresh
// allocation read first costs a second page fault per page.
func (m *Dense) MulRows(out, x *Dense, lo, hi int) {
	d, k := m.cols, x.cols
	switch {
	case k == 1:
		// Four rows at a time share the loads of x, one register
		// accumulator each; every row sums in ascending j.
		row := func(i int) []float64 { return m.data[i*d : (i+1)*d] }
		i := lo
		for ; i+4 <= hi; i += 4 {
			r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
			var s0, s1, s2, s3 float64
			for j, v := range x.data {
				s0 += r0[j] * v
				s1 += r1[j] * v
				s2 += r2[j] * v
				s3 += r3[j] * v
			}
			out.data[i], out.data[i+1], out.data[i+2], out.data[i+3] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			s := 0.0
			for j, v := range row(i) {
				s += v * x.data[j]
			}
			out.data[i] = s
		}
	case k <= narrowMax:
		i := lo
		for ; i+2 <= hi; i += 2 {
			mulNarrow2(out.data[i*k:(i+2)*k], m.data[i*d:(i+2)*d], x.data)
		}
		if i < hi {
			combineNarrow(out.data[i*k:(i+1)*k], false, m.data[i*d:], 1, d, x.data)
		}
	default:
		clear(out.data[lo*k : hi*k])
		// The i-k-j loop order keeps the inner loop streaming over
		// contiguous rows of x and out; kb rows of x stay cached.
		const kb = 256
		for k0 := 0; k0 < d; k0 += kb {
			k1 := min(k0+kb, d)
			for i := lo; i < hi; i++ {
				orow := out.data[i*k : (i+1)*k]
				for j, v := range m.data[i*d+k0 : i*d+k1] {
					axpy(orow, x.data[(k0+j)*k:(k0+j+1)*k], v)
				}
			}
		}
	}
}

// mulNarrow2 sets the two rows of out (2×k) to the two rows of a (2×d)
// times the d×k x, three columns per sweep (each load of x feeds two
// products), then one at a time; each sum runs in ascending j from zero.
func mulNarrow2(out, a, x []float64) {
	k, d := len(out)/2, len(a)/2
	a0, a1 := a[:d], a[d : 2*d][:d]
	o0, o1 := out[:k:k], out[k:2*k:2*k]
	c := 0
	for ; c+3 <= k; c += 3 {
		var s00, s01, s02, s10, s11, s12 float64
		for j, v0 := range a0 {
			v1, xr := a1[j], x[j*k+c:j*k+c+3:j*k+c+3]
			s00 += v0 * xr[0]
			s01 += v0 * xr[1]
			s02 += v0 * xr[2]
			s10 += v1 * xr[0]
			s11 += v1 * xr[1]
			s12 += v1 * xr[2]
		}
		o0[c], o0[c+1], o0[c+2] = s00, s01, s02
		o1[c], o1[c+1], o1[c+2] = s10, s11, s12
	}
	for ; c < k; c++ {
		var s0, s1 float64
		for j, v0 := range a0 {
			xv := x[j*k+c]
			s0 += v0 * xv
			s1 += a1[j] * xv
		}
		o0[c], o1[c] = s0, s1
	}
}

// combineNarrow is the narrow class's kernel: it sets out to (or, with
// add, increases out by) Σ_j coef[j·stride]·x[j,:] over the n rows of a
// row-major x with len(out) columns. Four output columns at a time
// accumulate in registers over one sweep of coef, then the remaining
// columns one at a time; each sum runs in ascending j.
func combineNarrow(out []float64, add bool, coef []float64, stride, n int, x []float64) {
	k, end := len(out), n*stride
	c := 0
	for ; c+4 <= k; c += 4 {
		var s0, s1, s2, s3 float64
		for q, p := 0, c; q < end; q, p = q+stride, p+k {
			v, xr := coef[q], x[p:p+4:p+4]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
		}
		o := out[c : c+4 : c+4]
		if add {
			s0, s1, s2, s3 = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
		}
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; c < k; c++ {
		s := 0.0
		for q, p := 0, c; q < end; q, p = q+stride, p+k {
			s += coef[q] * x[p]
		}
		if add {
			s += out[c]
		}
		out[c] = s
	}
}

// TMatMul computes aᵀ·b without materializing aᵀ, as a blockReduce over
// the rows of a: bit-identical for any GOMAXPROCS.
func TMatMul(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("la: TMatMul %dx%d ᵀ· %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	d, k := a.cols, b.cols
	// The narrow class sweeps a column of a against sub rows of b at a
	// time: few enough that both stay in the first-level cache across the
	// d sweeps.
	sub := max(8, 4096/(d+k+1))
	return NewDenseData(d, k, blockReduce(a.rows, d*k, a.rows*d*k, func(acc []float64, lo, hi int) {
		switch {
		case k == 1:
			// Four rows at a time, so acc is loaded and stored once per
			// four products.
			row := func(r int) []float64 { return a.data[r*d : (r+1)*d] }
			r := lo
			for ; r+4 <= hi; r += 4 {
				r0, r1, r2, r3 := row(r), row(r+1), row(r+2), row(r+3)
				b0, b1, b2, b3 := b.data[r], b.data[r+1], b.data[r+2], b.data[r+3]
				for j := range acc {
					acc[j] += r0[j]*b0 + r1[j]*b1 + r2[j]*b2 + r3[j]*b3
				}
			}
			for ; r < hi; r++ {
				axpy(acc, row(r), b.data[r])
			}
		case k <= narrowMax:
			for ; lo < hi; lo += sub {
				n := min(sub, hi-lo)
				for j := 0; j < d; j++ {
					combineNarrow(acc[j*k:(j+1)*k], true, a.data[lo*d+j:], d, n, b.data[lo*k:])
				}
			}
		default:
			for r := lo; r < hi; r++ {
				brow := b.data[r*k : (r+1)*k]
				for j, v := range a.data[r*d : (r+1)*d] {
					axpy(acc[j*k:], brow, v)
				}
			}
		}
	}))
}

// GroupTMul computes mᵀ·OneHot(groups, k), the d×k sums of m's rows by
// group, without the one-hot matrix: O(n·d) adds where the product is
// O(n·d·k) multiply-adds, under blockReduce like TMatMul.
func (m *Dense) GroupTMul(groups []int32, k int) *Dense {
	d := m.cols
	return groupSums(m.rows, d, k, groups, m.rows*d, func(acc []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := acc[int(groups[i])*d:]
			for j, v := range m.data[i*d : (i+1)*d] {
				dst[j] += v
			}
		}
	})
}

// groupSums checks a GroupTMul call and runs its kernel under blockReduce.
// The kernel adds row i into row groups[i] of a k×d accumulator — for a
// dense row one contiguous add — and the d×k result is its transpose.
func groupSums(n, d, k int, groups []int32, work int, f func(acc []float64, lo, hi int)) *Dense {
	if len(groups) != n {
		panic(fmt.Sprintf("la: GroupTMul of %d rows with %d groups", n, len(groups)))
	}
	return NewDenseData(k, d, blockReduce(n, k*d, work, f)).TDense()
}

// OneHot returns the n×k 0/1 matrix with row i's single 1 in column
// groups[i]: the P a GroupTMul stands for, for matrices without the kernel.
func OneHot(groups []int32, k int) *Dense {
	p := NewDense(len(groups), k)
	for i, g := range groups {
		p.data[i*k+int(g)] = 1
	}
	return p
}

// MatMulT computes a·bᵀ using dot products over rows of both operands.
func MatMulT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("la: MatMulT %dx%d · %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	work := a.rows * a.cols * b.rows
	parallelFor(a.rows, work, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.rows; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// CrossProd computes mᵀm exploiting symmetry: only the upper triangle is
// accumulated (a blockReduce over the rows, so bit-identical for any
// GOMAXPROCS), then mirrored. This is the dense building block used by
// the efficient factorized cross-product (Algorithm 2). Each block is
// packed crossPanel rows at a time and summed by crossTiles.
func (m *Dense) CrossProd() *Dense {
	d := m.cols
	out := NewDenseData(d, d, blockReduce(m.rows, d*d, m.rows*d*d/2, func(acc []float64, lo, hi int) {
		var panel [crossPanel * narrowMax]float64 // a narrow matrix packs on the stack
		pack := panel[:]
		if d > narrowMax {
			pack = make([]float64, crossPanel*d)
		}
		for r0 := lo; r0 < hi; r0 += crossPanel {
			nb := min(crossPanel, hi-r0)
			for r, row := 0, m.data[r0*d:]; r < nb; r, row = r+1, row[d:] {
				for j, v := range row[:d] {
					pack[j*nb+r] = v
				}
			}
			crossTiles(acc, pack[:nb*d], d, nb)
		}
	}))
	mirrorLower(out)
	return out
}

// crossTiles adds the upper triangle of pᵀp into the d×d acc for a panel p
// of nb rows stored column-major, 2×3 elements of acc in registers at a
// time (a diagonal tile also sums one lower element, which mirrorLower
// overwrites). Each element adds row i's value times column j's in
// ascending row order, as one rank-one update per row would.
func crossTiles(acc, p []float64, d, nb int) {
	col := func(j int) []float64 { return p[j*nb : (j+1)*nb : (j+1)*nb] }
	i := 0
	for ; i+2 <= d; i += 2 {
		a0, a1 := col(i), col(i+1)
		a1 = a1[:len(a0)] // here and below: no bounds checks in the loops
		o0, o1 := acc[i*d:(i+1)*d:(i+1)*d], acc[(i+1)*d:(i+2)*d:(i+2)*d]
		j := i
		for ; j+3 <= d; j += 3 {
			b0, b1, b2 := col(j)[:len(a0)], col(j + 1)[:len(a0)], col(j + 2)[:len(a0)]
			s00, s01, s02 := o0[j], o0[j+1], o0[j+2]
			s10, s11, s12 := o1[j], o1[j+1], o1[j+2]
			for r, x0 := range a0 {
				x1, y0, y1, y2 := a1[r], b0[r], b1[r], b2[r]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
			}
			o0[j], o0[j+1], o0[j+2] = s00, s01, s02
			o1[j], o1[j+1], o1[j+2] = s10, s11, s12
		}
		for ; j < d; j++ {
			b := col(j)[:len(a0)]
			s0, s1 := o0[j], o1[j]
			for r, x0 := range a0 {
				s0 += x0 * b[r]
				s1 += a1[r] * b[r]
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < d { // an odd d leaves the last diagonal element
		s := acc[i*d+i]
		for _, x := range col(i) {
			s += x * x
		}
		acc[i*d+i] = s
	}
}

func mirrorLower(s *Dense) {
	d := s.cols
	for i := 1; i < d; i++ {
		for j := 0; j < i; j++ {
			s.data[i*d+j] = s.data[j*d+i]
		}
	}
}

// Gram computes m·mᵀ.
func (m *Dense) Gram() *Dense { return MatMulT(m, m) }

// Ginv computes the Moore-Penrose pseudo-inverse; see ginv.go.
func (m *Dense) Ginv() *Dense { return Ginv(m) }
