package la

import (
	"fmt"
	"sort"
	"sync"
)

// Indicator is a row-selector matrix: a sparse 0/1 matrix with exactly one 1
// per row. It represents the paper's PK-FK indicator K (row i of S points at
// tuple K.rows[i] of R) as well as the M:N indicators I_S and I_R. Storing
// only the column index per row makes K·Z a row gather, Kᵀ·Z a scatter-add,
// and colSums(K) a bincount — exactly the cost profile the paper's
// complexity analysis (Table 3) assumes for the factorized operators.
type Indicator struct {
	rows  []int32 // rows[i] = column index of the single 1 in row i
	nCols int

	rangeOnce              sync.Once // guards the lazily built by-range bucketing
	rangeStart, rangeOrder []int32   // see byRange
}

// NewIndicator builds an indicator from the per-row column assignments.
// Every assignment must lie in [0, nCols).
func NewIndicator(assign []int, nCols int) *Indicator {
	r := make([]int32, len(assign))
	for i, a := range assign {
		if a < 0 || a >= nCols {
			panic(fmt.Sprintf("la: indicator assignment %d out of range [0,%d)", a, nCols))
		}
		r[i] = int32(a)
	}
	return &Indicator{rows: r, nCols: nCols}
}

// NewIndicatorInt32 wraps assign without copying.
func NewIndicatorInt32(assign []int32, nCols int) *Indicator {
	for i, a := range assign {
		if a < 0 || int(a) >= nCols {
			panic(fmt.Sprintf("la: indicator assignment %d (row %d) out of range [0,%d)", a, i, nCols))
		}
	}
	return &Indicator{rows: assign, nCols: nCols}
}

// IdentityIndicator returns the n×n identity as an indicator.
func IdentityIndicator(n int) *Indicator {
	r := make([]int32, n)
	for i := range r {
		r[i] = int32(i)
	}
	return &Indicator{rows: r, nCols: n}
}

// Rows reports the number of rows.
func (k *Indicator) Rows() int { return len(k.rows) }

// Cols reports the number of columns.
func (k *Indicator) Cols() int { return k.nCols }

// ColOf returns the column of the single 1 in row i.
func (k *Indicator) ColOf(i int) int { return int(k.rows[i]) }

// Assignments returns the backing row→column slice (no copy).
func (k *Indicator) Assignments() []int32 { return k.rows }

// Mul computes K·Z: a row gather. Z must have k.Cols() rows.
func (k *Indicator) Mul(z *Dense) *Dense {
	if z.rows != k.nCols {
		panic(fmt.Sprintf("la: indicator Mul %dx%d · %dx%d", len(k.rows), k.nCols, z.rows, z.cols))
	}
	out := NewDense(len(k.rows), z.cols)
	w := z.cols
	parallelFor(len(k.rows), len(k.rows)*w, func(lo, hi int) {
		if w == 1 {
			for i, c := range k.rows[lo:hi] {
				out.data[lo+i] = z.data[c]
			}
			return
		}
		for i := lo; i < hi; i++ {
			copy(out.data[i*w:(i+1)*w], z.data[int(k.rows[i])*w:])
		}
	})
	return out
}

// TMul computes Kᵀ·Z: a scatter-add of Z's rows into the output. Run in
// parallel, each worker scatters the rows of its own column ranges (see
// byRange), so every output element still adds its Z rows in ascending row
// order — the serial scatter's additions in the serial scatter's order —
// and the result is bit-identical however many workers compute it.
func (k *Indicator) TMul(z *Dense) *Dense {
	if z.rows != len(k.rows) {
		panic(fmt.Sprintf("la: indicator TMul %dx%dᵀ · %dx%d", len(k.rows), k.nCols, z.rows, z.cols))
	}
	w := z.cols
	out := NewDense(k.nCols, w)
	// scatter adds the n rows of Z listed in ids (rows 0..n-1 when ids is
	// nil), in that order, into their output rows.
	scatter := func(ids []int32, n int) {
		for t := 0; t < n; t++ {
			i := t
			if ids != nil {
				i = int(ids[t])
			}
			c := int(k.rows[i])
			switch {
			case w == 1:
				out.data[c] += z.data[i]
			case w <= narrowMax:
				axpyNarrow(out.data[c*w:], z.data[i*w:(i+1)*w], 1)
			default:
				axpy(out.data[c*w:], z.data[i*w:(i+1)*w], 1)
			}
		}
	}
	work := len(k.rows) * w
	if parallelChunks(k.nCols, work) == 1 {
		scatter(nil, len(k.rows))
		return out
	}
	start, order := k.byRange()
	parallelFor(len(start)-1, work, func(b0, b1 int) {
		ids := order[start[b0]:start[b1]]
		scatter(ids, len(ids))
	})
	return out
}

// byRange returns the row ids bucketed by column range: the columns are
// cut into len(start)-1 equal ranges, and order[start[b]:start[b+1]]
// lists, ascending, the rows whose 1 falls in range b. Ascending row ids
// keep a worker's pass over Z sequential, which a grouping by single
// column would not. It is built on first parallel use — one range per
// worker then available; any other count gives the same sums — and
// cached, at 4 bytes per row.
func (k *Indicator) byRange() (start, order []int32) {
	k.rangeOnce.Do(func() {
		nb := parallelChunks(k.nCols, parallelThreshold)
		bucket := func(c int32) int { return int(c) * nb / k.nCols }
		start := make([]int32, nb+1)
		for _, c := range k.rows {
			start[bucket(c)+1]++
		}
		for b := 0; b < nb; b++ {
			start[b+1] += start[b]
		}
		order := make([]int32, len(k.rows))
		next := append([]int32(nil), start[:nb]...)
		for i, c := range k.rows {
			b := bucket(c)
			order[next[b]] = int32(i)
			next[b]++
		}
		k.rangeStart, k.rangeOrder = start, order
	})
	return k.rangeStart, k.rangeOrder
}

// LeftMul computes X·K: column j of the result accumulates the columns of X
// whose K-row maps to j.
func (k *Indicator) LeftMul(x *Dense) *Dense {
	if x.cols != len(k.rows) {
		panic(fmt.Sprintf("la: indicator LeftMul %dx%d · %dx%d", x.rows, x.cols, len(k.rows), k.nCols))
	}
	out := NewDense(x.rows, k.nCols)
	parallelFor(x.rows, x.rows*x.cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xrow := x.Row(i)
			orow := out.Row(i)
			for r, c := range k.rows {
				orow[c] += xrow[r]
			}
		}
	})
	return out
}

// ColCounts returns colSums(K) as per-column reference counts. The paper's
// Algorithm 2 uses KᵀK = diag(ColCounts).
func (k *Indicator) ColCounts() []float64 {
	out := make([]float64, k.nCols)
	for _, c := range k.rows {
		out[c]++
	}
	return out
}

// TMulIndicator computes KᵀJ for two indicators with the same row count.
// The result is a sparse count matrix: (KᵀJ)[a,b] = |{r : K[r]=a ∧ J[r]=b}|.
// It appears in the off-diagonal tiles of the multi-table cross-product and
// in the fourth tile of AᵀB (appendix C), where the paper proves
// max(nR_A, nR_B) ≤ nnz ≤ nS (theorems C.1, C.2).
func (k *Indicator) TMulIndicator(j *Indicator) *CSR {
	if len(k.rows) != len(j.rows) {
		panic(fmt.Sprintf("la: TMulIndicator row mismatch %d != %d", len(k.rows), len(j.rows)))
	}
	// Pack each (a,b) coordinate pair into one uint64 and sort; run-length
	// encoding the sorted keys yields the CSR arrays directly. This is
	// several times faster than hashing for the |T'|-sized M:N workloads.
	keys := make([]uint64, len(k.rows))
	for r, a := range k.rows {
		keys[r] = uint64(a)<<32 | uint64(uint32(j.rows[r]))
	}
	sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
	indptr := make([]int, k.nCols+1)
	var indices []int32
	var vals []float64
	for p := 0; p < len(keys); {
		key := keys[p]
		q := p
		for q < len(keys) && keys[q] == key {
			q++
		}
		a := int(key >> 32)
		indices = append(indices, int32(uint32(key)))
		vals = append(vals, float64(q-p))
		indptr[a+1]++
		p = q
	}
	for a := 0; a < k.nCols; a++ {
		indptr[a+1] += indptr[a]
	}
	return NewCSR(k.nCols, j.nCols, indptr, indices, vals)
}

// GatherMat computes K·R for a base-table matrix R (dense or sparse),
// preserving sparsity: the result rows are copies of R's rows.
func (k *Indicator) GatherMat(r Mat) Mat {
	switch rm := r.(type) {
	case *Dense:
		return k.Mul(rm)
	case *CSR:
		return rm.GatherRows(k.rows)
	default:
		return k.Mul(r.Dense())
	}
}

// Permute returns K with its column space remapped: column c becomes
// perm[c]. Used when compacting away unreferenced attribute-table tuples.
func (k *Indicator) Permute(perm []int32, newCols int) *Indicator {
	r := make([]int32, len(k.rows))
	for i, c := range k.rows {
		r[i] = perm[c]
	}
	return NewIndicatorInt32(r, newCols)
}
