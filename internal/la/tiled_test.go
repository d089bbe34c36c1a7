package la

import (
	"math"
	"math/rand"
	"testing"
)

// The register-tiled kernels (CrossProd's packed 2×3 tiles, MulRows' two
// rows × three columns) may reorder loops but never an element's
// additions. These tests hold them, bit for bit, to one-row references:
// refCrossProd's rank-one update per row and refCombineNarrow's
// four-column sweep per output row.

// refCrossProd is CrossProd as one rank-one update of the upper triangle
// per row, under the same blockReduce.
func refCrossProd(m *Dense) *Dense {
	d := m.cols
	out := NewDenseData(d, d, blockReduce(m.rows, d*d, m.rows*d*d/2, func(acc []float64, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := m.data[r*d : (r+1)*d]
			for i, v := range row {
				dst := acc[i*d+i:]
				for j, w := range row[i:] {
					dst[j] += v * w
				}
			}
		}
	}))
	mirrorLower(out)
	return out
}

// refCombineNarrow sets out to Σ_j coef[j]·x[j,:] over the n rows of x,
// four output columns per sweep of coef, then one at a time.
func refCombineNarrow(out, coef []float64, n int, x []float64) {
	k := len(out)
	c := 0
	for ; c+4 <= k; c += 4 {
		var s0, s1, s2, s3 float64
		for q, p := 0, c; q < n; q, p = q+1, p+k {
			v := coef[q]
			s0 += v * x[p]
			s1 += v * x[p+1]
			s2 += v * x[p+2]
			s3 += v * x[p+3]
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < k; c++ {
		s := 0.0
		for q, p := 0, c; q < n; q, p = q+1, p+k {
			s += coef[q] * x[p]
		}
		out[c] = s
	}
}

// refMulNarrow is the narrow MulRows as one refCombineNarrow per row.
func refMulNarrow(m, x *Dense) *Dense {
	d, k := m.cols, x.cols
	out := NewDense(m.rows, k)
	for i := 0; i < m.rows; i++ {
		refCombineNarrow(out.data[i*k:(i+1)*k], m.data[i*d:(i+1)*d], d, x.data)
	}
	return out
}

// specialCells overwrites about one cell in eight with +0 or −0, and about
// one row in 50 has NaN, +Inf or −Inf in its last column. The non-finite
// values stay in one column so that most results remain finite, where a
// change in the order of additions shows.
func specialCells(rng *rand.Rand, m *Dense) *Dense {
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range m.data {
		if rng.Intn(8) == 0 {
			m.data[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
	}
	for i := 0; i < m.rows && m.cols > 0; i++ {
		if rng.Intn(50) == 0 {
			m.data[i*m.cols+m.cols-1] = nonFinite[rng.Intn(len(nonFinite))]
		}
	}
	return m
}

// firstBitDiff returns the index of the first element whose bits differ,
// or -1 when the two slices are bitwise equal. A NaN matches any NaN: its
// payload is not part of a result. Go leaves the operand order of a
// commutative add to the register allocator, and when both operands are
// NaN (0·Inf's default NaN plus an input NaN) x86 keeps the first one's.
func firstBitDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// checkTiledBitwise holds CrossProd of a rows×d matrix, and for a narrow
// k MatMul and MulRows over odd sub-ranges, to the reference loops bit for
// bit.
func checkTiledBitwise(t *testing.T, rng *rand.Rand, rows, d, k int) {
	t.Helper()
	a := specialCells(rng, randDense(rng, rows, d))
	checkCrossProdBitwise(t, a)
	checkNarrowBitwise(t, rng, a, k)
}

func checkCrossProdBitwise(t *testing.T, a *Dense) {
	t.Helper()
	if i := firstBitDiff(a.CrossProd().data, refCrossProd(a).data); i >= 0 {
		t.Errorf("CrossProd rows=%d d=%d: element %d differs from the rank-one loop", a.rows, a.cols, i)
	}
}

func checkNarrowBitwise(t *testing.T, rng *rand.Rand, a *Dense, k int) {
	t.Helper()
	rows, d := a.rows, a.cols
	if k < 2 || k > narrowMax {
		return
	}
	x := specialCells(rng, randDense(rng, d, k))
	want := refMulNarrow(a, x)
	if i := firstBitDiff(MatMul(a, x).data, want.data); i >= 0 {
		t.Errorf("MatMul rows=%d d=%d k=%d: element %d differs from the one-row loop", rows, d, k, i)
	}
	for _, r := range [][2]int{{1, rows}, {0, rows - 1}, {1, rows - 2}, {rows / 3, rows/3 + 3}} {
		lo, hi := r[0], r[1]
		if lo < 0 || hi > rows || lo >= hi {
			continue
		}
		const sentinel = 12345.0
		out := NewDense(rows, k)
		for i := range out.data {
			out.data[i] = sentinel
		}
		a.MulRows(out, x, lo, hi)
		if i := firstBitDiff(out.data[lo*k:hi*k], want.data[lo*k:hi*k]); i >= 0 {
			t.Errorf("MulRows [%d,%d) d=%d k=%d: element %d differs from the one-row loop", lo, hi, d, k, i)
		}
		for i, v := range out.data {
			if (i < lo*k || i >= hi*k) && v != sentinel {
				t.Fatalf("MulRows [%d,%d) d=%d k=%d wrote element %d outside its rows", lo, hi, d, k, i)
			}
		}
	}
}

func TestTiledKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, rows := range []int{0, 1, 2, 3, 63, 64, 65, 130, 5991} {
		for _, d := range []int{1, 2, 3, 4, 5, 10, 16, 17, 50, 63} {
			a := specialCells(rng, randDense(rng, rows, d))
			checkCrossProdBitwise(t, a)
			for k := 2; k <= narrowMax; k++ {
				checkNarrowBitwise(t, rng, a, k)
			}
		}
	}
}
