package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The widths cover all three shape classes and both sides of each
// boundary (1 | 2..16 | 17..), with and without a remainder after the
// four-column strips; the row counts straddle blockReduce's 64-row block
// floor and, times d·k, the parallel threshold.
var (
	classWidths = []int{1, 2, 3, 4, 5, 8, 10, 16, 17, 64}
	classDepths = []int{1, 3, 10, 40}
	classRows   = []int{0, 1, 63, 65, 130, 1000, 4100}
)

// closeTo reports the largest |got-want| / max(1, |want|) over entries that
// are not identical (equal, or both NaN); NaN if the shapes differ or a
// non-finite entry has no identical twin.
func closeTo(got, want *Dense) float64 {
	if got.rows != want.rows || got.cols != want.cols {
		return math.NaN()
	}
	worst := 0.0
	for i, w := range want.data {
		g := got.data[i]
		if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
			continue
		}
		worst = math.Max(worst, math.Abs(g-w)/math.Max(1, math.Abs(w)))
	}
	return worst
}

// sparsify zeroes all but about fill of m's entries.
func sparsify(rng *rand.Rand, m *Dense, fill float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		if rng.Float64() >= fill {
			out.data[i] = 0
		}
	}
	return out
}

// checkKernels holds every dispatched kernel to the naive triple loop at
// one (rows, d, k) shape.
func checkKernels(t *testing.T, rng *rand.Rand, rows, d, k int) {
	t.Helper()
	const tol = 1e-12
	a, x, xt := randDense(rng, rows, d), randDense(rng, d, k), randDense(rng, rows, k)
	at := a.TDense()
	sp := sparsify(rng, a, 0.3)
	c, spt := CSRFromDense(sp), sp.TDense()
	ind := randIndicator(rng, rows, d)
	indD := ind.Dense()
	groups := randGroups(rng, rows, k)
	for _, tc := range []struct {
		name      string
		got, want *Dense
	}{
		{"MatMul", MatMul(a, x), naiveMul(a, x)},
		{"TMatMul", TMatMul(a, xt), naiveMul(at, xt)},
		{"CSR.Mul", c.Mul(x), naiveMul(sp, x)},
		{"CSR.TMul", c.TMul(xt), naiveMul(spt, xt)},
		{"Indicator.Mul", ind.Mul(x), naiveMul(indD, x)},
		{"Indicator.TMul", ind.TMul(xt), naiveMul(indD.TDense(), xt)},
		{"Dense.GroupTMul", a.GroupTMul(groups, k), naiveMul(at, OneHot(groups, k))},
		{"CSR.GroupTMul", c.GroupTMul(groups, k), naiveMul(spt, OneHot(groups, k))},
	} {
		if diff := closeTo(tc.got, tc.want); !(diff <= tol) {
			t.Errorf("%s rows=%d d=%d k=%d: differs from the naive loop by %g", tc.name, rows, d, k, diff)
		}
	}
}

func TestKernelClassesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, rows := range classRows {
		for _, d := range classDepths {
			for _, k := range classWidths {
				checkKernels(t, rng, rows, d, k)
			}
			a := randDense(rng, rows, d)
			if diff := closeTo(a.CrossProd(), naiveMul(a.TDense(), a)); !(diff <= 1e-12) {
				t.Errorf("CrossProd rows=%d d=%d: differs from the naive loop by %g", rows, d, diff)
			}
		}
	}
	// A wide CrossProd (d > narrowMax on both sides of the product).
	a := randDense(rng, 300, 33)
	if diff := closeTo(a.CrossProd(), naiveMul(a.TDense(), a)); !(diff <= 1e-12) {
		t.Errorf("CrossProd 300x33: differs from the naive loop by %g", diff)
	}
}

func FuzzKernelShapes(f *testing.F) {
	f.Add(uint16(65), uint8(10), uint8(5), int64(1))
	f.Add(uint16(0), uint8(1), uint8(1), int64(2))
	f.Add(uint16(1), uint8(40), uint8(17), int64(3))
	f.Add(uint16(1500), uint8(3), uint8(16), int64(4))
	f.Fuzz(func(t *testing.T, rows uint16, d, k uint8, seed int64) {
		if d == 0 || k == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		checkKernels(t, rng, int(rows%2048), int(d%48)+1, int(k%72)+1)
		checkTiledBitwise(t, rng, int(rows%2048), int(d%48)+1, int(k%72)+1)
	})
}

// TestNonFinitePropagates: 0·NaN and 0·Inf are NaN, so a zero in one dense
// operand must not hide a non-finite value in the other (the dense kernels
// used to skip zero multipliers). Results must match the naive loop entry
// for entry, NaNs included.
func TestNonFinitePropagates(t *testing.T) {
	same := func(got, want *Dense) bool { return closeTo(got, want) <= 1e-12 }
	rng := rand.New(rand.NewSource(71))
	for _, k := range []int{1, 5, 40} {
		a := sparsify(rng, randDense(rng, 90, 12), 0.5) // exact zeros in the left operand
		x, xt := randDense(rng, 12, k), randDense(rng, 90, k)
		for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x.data[(3*i+1)*k%len(x.data)] = v
			xt.data[(7*i+2)*k%len(xt.data)] = v
		}
		if want := naiveMul(a, x); !same(MatMul(a, x), want) {
			t.Errorf("MatMul k=%d: non-finite entries differ from the naive loop", k)
		}
		if want := naiveMul(a.TDense(), xt); !same(TMatMul(a, xt), want) {
			t.Errorf("TMatMul k=%d: non-finite entries differ from the naive loop", k)
		}
		// X·C for a sparse C: C's structural zeros stay skipped, so here
		// the non-finite values are stored entries of C and the exact
		// zeros are in the dense X.
		c, xz := a.Clone(), sparsify(rng, randDense(rng, k, 90), 0.5)
		c.data[0], c.data[40], c.data[77] = math.NaN(), math.Inf(1), math.Inf(-1)
		if want := naiveMul(xz, c); !same(CSRFromDense(c).LeftMul(xz), want) {
			t.Errorf("CSR.LeftMul k=%d: non-finite entries differ from the naive loop", k)
		}
	}
	for _, d := range []int{6, 30} {
		m := sparsify(rng, randDense(rng, 50, d), 0.5)
		m.data[2*d+1], m.data[9*d+3], m.data[5*d] = math.NaN(), math.Inf(1), 0
		if want := naiveMul(m.TDense(), m); !same(m.CrossProd(), want) {
			t.Errorf("CrossProd d=%d: non-finite entries differ from the naive loop", d)
		}
	}
}

// atWidths runs f under each GOMAXPROCS and fails unless every result is
// bit-identical to the first.
func atWidths(t *testing.T, name string, f func() *Dense) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *Dense
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got := f()
		if first == nil {
			first = got
			continue
		}
		for i, v := range first.data {
			if math.Float64bits(v) != math.Float64bits(got.data[i]) {
				t.Fatalf("%s: element %d is %v at GOMAXPROCS=1 and %v at GOMAXPROCS=%d", name, i, v, got.data[i], procs)
			}
		}
	}
}

// TestWidthDeterminismKernels pins every kernel bitwise across worker
// counts: no result in this package may depend on the machine's core
// count. Shapes are large enough that every width above 1 fans out.
func TestWidthDeterminismKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const rows, d = 9000, 12
	a := randDense(rng, rows, d)
	c := CSRFromDense(sparsify(rng, a, 0.3))
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = rng.Intn(300)
	}
	atWidths(t, "CrossProd", a.CrossProd)
	for _, k := range []int{1, 5, 40} {
		x, xt, z := randDense(rng, d, k), randDense(rng, rows, k), randDense(rng, 300, k)
		name := func(op string) string { return fmt.Sprintf("%s k=%d", op, k) }
		atWidths(t, name("MatMul"), func() *Dense { return MatMul(a, x) })
		atWidths(t, name("TMatMul"), func() *Dense { return TMatMul(a, xt) })
		atWidths(t, name("CSR.Mul"), func() *Dense { return c.Mul(x) })
		atWidths(t, name("CSR.TMul"), func() *Dense { return c.TMul(xt) })
		// A fresh indicator per width: its row bucketing is cut for the
		// worker count at first use.
		atWidths(t, name("Indicator.Mul"), func() *Dense { return NewIndicator(assign, 300).Mul(z) })
		atWidths(t, name("Indicator.TMul"), func() *Dense { return NewIndicator(assign, 300).TMul(xt) })
	}
}

// TestIndicatorBucketsConcurrentFirstUse: many goroutines hit a fresh
// indicator's lazily built bucketing at once (run under -race) and must
// all see the serial scatter's sums.
func TestIndicatorBucketsConcurrentFirstUse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the bucketed path needs more than one worker
	rng := rand.New(rand.NewSource(73))
	k := randIndicator(rng, 20_000, 500)
	z := randDense(rng, 20_000, 3)
	want := NewDense(500, 3)
	for i, c := range k.rows {
		axpy(want.Row(int(c)), z.Row(i), 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := k.TMul(z); MaxAbsDiff(got, want) != 0 {
				t.Error("concurrent first TMul differs from the serial scatter")
			}
		}()
	}
	wg.Wait()
}

// randGroups assigns each of n rows to one of k groups.
func randGroups(rng *rand.Rand, n, k int) []int32 {
	g := make([]int32, n)
	for i := range g {
		g[i] = int32(rng.Intn(k))
	}
	return g
}

// TestWidthDeterminismGroupTMul pins the group-sum kernels bitwise across
// worker counts, at a shape where every width above 1 fans out.
func TestWidthDeterminismGroupTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const rows, d = 9000, 50
	a := randDense(rng, rows, d)
	c := CSRFromDense(sparsify(rng, a, 0.3))
	for _, k := range []int{1, 10, 17} {
		groups := randGroups(rng, rows, k)
		atWidths(t, fmt.Sprintf("Dense.GroupTMul k=%d", k), func() *Dense { return a.GroupTMul(groups, k) })
		atWidths(t, fmt.Sprintf("CSR.GroupTMul k=%d", k), func() *Dense { return c.GroupTMul(groups, k) })
	}
}
