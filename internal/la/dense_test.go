package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// naiveMul is the reference O(n³) triple loop used to validate the blocked
// kernels.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			s := 0.0
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dims")
		}
	}()
	NewDense(-1, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestDenseFromRows(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestEye(t *testing.T) {
	e := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(4)[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 37, 23)
	tt := m.TDense().TDense()
	if !EqualApprox(m, tt, 0) {
		t.Fatal("double transpose != identity")
	}
	mt := m.TDense()
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if mt.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 31}, {64, 64, 64}, {100, 3, 50}} {
		a := randDense(rng, dims[0], dims[1])
		b := randDense(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMul(a, b)
		if !EqualApprox(got, want, 1e-10) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewDense(2, 3), NewDense(2, 3))
}

func TestTMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{5, 3, 4}, {40, 7, 11}, {300, 5, 8}} {
		a := randDense(rng, dims[0], dims[1])
		b := randDense(rng, dims[0], dims[2])
		got := TMatMul(a, b)
		want := naiveMul(a.TDense(), b)
		if !EqualApprox(got, want, 1e-10) {
			t.Fatalf("TMatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulTAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 13, 7)
	b := randDense(rng, 19, 7)
	got := MatMulT(a, b)
	want := naiveMul(a, b.TDense())
	if !EqualApprox(got, want, 1e-10) {
		t.Fatal("MatMulT mismatch")
	}
}

func TestCrossProd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{10, 4}, {200, 17}, {3, 9}} {
		m := randDense(rng, dims[0], dims[1])
		got := m.CrossProd()
		want := naiveMul(m.TDense(), m)
		if !EqualApprox(got, want, 1e-9) {
			t.Fatalf("CrossProd mismatch for dims %v", dims)
		}
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randDense(rng, 8, 5)
	got := m.Gram()
	want := naiveMul(m, m.TDense())
	if !EqualApprox(got, want, 1e-10) {
		t.Fatal("Gram mismatch")
	}
}

func TestElementwiseOps(t *testing.T) {
	m := DenseFromRows([][]float64{{1, -2}, {3, 4}})
	if got := m.ScaleDense(2).At(1, 0); got != 6 {
		t.Fatalf("Scale: %v", got)
	}
	if got := m.AddScalarDense(10).At(0, 1); got != 8 {
		t.Fatalf("AddScalar: %v", got)
	}
	if got := m.PowDense(2).At(0, 1); got != 4 {
		t.Fatalf("Pow2: %v", got)
	}
	if got := m.PowDense(3).At(1, 0); math.Abs(got-27) > 1e-12 {
		t.Fatalf("Pow3: %v", got)
	}
	if got := m.ApplyDense(math.Abs).At(0, 1); got != 2 {
		t.Fatalf("Apply: %v", got)
	}
}

func TestZipOps(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	if got := a.Add(b).At(0, 0); got != 6 {
		t.Fatalf("Add: %v", got)
	}
	if got := a.Sub(b).At(1, 1); got != -4 {
		t.Fatalf("Sub: %v", got)
	}
}

func TestAggregations(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	rs := m.RowSums()
	if rs.Rows() != 2 || rs.Cols() != 1 || rs.At(0, 0) != 6 || rs.At(1, 0) != 15 {
		t.Fatalf("RowSums: %v", rs)
	}
	cs := m.ColSums()
	if cs.Rows() != 1 || cs.Cols() != 3 || cs.At(0, 0) != 5 || cs.At(0, 2) != 9 {
		t.Fatalf("ColSums: %v", cs)
	}
	if m.Sum() != 21 {
		t.Fatalf("Sum: %v", m.Sum())
	}
}

func TestSlices(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := m.SliceRowsDense(1, 3)
	if r.Rows() != 2 || r.At(0, 0) != 4 || r.At(1, 2) != 9 {
		t.Fatalf("SliceRows: %v", r)
	}
}

func TestHCatVCat(t *testing.T) {
	a := DenseFromRows([][]float64{{1}, {2}})
	b := DenseFromRows([][]float64{{3, 4}, {5, 6}})
	h := HCat(a, b)
	if h.Rows() != 2 || h.Cols() != 3 || h.At(1, 2) != 6 || h.At(0, 0) != 1 {
		t.Fatalf("HCat: %v", h)
	}
	v := VCat(b, b)
	if v.Rows() != 4 || v.At(3, 1) != 6 {
		t.Fatalf("VCat: %v", v)
	}
}

func TestScaleRowsDense(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	s := m.ScaleRowsDense([]float64{2, 10})
	if s.At(0, 1) != 4 || s.At(1, 0) != 30 {
		t.Fatalf("ScaleRows: %v", s)
	}
}

func TestAXPYInPlace(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}})
	b := DenseFromRows([][]float64{{10, 20}})
	a.AXPYInPlace(0.5, b)
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Fatalf("AXPY: %v", a)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := randDense(rng, m, k)
		b := randDense(rng, k, n)
		lhs := MatMul(a, b).TDense()
		rhs := MatMul(b.TDense(), a.TDense())
		return EqualApprox(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum(A·x) for x=1-vector equals Sum of row sums weighting.
func TestRowSumsViaOnesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(30), 1+r.Intn(30)
		a := randDense(r, m, n)
		ones := Ones(n, 1)
		viaMul := MatMul(a, ones)
		return EqualApprox(viaMul, a.RowSums(), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixInterfaceDense(t *testing.T) {
	var m Matrix = DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatal("dims")
	}
	if got := m.T().Dense().At(0, 1); got != 3 {
		t.Fatalf("T: %v", got)
	}
	if got := m.Scale(3).Sum(); got != 30 {
		t.Fatalf("Scale Sum: %v", got)
	}
	x := DenseFromRows([][]float64{{1}, {1}})
	if got := m.Mul(x).At(1, 0); got != 7 {
		t.Fatalf("Mul: %v", got)
	}
	if got := m.LeftMul(Ones(1, 2)).At(0, 0); got != 4 {
		t.Fatalf("LeftMul: %v", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}})
	b := DenseFromRows([][]float64{{1.5, 2}})
	if got := MaxAbsDiff(a, b); got != 0.5 {
		t.Fatalf("MaxAbsDiff: %v", got)
	}
}
