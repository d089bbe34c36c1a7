package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// randMat returns a random base-table matrix, dense or sparse at random.
func randMat(rng *rand.Rand, rows, cols int) la.Mat {
	d := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	if rng.Intn(2) == 0 {
		// Sparsify ~60% of entries to exercise the CSR paths.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.6 {
					d.Set(i, j, 0)
				}
			}
		}
		return la.CSRFromDense(d)
	}
	return d
}

func randIndicator(rng *rand.Rand, rows, cols int) *la.Indicator {
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = rng.Intn(cols)
	}
	return la.NewIndicator(assign, cols)
}

func randDense(rng *rand.Rand, rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	return d
}

// randPKFK builds a random single-join normalized matrix.
func randPKFK(rng *rand.Rand) *NormalizedMatrix {
	nS := 10 + rng.Intn(40)
	nR := 2 + rng.Intn(8)
	dS := 1 + rng.Intn(6)
	dR := 1 + rng.Intn(6)
	m, err := NewPKFK(randMat(rng, nS, dS), randIndicator(rng, nS, nR), randMat(rng, nR, dR))
	if err != nil {
		panic(err)
	}
	return m
}

// randStar builds a random star-schema normalized matrix with 2-3 tables,
// occasionally with no entity features (dS = 0).
func randStar(rng *rand.Rand) *NormalizedMatrix {
	nS := 10 + rng.Intn(40)
	q := 2 + rng.Intn(2)
	var s la.Mat
	if rng.Intn(4) > 0 {
		s = randMat(rng, nS, 1+rng.Intn(5))
	}
	ks := make([]*la.Indicator, q)
	rs := make([]la.Mat, q)
	for i := 0; i < q; i++ {
		nR := 2 + rng.Intn(7)
		ks[i] = randIndicator(rng, nS, nR)
		rs[i] = randMat(rng, nR, 1+rng.Intn(5))
	}
	m, err := NewStar(s, ks, rs)
	if err != nil {
		panic(err)
	}
	return m
}

// randMN builds a random two-table M:N normalized matrix by simulating an
// equi-join on a shared attribute.
func randMN(rng *rand.Rand) *NormalizedMatrix {
	nS := 5 + rng.Intn(15)
	nR := 5 + rng.Intn(15)
	nU := 2 + rng.Intn(5)
	jS := make([]int, nS)
	jR := make([]int, nR)
	for i := range jS {
		jS[i] = rng.Intn(nU)
	}
	for i := range jR {
		jR[i] = rng.Intn(nU)
	}
	var isAssign, irAssign []int
	for i, a := range jS {
		for j, b := range jR {
			if a == b {
				isAssign = append(isAssign, i)
				irAssign = append(irAssign, j)
			}
		}
	}
	if len(isAssign) == 0 {
		// Force at least one matching pair.
		jR[0] = jS[0]
		isAssign = append(isAssign, 0)
		irAssign = append(irAssign, 0)
	}
	s := randMat(rng, nS, 1+rng.Intn(5))
	r := randMat(rng, nR, 1+rng.Intn(5))
	m, err := NewMN(s, la.NewIndicator(isAssign, nS), la.NewIndicator(irAssign, nR), r)
	if err != nil {
		panic(err)
	}
	return m
}

// allKinds yields one generator per schema kind, plus transposed variants.
func allKinds() []func(*rand.Rand) *NormalizedMatrix {
	base := []func(*rand.Rand) *NormalizedMatrix{randPKFK, randStar, randMN}
	out := base
	for _, g := range base {
		g := g
		out = append(out, func(rng *rand.Rand) *NormalizedMatrix { return g(rng).Transpose() })
	}
	return out
}

const tol = 1e-9

func TestConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randMat(rng, 10, 3)
	k := randIndicator(rng, 10, 4)
	r := randMat(rng, 4, 2)
	if _, err := NewPKFK(s, k, r); err != nil {
		t.Fatalf("valid PK-FK rejected: %v", err)
	}
	// K columns must match R rows.
	if _, err := NewPKFK(s, k, randMat(rng, 5, 2)); err == nil {
		t.Fatal("mismatched K/R accepted")
	}
	// S rows must match K rows.
	if _, err := NewPKFK(randMat(rng, 9, 3), k, r); err == nil {
		t.Fatal("mismatched S/K accepted")
	}
	// Entirely empty matrix rejected.
	if _, err := NewStar(nil, nil, nil); err == nil {
		t.Fatal("empty normalized matrix accepted")
	}
	// Nil S with valid attribute table is fine (dS = 0 datasets).
	if _, err := NewPKFK(nil, k, r); err != nil {
		t.Fatalf("dS=0 matrix rejected: %v", err)
	}
}

func TestDims(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randPKFK(rng)
	md := m.Dense()
	if m.Rows() != md.Rows() || m.Cols() != md.Cols() {
		t.Fatalf("dims %dx%d vs dense %dx%d", m.Rows(), m.Cols(), md.Rows(), md.Cols())
	}
	tm := m.Transpose()
	if tm.Rows() != m.Cols() || tm.Cols() != m.Rows() {
		t.Fatal("transpose dims")
	}
	if !tm.IsTransposed() || m.IsTransposed() {
		t.Fatal("transpose flag")
	}
	if tm.Transpose().IsTransposed() {
		t.Fatal("double transpose flag")
	}
}

func TestDenseMaterializeMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, gen := range allKinds() {
		m := gen(rng)
		md := m.Dense()
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if math.Abs(m.At(i, j)-md.At(i, j)) > 0 {
					t.Fatalf("At(%d,%d) mismatch", i, j)
				}
			}
		}
	}
}

func TestSparseMaterializeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, gen := range allKinds() {
		m := gen(rng)
		if !la.EqualApprox(m.Sparse().Dense(), m.Dense(), 0) {
			t.Fatal("Sparse() != Dense()")
		}
	}
}

func TestNNZMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m := randStar(rng)
		if got, want := m.NNZ(), m.Dense().NNZ(); got != want {
			t.Fatalf("NNZ %d != %d", got, want)
		}
	}
}

// TestScalarOps checks §3.3.1: T∘x rewrites for all schema kinds, both
// orientations, dense and sparse parts.
func TestScalarOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, gen := range allKinds() {
		for trial := 0; trial < 5; trial++ {
			m := gen(rng)
			md := m.Dense()
			if la.MaxAbsDiff(m.Scale(3.5).Dense(), md.ScaleDense(3.5)) > tol {
				t.Fatal("Scale rewrite mismatch")
			}
			if la.MaxAbsDiff(m.AddScalar(-1.25).Dense(), md.AddScalarDense(-1.25)) > tol {
				t.Fatal("AddScalar rewrite mismatch")
			}
			if la.MaxAbsDiff(m.Pow(2).Dense(), md.PowDense(2)) > tol {
				t.Fatal("Pow rewrite mismatch")
			}
			if la.MaxAbsDiff(m.Apply(math.Exp).Dense(), md.ApplyDense(math.Exp)) > tol {
				t.Fatal("Apply rewrite mismatch")
			}
		}
	}
}

// TestScalarOpsStayNormalized checks the closure property: element-wise ops
// return normalized matrices so redundancy avoidance propagates.
func TestScalarOpsStayNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randPKFK(rng)
	if _, ok := m.Scale(2).(*NormalizedMatrix); !ok {
		t.Fatal("Scale lost normalized form")
	}
	if _, ok := m.Apply(math.Exp).(*NormalizedMatrix); !ok {
		t.Fatal("Apply lost normalized form")
	}
	// And chaining still matches the materialized result.
	got := m.Scale(2).Apply(math.Tanh).(*NormalizedMatrix).Dense()
	want := m.Dense().ScaleDense(2).ApplyDense(math.Tanh)
	if la.MaxAbsDiff(got, want) > tol {
		t.Fatal("chained scalar ops mismatch")
	}
}

// TestAggregations checks §3.3.2 for all schema kinds and orientations.
func TestAggregations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, gen := range allKinds() {
		for trial := 0; trial < 5; trial++ {
			m := gen(rng)
			md := m.Dense()
			if la.MaxAbsDiff(m.RowSums(), md.RowSums()) > tol {
				t.Fatal("rowSums rewrite mismatch")
			}
			if la.MaxAbsDiff(m.ColSums(), md.ColSums()) > tol {
				t.Fatal("colSums rewrite mismatch")
			}
			if math.Abs(m.Sum()-md.Sum()) > tol*float64(1+m.Rows()*m.Cols()) {
				t.Fatal("sum rewrite mismatch")
			}
		}
	}
}

// TestLMM checks §3.3.3 (including multi-table §3.5, M:N appendix D, and
// the transposed variant of appendix A) with weight matrices, not just
// vectors.
func TestLMM(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, gen := range allKinds() {
		for trial := 0; trial < 5; trial++ {
			m := gen(rng)
			x := randDense(rng, m.Cols(), 1+rng.Intn(4))
			got := m.Mul(x)
			want := la.MatMul(m.Dense(), x)
			if la.MaxAbsDiff(got, want) > tol {
				t.Fatal("LMM rewrite mismatch")
			}
		}
	}
}

// TestRMM checks §3.3.4 and its transposed variant.
func TestRMM(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, gen := range allKinds() {
		for trial := 0; trial < 5; trial++ {
			m := gen(rng)
			x := randDense(rng, 1+rng.Intn(4), m.Rows())
			got := m.LeftMul(x)
			want := la.MatMul(x, m.Dense())
			if la.MaxAbsDiff(got, want) > tol {
				t.Fatal("RMM rewrite mismatch")
			}
		}
	}
}

// TestCrossProd checks §3.3.5: both the efficient (Algorithm 2/10) and
// naive (Algorithm 1/9) methods, all schema kinds, plus the transposed
// (Gram matrix) rewrite from appendix A.
func TestCrossProd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, gen := range allKinds() {
		for trial := 0; trial < 5; trial++ {
			m := gen(rng)
			md := m.Dense()
			want := md.CrossProd()
			if la.MaxAbsDiff(m.CrossProd(), want) > 1e-8 {
				t.Fatal("efficient cross-product mismatch")
			}
			if la.MaxAbsDiff(m.CrossProdNaive(), want) > 1e-8 {
				t.Fatal("naive cross-product mismatch")
			}
		}
	}
}

// TestGinv checks §3.3.6 against the dense pseudo-inverse on both
// orientations.
func TestGinv(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, gen := range allKinds() {
		m := gen(rng)
		got := m.Ginv()
		want := la.Ginv(m.Dense())
		if got.Rows() != m.Cols() || got.Cols() != m.Rows() {
			t.Fatalf("ginv dims %dx%d for %dx%d input", got.Rows(), got.Cols(), m.Rows(), m.Cols())
		}
		if la.MaxAbsDiff(got, want) > 1e-6 {
			t.Fatalf("ginv rewrite mismatch: %g", la.MaxAbsDiff(got, want))
		}
	}
}

// TestTransposeInvolution checks Tᵀᵀ ≡ T through the flag.
func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randStar(rng)
	tt := m.Transpose().Transpose()
	if la.MaxAbsDiff(tt.Dense(), m.Dense()) > 0 {
		t.Fatal("double transpose mismatch")
	}
	if la.MaxAbsDiff(m.Transpose().Dense(), m.Dense().TDense()) > 0 {
		t.Fatal("transpose materialization mismatch")
	}
}

func TestCompactDropsUnreferenced(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Build a PK-FK join where R rows 3 and 4 are never referenced.
	nS, nR := 20, 6
	assign := make([]int, nS)
	for i := range assign {
		assign[i] = rng.Intn(3) // only rows 0..2 referenced
	}
	assign[0] = 5 // and row 5
	s := randMat(rng, nS, 2)
	r := randMat(rng, nR, 3)
	m, err := NewPKFK(s, la.NewIndicator(assign, nR), r)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compact()
	if c.Rs()[0].Rows() != 4 {
		t.Fatalf("compacted R has %d rows, want 4", c.Rs()[0].Rows())
	}
	if la.MaxAbsDiff(c.Dense(), m.Dense()) > 0 {
		t.Fatal("Compact changed the logical matrix")
	}
	// Idempotent.
	c2 := c.Compact()
	if c2.Rs()[0].Rows() != 4 {
		t.Fatal("Compact not idempotent")
	}
}

func TestCompactMNEntitySide(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// M:N join where S row 7 never matches.
	is := la.NewIndicator([]int{0, 1, 2, 0, 1}, 8)
	ir := la.NewIndicator([]int{0, 0, 1, 1, 2}, 3)
	s := randMat(rng, 8, 2)
	r := randMat(rng, 3, 2)
	m, err := NewMN(s, is, ir, r)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compact()
	if c.S().Rows() != 3 {
		t.Fatalf("compacted S has %d rows, want 3", c.S().Rows())
	}
	if la.MaxAbsDiff(c.Dense(), m.Dense()) > 0 {
		t.Fatal("Compact changed the logical M:N matrix")
	}
}

// TestTMulMatchesTransposedLMM: the binary crossprod(T, X) = Tᵀ·X of the
// paper's footnote 5 is TMul, on a plain and on a transposed operand
// (crossprod(Tᵀ, X) = T·X).
func TestTMulMatchesTransposedLMM(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := randStar(rng)
	x := randDense(rng, m.Rows(), 3)
	got := m.TMul(x)
	want := la.TMatMul(m.Dense(), x)
	if la.MaxAbsDiff(got, want) > tol {
		t.Fatal("binary crossprod mismatch")
	}
	tm := m.Transpose()
	x2 := randDense(rng, tm.Rows(), 2)
	got2 := tm.TMul(x2)
	want2 := la.TMatMul(m.Dense().TDense(), x2)
	if la.MaxAbsDiff(got2, want2) > tol {
		t.Fatal("binary crossprod (transposed) mismatch")
	}
}
