package la

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Dense materializes the indicator.
func (k *Indicator) Dense() *Dense {
	out := NewDense(len(k.rows), k.nCols)
	for i, c := range k.rows {
		out.data[i*k.nCols+int(c)] = 1
	}
	return out
}

func randIndicator(rng *rand.Rand, rows, cols int) *Indicator {
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = rng.Intn(cols)
	}
	return NewIndicator(assign, cols)
}

func TestIndicatorDense(t *testing.T) {
	k := NewIndicator([]int{0, 1, 1, 0, 1}, 2)
	d := k.Dense()
	want := DenseFromRows([][]float64{{1, 0}, {0, 1}, {0, 1}, {1, 0}, {0, 1}})
	if MaxAbsDiff(d, want) > 0 {
		t.Fatal("indicator Dense mismatch")
	}
}

func TestIndicatorOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewIndicator([]int{0, 3}, 2)
}

func TestIndicatorMulIsGather(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	k := randIndicator(rng, 20, 6)
	z := randDense(rng, 6, 4)
	got := k.Mul(z)
	want := MatMul(k.Dense(), z)
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("indicator Mul mismatch")
	}
}

func TestIndicatorTMulIsScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	k := randIndicator(rng, 20, 6)
	z := randDense(rng, 20, 3)
	got := k.TMul(z)
	want := TMatMul(k.Dense(), z)
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("indicator TMul mismatch")
	}
}

func TestIndicatorLeftMul(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	k := randIndicator(rng, 15, 5)
	x := randDense(rng, 4, 15)
	got := k.LeftMul(x)
	want := MatMul(x, k.Dense())
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("indicator LeftMul mismatch")
	}
}

func TestIndicatorColCounts(t *testing.T) {
	k := NewIndicator([]int{0, 1, 1, 0, 1, 1}, 3)
	c := k.ColCounts()
	if c[0] != 2 || c[1] != 4 || c[2] != 0 {
		t.Fatalf("ColCounts: %v", c)
	}
	// colSums(K) == ColCounts (the KᵀK = diag identity in Algorithm 2).
	cs := TMatMul(k.Dense(), Ones(6, 1))
	for j := 0; j < 3; j++ {
		if cs.At(j, 0) != c[j] {
			t.Fatal("ColCounts != colSums")
		}
	}
}

func TestIdentityIndicator(t *testing.T) {
	id := IdentityIndicator(4)
	if MaxAbsDiff(id.Dense(), Eye(4)) > 0 {
		t.Fatal("IdentityIndicator != Eye")
	}
}

// TMulIndicator must match the dense KᵀJ product, and its nnz must respect
// the appendix C bounds: max(colsK, colsJ) ≤ nnz ≤ rows (theorems C.1/C.2
// assume every column is referenced, which randIndicator may violate for
// K columns — so only the upper bound and value equality are universal).
func TestTMulIndicatorMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 5 + r.Intn(40)
		ck, cj := 1+r.Intn(6), 1+r.Intn(6)
		k := randIndicator(r, rows, ck)
		j := randIndicator(r, rows, cj)
		got := k.TMulIndicator(j)
		want := TMatMul(k.Dense(), j.Dense())
		if MaxAbsDiff(got.Dense(), want) > 1e-12 {
			return false
		}
		return got.NNZ() <= rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// When every column of both indicators is referenced, theorem C.1's lower
// bound holds: nnz(KᵀJ) ≥ max(nCols(K), nCols(J)).
func TestTMulIndicatorLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		rows := 30
		ck, cj := 2+rng.Intn(4), 2+rng.Intn(4)
		assignK := make([]int, rows)
		assignJ := make([]int, rows)
		for i := 0; i < rows; i++ {
			// Guarantee coverage of all columns first.
			if i < ck {
				assignK[i] = i
			} else {
				assignK[i] = rng.Intn(ck)
			}
			if i < cj {
				assignJ[i] = i
			} else {
				assignJ[i] = rng.Intn(cj)
			}
		}
		k := NewIndicator(assignK, ck)
		j := NewIndicator(assignJ, cj)
		p := k.TMulIndicator(j)
		lb := ck
		if cj > lb {
			lb = cj
		}
		if p.NNZ() < lb {
			t.Fatalf("nnz(KᵀJ)=%d below lower bound %d", p.NNZ(), lb)
		}
	}
}

func TestIndicatorGatherMat(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	k := randIndicator(rng, 12, 4)
	rd := randDense(rng, 4, 5)
	rc := CSRFromDense(rd)
	gd := k.GatherMat(rd)
	gc := k.GatherMat(rc)
	want := MatMul(k.Dense(), rd)
	if MaxAbsDiff(gd.Dense(), want) > 1e-12 {
		t.Fatal("GatherMat dense mismatch")
	}
	if MaxAbsDiff(gc.Dense(), want) > 1e-12 {
		t.Fatal("GatherMat sparse mismatch")
	}
	if _, ok := gc.(*CSR); !ok {
		t.Fatal("GatherMat should preserve sparsity")
	}
}

func TestIndicatorPermute(t *testing.T) {
	k := NewIndicator([]int{2, 0, 2}, 3)
	// Column 1 unused: compact to 2 columns with perm {0→0, 2→1}.
	perm := []int32{0, -1, 1}
	p := k.Permute(perm, 2)
	if p.Cols() != 2 || p.ColOf(0) != 1 || p.ColOf(1) != 0 {
		t.Fatal("Permute mismatch")
	}
}
