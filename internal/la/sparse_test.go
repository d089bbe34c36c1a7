package la

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// randCSR builds a random sparse matrix with the given fill fraction and a
// matching dense copy.
func randCSR(rng *rand.Rand, rows, cols int, fill float64) (*CSR, *Dense) {
	d := NewDense(rows, cols)
	b := NewCSRBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < fill {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				b.Add(i, j, v)
			}
		}
	}
	return b.Build(), d
}

func TestCSRBuilderDuplicatesSummed(t *testing.T) {
	b := NewCSRBuilder(2, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 0, -1)
	c := b.Build()
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", c.NNZ())
	}
	if c.At(0, 1) != 5 || c.At(1, 0) != -1 {
		t.Fatalf("values: %v %v", c.At(0, 1), c.At(1, 0))
	}
}

func TestCSRBuilderDropsZeros(t *testing.T) {
	b := NewCSRBuilder(1, 2)
	b.Add(0, 0, 0)
	b.Add(0, 1, 1)
	b.Add(0, 1, -1)
	c := b.Build()
	if c.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0 (cancellation)", c.NNZ())
	}
}

// TestCSRBuilderMatchesSortedTriplets holds Build to what it replaced: the
// triplets sorted by (row, column), duplicates summed, zero sums dropped.
func TestCSRBuilderMatchesSortedTriplets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		type trip struct {
			i, j int
			v    float64
		}
		ts := make([]trip, rng.Intn(4*rows*cols))
		b := NewCSRBuilder(rows, cols)
		for k := range ts {
			// Few distinct values, so that duplicates often cancel.
			ts[k] = trip{rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(5) - 2)}
			if rng.Intn(4) == 0 {
				ts[k].v = rng.NormFloat64()
			}
			b.Add(ts[k].i, ts[k].j, ts[k].v)
		}
		sort.SliceStable(ts, func(a, c int) bool {
			if ts[a].i != ts[c].i {
				return ts[a].i < ts[c].i
			}
			return ts[a].j < ts[c].j
		})
		indptr, indices, vals := make([]int, rows+1), []int32{}, []float64{}
		for k := 0; k < len(ts); {
			i, j, v := ts[k].i, ts[k].j, 0.0
			for ; k < len(ts) && ts[k].i == i && ts[k].j == j; k++ {
				v += ts[k].v
			}
			if v != 0 {
				indices, vals = append(indices, int32(j)), append(vals, v)
				indptr[i+1]++
			}
		}
		for i := 0; i < rows; i++ {
			indptr[i+1] += indptr[i]
		}
		got := b.Build()
		if !reflect.DeepEqual(got.indptr, indptr) || !reflect.DeepEqual(got.indices, indices) || !reflect.DeepEqual(got.vals, vals) {
			t.Fatalf("trial %d: Build gave\n%v %v %v, sorted triplets give\n%v %v %v", trial, got.indptr, got.indices, got.vals, indptr, indices, vals)
		}
		NewCSR(rows, cols, got.indptr, got.indices, got.vals) // panics unless the arrays are well-formed
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c, d := randCSR(rng, 13, 9, 0.3)
	if MaxAbsDiff(c.Dense(), d) > 0 {
		t.Fatal("Dense() round trip mismatch")
	}
	c2 := CSRFromDense(d)
	if MaxAbsDiff(c2.Dense(), d) > 0 {
		t.Fatal("CSRFromDense round trip mismatch")
	}
	if c2.NNZ() != c.NNZ() {
		t.Fatalf("NNZ mismatch %d != %d", c2.NNZ(), c.NNZ())
	}
}

func TestCSRAt(t *testing.T) {
	b := NewCSRBuilder(2, 5)
	b.Add(0, 3, 7)
	b.Add(1, 0, 2)
	b.Add(1, 4, 9)
	c := b.Build()
	if c.At(0, 3) != 7 || c.At(0, 0) != 0 || c.At(1, 4) != 9 {
		t.Fatal("At mismatch")
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, d := randCSR(rng, 17, 8, 0.25)
	if MaxAbsDiff(c.TCSR().Dense(), d.TDense()) > 0 {
		t.Fatal("TCSR mismatch")
	}
}

func TestCSRMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, d := randCSR(rng, 20, 15, 0.2)
	x := randDense(rng, 15, 6)
	if MaxAbsDiff(c.Mul(x), MatMul(d, x)) > 1e-10 {
		t.Fatal("CSR Mul mismatch")
	}
}

func TestCSRTMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c, d := randCSR(rng, 20, 15, 0.2)
	x := randDense(rng, 20, 4)
	if MaxAbsDiff(c.TMul(x), TMatMul(d, x)) > 1e-10 {
		t.Fatal("CSR TMul mismatch")
	}
}

func TestCSRLeftMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c, d := randCSR(rng, 12, 18, 0.2)
	x := randDense(rng, 5, 12)
	if MaxAbsDiff(c.LeftMul(x), MatMul(x, d)) > 1e-10 {
		t.Fatal("CSR LeftMul mismatch")
	}
}

func TestCSRCrossProdMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c, d := randCSR(rng, 40, 9, 0.3)
	if MaxAbsDiff(c.CrossProd(), d.CrossProd()) > 1e-10 {
		t.Fatal("CSR CrossProd mismatch")
	}
}

func TestCSRGramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c, d := randCSR(rng, 9, 14, 0.3)
	if MaxAbsDiff(c.Gram(), d.Gram()) > 1e-10 {
		t.Fatal("CSR Gram mismatch")
	}
}

func TestCSRAggregations(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	c, d := randCSR(rng, 15, 7, 0.4)
	if MaxAbsDiff(c.RowSums(), d.RowSums()) > 1e-12 {
		t.Fatal("RowSums mismatch")
	}
	if MaxAbsDiff(c.ColSums(), d.ColSums()) > 1e-12 {
		t.Fatal("ColSums mismatch")
	}
	if math.Abs(c.Sum()-d.Sum()) > 1e-12 {
		t.Fatal("Sum mismatch")
	}
}

func TestCSRElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c, d := randCSR(rng, 10, 10, 0.3)
	if MaxAbsDiff(c.Scale(2.5).Dense(), d.ScaleDense(2.5)) > 1e-12 {
		t.Fatal("Scale mismatch")
	}
	if MaxAbsDiff(c.Pow(2).Dense(), d.PowDense(2)) > 1e-12 {
		t.Fatal("Pow mismatch")
	}
	// AddScalar densifies.
	add := c.AddScalar(3)
	if _, ok := add.(*Dense); !ok {
		t.Fatal("AddScalar(3) should densify")
	}
	if MaxAbsDiff(add.Dense(), d.AddScalarDense(3)) > 1e-12 {
		t.Fatal("AddScalar mismatch")
	}
	// Apply with f(0)==0 stays sparse; with f(0)!=0 densifies.
	sq := c.Apply(func(v float64) float64 { return v * v })
	if _, ok := sq.(*CSR); !ok {
		t.Fatal("zero-preserving Apply should stay sparse")
	}
	ex := c.Apply(math.Exp)
	if _, ok := ex.(*Dense); !ok {
		t.Fatal("exp Apply should densify")
	}
	if MaxAbsDiff(ex.Dense(), d.ApplyDense(math.Exp)) > 1e-12 {
		t.Fatal("exp Apply values mismatch")
	}
}

func TestCSRScaleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c, d := randCSR(rng, 6, 4, 0.5)
	v := []float64{1, 2, 0, -1, 0.5, 3}
	if MaxAbsDiff(c.ScaleRows(v).Dense(), d.ScaleRowsDense(v)) > 1e-12 {
		t.Fatal("ScaleRows mismatch")
	}
}

func TestCSRSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c, d := randCSR(rng, 9, 7, 0.4)
	if MaxAbsDiff(c.SliceRows(2, 6).Dense(), d.SliceRowsDense(2, 6)) > 0 {
		t.Fatal("SliceRows mismatch")
	}
}

func TestCSRGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c, d := randCSR(rng, 5, 6, 0.5)
	assign := []int32{4, 0, 0, 2, 1, 4, 3}
	got := c.GatherRows(assign)
	want := NewDense(len(assign), 6)
	for i, r := range assign {
		copy(want.Row(i), d.Row(int(r)))
	}
	if MaxAbsDiff(got.Dense(), want) > 0 {
		t.Fatal("GatherRows mismatch")
	}
}

func TestHCatCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, da := randCSR(rng, 8, 3, 0.5)
	b, db := randCSR(rng, 8, 5, 0.5)
	got := JoinCSR([]*Indicator{nil, nil}, []Mat{a, b})
	if MaxAbsDiff(got.Dense(), HCat(da, db)) > 0 {
		t.Fatal("JoinCSR side-by-side mismatch")
	}
	if got.NNZ() != a.NNZ()+b.NNZ() {
		t.Fatal("JoinCSR NNZ mismatch")
	}
}

// Property: CSR ops agree with dense ops on random matrices.
func TestCSRPropertyAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(15), 1+r.Intn(15)
		c, d := randCSR(r, rows, cols, 0.3)
		x := randDense(r, cols, 1+r.Intn(4))
		if MaxAbsDiff(c.Mul(x), MatMul(d, x)) > 1e-10 {
			return false
		}
		if MaxAbsDiff(c.CrossProd(), d.CrossProd()) > 1e-10 {
			return false
		}
		return math.Abs(c.Sum()-d.Sum()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMatrixInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c, d := randCSR(rng, 10, 6, 0.4)
	var m Matrix = c
	if MaxAbsDiff(m.T().Dense(), d.TDense()) > 0 {
		t.Fatal("Matrix.T mismatch")
	}
	if MaxAbsDiff(m.Scale(2).Dense(), d.ScaleDense(2)) > 1e-12 {
		t.Fatal("Matrix.Scale mismatch")
	}
	if math.Abs(m.Sum()-d.Sum()) > 1e-12 {
		t.Fatal("Matrix.Sum mismatch")
	}
}
