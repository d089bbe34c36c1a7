package la_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// TestRowSquaredNormsBitwise: la.RowSquaredNorms — four dense rows at a
// time, CSR rows over their stored values, a normalized T as S's norms
// plus the arms' gathered through the keys — equals Pow(2).RowSums() bit
// for bit (a NaN matches any NaN), with ±0 cells everywhere and NaN and ±Inf
// in the first column, for every row count's remainder after the four-row
// strips.
func TestRowSquaredNormsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	fill := func(rows, cols int) *la.Dense {
		m := la.NewDense(rows, cols)
		for i := range m.Data() {
			switch v := rng.NormFloat64(); {
			case rng.Intn(20) == 0 && i%max(cols, 1) == 0:
				m.Data()[i] = special[rng.Intn(len(special))]
			case rng.Intn(5) == 0:
				m.Data()[i] = math.Copysign(0, v)
			default:
				m.Data()[i] = v
			}
		}
		return m
	}
	keys := func(n, nR int) *la.Indicator {
		k := make([]int32, n)
		for i := range k {
			k[i] = int32(rng.Intn(nR))
		}
		return la.NewIndicatorInt32(k, nR)
	}
	check := func(what string, m la.Matrix) {
		t.Helper()
		got, want := la.RowSquaredNorms(m), m.Pow(2).RowSums().Data()
		if len(got) != len(want) {
			t.Fatalf("%s: %d norms, want %d", what, len(got), len(want))
		}
		for i, g := range got {
			if math.Float64bits(g) != math.Float64bits(want[i]) && !(math.IsNaN(g) && math.IsNaN(want[i])) {
				t.Fatalf("%s: row %d norm %v, Pow(2).RowSums() %v", what, i, g, want[i])
			}
		}
	}
	for _, rows := range []int{0, 1, 2, 3, 5, 7, 130, 4099} { // the last splits across cores
		for _, d := range []int{0, 1, 3, 10} {
			m := fill(rows, d)
			check("dense", m)
			check("csr", la.CSRFromDense(m))
			if rows == 0 {
				continue
			}
			nR := 1 + rows/4
			pkfk, err := core.NewPKFK(m, keys(rows, nR), fill(nR, 4))
			if err != nil {
				t.Fatal(err)
			}
			check("PK-FK", pkfk)
			star, err := core.NewStar(la.CSRFromDense(m), []*la.Indicator{keys(rows, nR), keys(rows, 3)}, []la.Mat{fill(nR, 2), la.CSRFromDense(fill(3, 5))})
			if err != nil {
				t.Fatal(err)
			}
			check("star", star)
			mn, err := core.NewMN(fill(nR, d), keys(rows, nR), keys(rows, 4), fill(4, 3))
			if err != nil {
				t.Fatal(err)
			}
			check("M:N", mn)
		}
	}
}
