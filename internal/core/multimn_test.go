package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// randMultiMN builds a multi-table M:N normalized matrix (appendix E): no
// entity table, q attribute tables each with its own row selector over a
// shared output cardinality.
func randMultiMN(rng *rand.Rand, q int) *NormalizedMatrix {
	n := 20 + rng.Intn(40) // |T'|
	irs := make([]*la.Indicator, q)
	rs := make([]la.Mat, q)
	for t := 0; t < q; t++ {
		nR := 3 + rng.Intn(6)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(nR)
		}
		irs[t] = la.NewIndicator(assign, nR)
		rs[t] = randMat(rng, nR, 1+rng.Intn(4))
	}
	m, err := NewMultiMN(irs, rs)
	if err != nil {
		panic(err)
	}
	return m
}

// TestMultiMNOperators runs the appendix E rewrite rules for multi-table
// M:N joins against materialized execution, both orientations.
func TestMultiMNOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 8; trial++ {
		for _, q := range []int{2, 3} {
			base := randMultiMN(rng, q)
			for _, m := range []*NormalizedMatrix{base, base.Transpose()} {
				md := m.Dense()
				if m.S() != nil {
					t.Fatal("multi-table M:N should have no entity table")
				}
				if la.MaxAbsDiff(m.Scale(2).Dense(), md.ScaleDense(2)) > tol {
					t.Fatal("multi M:N scale mismatch")
				}
				if la.MaxAbsDiff(m.RowSums(), md.RowSums()) > tol {
					t.Fatal("multi M:N rowSums mismatch")
				}
				if la.MaxAbsDiff(m.ColSums(), md.ColSums()) > tol {
					t.Fatal("multi M:N colSums mismatch")
				}
				if math.Abs(m.Sum()-md.Sum()) > 1e-8 {
					t.Fatal("multi M:N sum mismatch")
				}
				x := randDense(rng, m.Cols(), 2)
				if la.MaxAbsDiff(m.Mul(x), la.MatMul(md, x)) > tol {
					t.Fatal("multi M:N LMM mismatch")
				}
				xl := randDense(rng, 2, m.Rows())
				if la.MaxAbsDiff(m.LeftMul(xl), la.MatMul(xl, md)) > tol {
					t.Fatal("multi M:N RMM mismatch")
				}
				if la.MaxAbsDiff(m.CrossProd(), md.CrossProd()) > 1e-8 {
					t.Fatal("multi M:N crossprod mismatch")
				}
				if la.MaxAbsDiff(m.CrossProdNaive(), md.CrossProd()) > 1e-8 {
					t.Fatal("multi M:N naive crossprod mismatch")
				}
			}
		}
	}
}

// TestPKFKDegeneratesToIdentityMN: a PK-FK normalized matrix and the
// equivalent M:N matrix with IS = identity produce identical results for
// every operator (the appendix D remark).
func TestPKFKDegeneratesToIdentityMN(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	nS, nR := 30, 5
	s := randMat(rng, nS, 3)
	k := randIndicator(rng, nS, nR)
	r := randMat(rng, nR, 4)
	pkfk, err := NewPKFK(s, k, r)
	if err != nil {
		t.Fatal(err)
	}
	idAssign := make([]int, nS)
	for i := range idAssign {
		idAssign[i] = i
	}
	mn, err := NewMN(s.Scale(1).(la.Mat), la.NewIndicator(idAssign, nS), k, r.Scale(1).(la.Mat))
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(pkfk.Dense(), mn.Dense()) > 0 {
		t.Fatal("materialization differs")
	}
	x := randDense(rng, pkfk.Cols(), 2)
	if la.MaxAbsDiff(pkfk.Mul(x), mn.Mul(x)) > tol {
		t.Fatal("LMM differs")
	}
	if la.MaxAbsDiff(pkfk.CrossProd(), mn.CrossProd()) > 1e-9 {
		t.Fatal("crossprod differs")
	}
	if la.MaxAbsDiff(pkfk.RowSums(), mn.RowSums()) > tol {
		t.Fatal("rowSums differs")
	}
	if math.Abs(pkfk.Sum()-mn.Sum()) > 1e-9 {
		t.Fatal("sum differs")
	}
}

// TestGramTransposedCrossProd exercises the appendix A Gram-matrix rewrite
// crossprod(Tᵀ) = Σ Ii·cp(Riᵀ)·Iiᵀ directly at a size where the two-sided
// gather path matters.
func TestGramTransposedCrossProd(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := randMultiMN(rng, 2)
	got := m.Transpose().CrossProd()
	want := m.Dense().Gram()
	if la.MaxAbsDiff(got, want) > 1e-8 {
		t.Fatal("transposed crossprod (Gram) mismatch")
	}
}
