package core

import (
	"math/rand"
	"testing"

	"repro/internal/la"
)

func TestElemwiseNonFactorizable(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	m := randPKFK(rng)
	x := randDense(rng, m.Rows(), m.Cols())
	md := m.Dense()
	if la.MaxAbsDiff(m.AddElem(x), md.Add(x)) > 0 {
		t.Fatal("AddElem mismatch")
	}
	if la.MaxAbsDiff(m.SubElem(x), md.Sub(x)) > 0 {
		t.Fatal("SubElem mismatch")
	}
	if la.MaxAbsDiff(m.MulElem(x), md.MulElem(x)) > 0 {
		t.Fatal("MulElem mismatch")
	}
	if la.MaxAbsDiff(m.DivElem(x), md.DivElem(x)) > 0 {
		t.Fatal("DivElem mismatch")
	}
}

func TestAddNormStaysFactorized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := randStar(rng)
	// f(T) and g(T) share T's structure; their sum stays normalized.
	a := m.Scale(2).(*NormalizedMatrix)
	b := m.Scale(3).(*NormalizedMatrix)
	sum, err := a.AddNorm(b)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Dense().ScaleDense(5)
	if la.MaxAbsDiff(sum.Dense(), want) > tol {
		t.Fatal("AddNorm values mismatch")
	}
	// And the result is still a normalized matrix usable by rewrites.
	if la.MaxAbsDiff(sum.RowSums(), want.RowSums()) > 1e-8 {
		t.Fatal("AddNorm result lost factorized semantics")
	}
}

func TestAddNormRejectsDifferentStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := randPKFK(rng)
	b := randPKFK(rng)
	if a.SameStructure(b) {
		t.Skip("random matrices coincidentally structural twins")
	}
	if _, err := a.AddNorm(b); err == nil {
		t.Fatal("AddNorm accepted mismatched structure")
	}
}

func TestSameStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := randPKFK(rng)
	if !m.SameStructure(m.Scale(2).(*NormalizedMatrix)) {
		t.Fatal("scaled copy should share structure")
	}
	if m.SameStructure(m.Transpose()) {
		t.Fatal("transpose must not share structure")
	}
}
