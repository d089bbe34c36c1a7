package datagen

import (
	"math"
	"testing"

	"repro/internal/la"
)

func TestPKFKDimensions(t *testing.T) {
	spec := PKFKSpec{NS: 200, DS: 4, NR: 20, DR: 8, Seed: 1}
	m, err := PKFK(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 200 || m.Cols() != 12 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if spec.TupleRatio() != 10 || spec.FeatureRatio() != 2 {
		t.Fatal("ratio helpers")
	}
	// Every R tuple referenced (no Compact needed).
	counts := m.Ks()[0].ColCounts()
	for j, c := range counts {
		if c == 0 {
			t.Fatalf("R tuple %d unreferenced", j)
		}
	}
}

func TestPKFKDeterministic(t *testing.T) {
	spec := PKFKSpec{NS: 50, DS: 2, NR: 5, DR: 3, Seed: 7}
	a, _ := PKFK(spec)
	b, _ := PKFK(spec)
	if la.MaxAbsDiff(a.Dense(), b.Dense()) != 0 {
		t.Fatal("same seed produced different data")
	}
	spec.Seed = 8
	c, _ := PKFK(spec)
	if la.MaxAbsDiff(a.Dense(), c.Dense()) == 0 {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPKFKNoEntityFeatures(t *testing.T) {
	m, err := PKFK(PKFKSpec{NS: 30, DS: 0, NR: 5, DR: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.S() != nil || m.Cols() != 4 {
		t.Fatal("dS=0 handling")
	}
}

func TestPKFKInvalidSpec(t *testing.T) {
	if _, err := PKFK(PKFKSpec{NS: 0, DS: 1, NR: 1, DR: 1}); err == nil {
		t.Fatal("accepted nS=0")
	}
}

func TestStarDimensions(t *testing.T) {
	m, err := Star(StarSpec{NS: 100, DS: 3, NR: []int{10, 20}, DR: []int{4, 5}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTables() != 2 || m.Cols() != 12 || m.Rows() != 100 {
		t.Fatalf("star dims %dx%d q=%d", m.Rows(), m.Cols(), m.NumTables())
	}
}

func TestStarInvalidSpec(t *testing.T) {
	if _, err := Star(StarSpec{NS: 10, DS: 1, NR: []int{5}, DR: []int{1, 2}}); err == nil {
		t.Fatal("accepted mismatched NR/DR")
	}
}

func TestMNJoinSemantics(t *testing.T) {
	spec := MNSpec{NS: 40, NR: 40, DS: 3, DR: 3, NU: 10, Seed: 3}
	m, err := MN(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Output rows = number of matching (s,r) pairs; with nU=10 and 40+40
	// uniform tuples, expect roughly nS·nR/nU = 160 rows, definitely > nS.
	if m.Rows() <= spec.NS/2 {
		t.Fatalf("suspiciously few join rows: %d", m.Rows())
	}
	if m.Cols() != 6 {
		t.Fatalf("cols %d", m.Cols())
	}
	// IS/IR indicator invariant: same number of rows.
	if m.IS().Rows() != m.Ks()[0].Rows() {
		t.Fatal("IS/IR row mismatch")
	}
	// Expected output cardinality: nnz(T') = Σ_u cntS(u)·cntR(u).
	// Verify via the indicators against a direct recount.
	if m.IS().NNZ() != m.Rows() || m.Ks()[0].NNZ() != m.Rows() {
		t.Fatal("indicator nnz != |T'|")
	}
}

func TestMNCartesianProduct(t *testing.T) {
	// nU = 1 degenerates to the full cartesian product.
	m, err := MN(MNSpec{NS: 7, NR: 5, DS: 2, DR: 2, NU: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 35 {
		t.Fatalf("cartesian product has %d rows, want 35", m.Rows())
	}
}

func TestLabels(t *testing.T) {
	m, _ := PKFK(PKFKSpec{NS: 60, DS: 2, NR: 6, DR: 2, Seed: 6})
	y := Labels(m, 0, true, 9)
	if y.Rows() != 60 || y.Cols() != 1 {
		t.Fatal("label dims")
	}
	pos, neg := 0, 0
	for _, v := range y.Data() {
		switch v {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("non-binary label %v", v)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("degenerate labels")
	}
	// Continuous labels are reproducible and real-valued.
	y2 := Labels(m, 0.1, false, 9)
	y3 := Labels(m, 0.1, false, 9)
	if la.MaxAbsDiff(y2, y3) != 0 {
		t.Fatal("labels not deterministic")
	}
	anyNonInteger := false
	for _, v := range y2.Data() {
		if v != math.Trunc(v) {
			anyNonInteger = true
		}
	}
	if !anyNonInteger {
		t.Fatal("continuous labels look binarized")
	}
}
