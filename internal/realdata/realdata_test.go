package realdata

import (
	"testing"

	"repro/internal/la"
)

func TestSpecsMatchTable6(t *testing.T) {
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("%d datasets, want 7", len(specs))
	}
	// Spot-check the published Table 6 statistics.
	e := specs[0]
	if e.Name != "Expedia" || e.NS != 942142 || e.DS != 27 || len(e.Tables) != 2 {
		t.Fatalf("Expedia spec %+v", e)
	}
	if e.Tables[1].DR != 40242 {
		t.Fatal("Expedia R2 width")
	}
	f := specs[6]
	if f.Name != "Flights" || len(f.Tables) != 3 {
		t.Fatal("Flights should have q=3 attribute tables")
	}
	m := specs[1]
	if m.Name != "Movies" || m.DS != 0 {
		t.Fatal("Movies should have dS=0")
	}
}

func TestScaled(t *testing.T) {
	s := Specs()[3] // Walmart
	sc := s.Scaled(10)
	if sc.NS != s.NS/10 {
		t.Fatal("NS not scaled")
	}
	if sc.Tables[0].NR != s.Tables[0].NR/10 {
		t.Fatal("NR not scaled")
	}
	if s.Scaled(1).NS != s.NS {
		t.Fatal("scale 1 should be identity")
	}
}

func TestGenerateCloneInvariants(t *testing.T) {
	spec := Specs()[6] // Flights
	spec = spec.Scaled(20)
	d, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	nm := d.Norm
	if nm.Rows() != spec.NS {
		t.Fatalf("rows %d != %d", nm.Rows(), spec.NS)
	}
	wantCols := spec.DS
	for _, tb := range spec.Tables {
		wantCols += tb.DR
	}
	if nm.Cols() != wantCols {
		t.Fatalf("cols %d != %d", nm.Cols(), wantCols)
	}
	if nm.NumTables() != 3 {
		t.Fatal("q mismatch")
	}
	// Attribute tables must be sparse.
	for i, r := range nm.Rs() {
		if _, ok := r.(*la.CSR); !ok {
			t.Fatalf("R%d is not sparse", i+1)
		}
		if r.NNZ() == 0 {
			t.Fatalf("R%d empty", i+1)
		}
	}
	if d.Y.Rows() != spec.NS {
		t.Fatal("target rows")
	}
	// Materialized sparse view agrees with the factorized logical view on
	// a few entries.
	sp := nm.Sparse()
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ {
			if sp.At(i, j) != nm.At(i, j) {
				t.Fatal("sparse materialization mismatch")
			}
		}
	}
}

func TestGenerateDSZero(t *testing.T) {
	spec := Specs()[1] // Movies
	spec = spec.Scaled(100)
	d, err := Generate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Norm.S() != nil {
		t.Fatal("Movies clone should have no entity features")
	}
}

func TestBinaryY(t *testing.T) {
	spec := Specs()[5] // Books
	d, err := Generate(spec.Scaled(200), 3)
	if err != nil {
		t.Fatal(err)
	}
	y := d.BinaryY()
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
		t.Fatal("degenerate binarized labels")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Specs()[2] // Yelp
	spec = spec.Scaled(200)
	a, _ := Generate(spec, 5)
	b, _ := Generate(spec, 5)
	if a.Norm.NNZ() != b.Norm.NNZ() {
		t.Fatal("same seed produced different clones")
	}
	if la.MaxAbsDiff(a.Y, b.Y) != 0 {
		t.Fatal("targets not deterministic")
	}
}
