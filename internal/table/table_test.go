package table

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

const customersCSV = `CustomerID,Churn,Age,Income,EmployerID
c1,1,34,52000,e2
c2,-1,29,48000,e1
c3,1,41,71000,e2
c4,-1,55,66000,e3
c5,1,23,31000,e1
c6,-1,37,59000,e2
`

const employersCSV = `EmployerID,Revenue,Country
e1,12.5,US
e2,88.0,DE
e3,7.25,US
`

func customerKinds() map[string]ColumnKind {
	return map[string]ColumnKind{"CustomerID": Key, "EmployerID": Key}
}

func employerKinds() map[string]ColumnKind {
	return map[string]ColumnKind{"EmployerID": Key, "Country": Categorical}
}

func loadTables(t *testing.T) (*Table, *Table) {
	t.Helper()
	s, err := ReadCSV("Customers", strings.NewReader(customersCSV), customerKinds())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReadCSV("Employers", strings.NewReader(employersCSV), employerKinds())
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestReadCSV(t *testing.T) {
	s, r := loadTables(t)
	if s.NumRows() != 6 || r.NumRows() != 3 {
		t.Fatalf("rows %d/%d", s.NumRows(), r.NumRows())
	}
	age, err := s.Column("Age")
	if err != nil {
		t.Fatal(err)
	}
	if age.Kind != Numeric || age.Nums[2] != 41 {
		t.Fatal("Age column")
	}
	country, err := r.Column("Country")
	if err != nil {
		t.Fatal(err)
	}
	if got := country.Vocabulary(); len(got) != 2 || got[0] != "DE" || got[1] != "US" {
		t.Fatalf("vocabulary %v", got)
	}
	if _, err := s.Column("Nope"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s, _ := loadTables(t)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadCSV("Customers", &buf, customerKinds())
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumRows() != s.NumRows() {
		t.Fatal("round trip row count")
	}
	a1, _ := s.Column("Income")
	a2, _ := s2.Column("Income")
	for i := range a1.Nums {
		if a1.Nums[i] != a2.Nums[i] {
			t.Fatal("round trip values")
		}
	}
}

func TestBadCSV(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1\n"), nil); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("a\nnotanumber\n"), nil); err == nil {
		t.Fatal("unparseable numeric accepted")
	}
}

func employerRef(r *Table, pk string) AttributeRef {
	return AttributeRef{Table: r, PrimaryKey: pk, ForeignKey: "EmployerID"}
}

func TestKeyResolution(t *testing.T) {
	s, r := loadTables(t)
	assign, err := ResolveForeignKey(s, employerRef(r, "EmployerID"))
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 0, 1, 2, 0, 1} // e2,e1,e2,e3,e1,e2 in first-appearance order
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign %v", assign)
		}
	}
}

func TestKeyErrors(t *testing.T) {
	s, r := loadTables(t)
	// Duplicate primary key.
	dup, _ := ReadCSV("D", strings.NewReader("K,V\ne1,1\ne1,2\n"), map[string]ColumnKind{"K": Key})
	if _, err := ResolveForeignKey(s, employerRef(dup, "K")); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("duplicate PK: %v", err)
	}
	// Numeric key column rejected.
	if _, err := ResolveForeignKey(s, employerRef(r, "Revenue")); err == nil || !strings.Contains(err.Error(), "must not be numeric") {
		t.Fatalf("numeric PK: %v", err)
	}
	// Dangling foreign key.
	bad, _ := ReadCSV("B", strings.NewReader("EmployerID\ne9\n"), map[string]ColumnKind{"EmployerID": Key})
	if _, err := ResolveForeignKey(bad, employerRef(r, "EmployerID")); err == nil || !strings.Contains(err.Error(), "dangling foreign key") {
		t.Fatalf("dangling FK: %v", err)
	}
}

func TestEncoderOneHot(t *testing.T) {
	_, r := loadTables(t)
	enc, err := NewEncoder(r, []string{"Revenue", "Country"})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Width() != 3 {
		t.Fatalf("width %d", enc.Width())
	}
	if enc.Features[0] != "Revenue" || enc.Features[1] != "Country=DE" || enc.Features[2] != "Country=US" {
		t.Fatalf("features %v", enc.Features)
	}
	m := enc.Encode(r.NumRows())
	if _, ok := m.(*la.CSR); !ok {
		t.Fatal("one-hot encoding should be sparse")
	}
	// Row e2 (index 1): Revenue=88, DE=1, US=0.
	if m.At(1, 0) != 88 || m.At(1, 1) != 1 || m.At(1, 2) != 0 {
		t.Fatal("encoded values")
	}
}

func TestEncoderNumericOnlyDense(t *testing.T) {
	s, _ := loadTables(t)
	enc, err := NewEncoder(s, []string{"Age", "Income"})
	if err != nil {
		t.Fatal(err)
	}
	m := enc.Encode(s.NumRows())
	if _, ok := m.(*la.Dense); !ok {
		t.Fatal("numeric-only encoding should be dense")
	}
	if m.At(4, 0) != 23 || m.At(4, 1) != 31000 {
		t.Fatal("encoded values")
	}
}

func TestEncoderRejectsKeys(t *testing.T) {
	s, _ := loadTables(t)
	if _, err := NewEncoder(s, []string{"EmployerID"}); err == nil {
		t.Fatal("key column accepted as feature")
	}
	if _, err := NewEncoder(s, nil); err == nil {
		t.Fatal("empty feature list accepted")
	}
}

// TestBuildEndToEnd goes CSV → normalized matrix → factorized training and
// checks the result against the materialized path — the full adoption
// story in one test.
func TestBuildEndToEnd(t *testing.T) {
	s, r := loadTables(t)
	nm, y, features, err := Build(JoinSpec{
		Entity:         s,
		EntityFeatures: []string{"Age", "Income"},
		Target:         "Churn",
		Attributes: []AttributeRef{{
			Table:      r,
			PrimaryKey: "EmployerID",
			ForeignKey: "EmployerID",
			Features:   []string{"Revenue", "Country"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nm.Rows() != 6 || nm.Cols() != 5 {
		t.Fatalf("normalized matrix %dx%d", nm.Rows(), nm.Cols())
	}
	wantFeatures := []string{"Age", "Income", "Employers.Revenue", "Employers.Country=DE", "Employers.Country=US"}
	for i, f := range wantFeatures {
		if features[i] != f {
			t.Fatalf("features %v", features)
		}
	}
	if y.Rows() != 6 || y.At(0, 0) != 1 || y.At(1, 0) != -1 {
		t.Fatal("target")
	}
	// Spot-check the logical join: customer c1 works for e2 (Revenue 88, DE).
	if nm.At(0, 2) != 88 || nm.At(0, 3) != 1 || nm.At(0, 4) != 0 {
		t.Fatal("join semantics")
	}
	opt := ml.Options{Iters: 10, StepSize: 1e-9}
	wF, err := ml.LogisticRegressionGD(nm, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wM, err := ml.LogisticRegressionGD(nm.Dense(), y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wF, wM) > 1e-12 {
		t.Fatal("factorized vs materialized training differ")
	}
}

func TestBuildValidation(t *testing.T) {
	s, _ := loadTables(t)
	if _, _, _, err := Build(JoinSpec{}); err == nil {
		t.Fatal("nil entity accepted")
	}
	if _, _, _, err := Build(JoinSpec{Entity: s, EntityFeatures: []string{"Age"}, Target: "CustomerID"}); err == nil {
		t.Fatal("categorical target accepted")
	}
}
