package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// refTable is what refReadCSV produces: the row-of-strings ingest this
// package had before the columnar reader, kept as the reference.
type refTable struct {
	names []string
	kinds []ColumnKind
	nums  [][]float64
	cats  [][]string
}

// refReadCSV reads with encoding/csv, one record and one string per cell
// at a time, under the same header rules as ReadCSV.
func refReadCSV(data []byte, kinds map[string]ColumnKind) (*refTable, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	t := &refTable{nums: make([][]float64, len(header)), cats: make([][]string, len(header))}
	seen := map[string]bool{}
	for _, h := range header {
		h = strings.TrimSpace(h)
		if seen[h] {
			return nil, fmt.Errorf("duplicate column %q", h)
		}
		seen[h] = true
		t.names = append(t.names, h)
		t.kinds = append(t.kinds, kinds[h])
	}
	for k := range kinds {
		if !seen[k] {
			return nil, fmt.Errorf("unknown column %q", k)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		for i, cell := range rec {
			cell = strings.TrimSpace(cell)
			if t.kinds[i] != Numeric {
				t.cats[i] = append(t.cats[i], cell)
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, err
			}
			t.nums[i] = append(t.nums[i], v)
		}
	}
}

// sameAsRef reports how t differs from the reference table, or "".
func sameAsRef(t *Table, ref *refTable) string {
	if len(t.Cols) != len(ref.names) {
		return fmt.Sprintf("%d columns, want %d", len(t.Cols), len(ref.names))
	}
	for i, c := range t.Cols {
		if c.Name != ref.names[i] || c.Kind != ref.kinds[i] {
			return fmt.Sprintf("column %d is %q (%s), want %q (%s)", i, c.Name, c.Kind, ref.names[i], ref.kinds[i])
		}
		if want := len(ref.nums[i]) + len(ref.cats[i]); len(c.Nums)+len(c.Codes) != want || t.NumRows() != want {
			return fmt.Sprintf("column %q has %d rows of %d, want %d", c.Name, len(c.Nums)+len(c.Codes), t.NumRows(), want)
		}
		for r, v := range ref.nums[i] {
			if math.Float64bits(c.Nums[r]) != math.Float64bits(v) {
				return fmt.Sprintf("%s row %d = %v, want %v", c.Name, r, c.Nums[r], v)
			}
		}
		next := 0 // the dictionary is in first-appearance order
		for r, v := range ref.cats[i] {
			code := int(c.Codes[r])
			if code > next || code == next && len(c.Dict) == next || c.Dict[code] != v {
				return fmt.Sprintf("%s row %d has code %d of %q, want %q", c.Name, r, code, c.Dict, v)
			}
			if code == next {
				next++
			}
		}
		if next != len(c.Dict) {
			return fmt.Sprintf("%s has dictionary %q but uses %d values", c.Name, c.Dict, next)
		}
	}
	return ""
}

// FuzzReadCSV holds the columnar reader to the encoding/csv reference: the
// same table for one segment and for several, or an error from both.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		customersCSV, employersCSV,
		"k,v\n\"a,b\",1\n\"line\nbreak\",2\n\"say \"\"hi\"\"\",3\n",
		"k,v\r\na,1\r\nb,2\r\n", "k,v\n\"a\r\nb\",1\r\n", "k,v\n\n\na,1\n\nb,2", "k,v\r\n\r\na,1\r", "\n\nk,v\na,1",
		"k,v\na\n", "k,v\na,1,2\n", "k,v\na,1\nb\n", "k,v\na\"b,1\n", "k,v\n\"a\"b,1\n", "k,v\n\"a,1\n", "k,v\n a , 1 \n\"\",2\n",
		"k,v\na,NaN\nb,+Inf\nc,-inf\nd,1e400\ne,0x1p-2\nf,1_0\n", "k,v\na,\n", "k,v\na,1,\n", "k,v\n,\n", "k,v\na,1\n,", "k,k\na,1\n", "", "\"k\nk\",v\na,1\n",
		"k,v\n\"a\"\r\n\"b\"\r", "k,v\n\"a\"\rx,1\n", "k,v\n\r\r\n",
	} {
		f.Add([]byte(seed), uint16(1), false)
		f.Add([]byte(seed), uint16(6), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, kindBits uint16, typo bool) {
		// Column i is Numeric, Categorical or Key by two bits of kindBits.
		kinds := map[string]ColumnKind{}
		if header, err := csv.NewReader(bytes.NewReader(data)).Read(); err == nil {
			for i, h := range header {
				if k := ColumnKind(kindBits >> (2 * (i % 8)) % 3); k != Numeric {
					kinds[strings.TrimSpace(h)] = k
				}
			}
		}
		if typo {
			kinds["no such column"] = Key
		}
		ref, refErr := refReadCSV(data, kinds)
		for _, workers := range []int{1, 3} {
			got, err := parseCSV("T", bytes.Clone(data), kinds, workers)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("%d workers: error %v, reference error %v", workers, err, refErr)
			}
			if err != nil {
				continue
			}
			if diff := sameAsRef(got, ref); diff != "" {
				t.Fatalf("%d workers: %s", workers, diff)
			}
		}
	})
}

// plainDecimal is the grammar parseDecimal takes, digit count aside.
var plainDecimal = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$`)

// FuzzParseDecimal holds the plain-decimal fast path to strconv.ParseFloat
// bit for bit on every cell it accepts, and requires it to accept every
// plain decimal of at most 15 digits.
func FuzzParseDecimal(f *testing.F) {
	for _, seed := range []string{
		"-0", "0.0000", ".5", "5.", "+.5", "-.5", "0", "12.25", "-3.1400",
		"123456789012345", "1234567890.12345", "1234567890123456", "0.1234567890123456",
		"999999999999999", "9007199254740993", "1e5", "1.2.3", "-", "+", ".", "", "--1", "1_0", " 1", "0x1p-2", "NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseDecimal([]byte(s))
		digits := 0
		for _, c := range s {
			if '0' <= c && c <= '9' {
				digits++
			}
		}
		if plainDecimal.MatchString(s) && digits <= 15 && !ok {
			t.Fatalf("parseDecimal(%q) refused a plain decimal of at most 15 digits", s)
		}
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parseDecimal(%q) = %v, ParseFloat fails: %v", s, got, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseDecimal(%q) = %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

func TestReadCSVHeaderValidation(t *testing.T) {
	_, err := ReadCSV("Customers", strings.NewReader(customersCSV), map[string]ColumnKind{"CustomerId": Key})
	if err == nil || err.Error() != `table: Customers has no column "CustomerId" (declared key)` {
		t.Fatalf("kinds typo: %v", err)
	}
	_, err = ReadCSV("D", strings.NewReader("a,b, a\n1,2,3\n"), nil)
	if err == nil || err.Error() != `table: D has two columns named "a"` {
		t.Fatalf("duplicate header: %v", err)
	}
}

func TestEncoderRejectsRepeatedColumn(t *testing.T) {
	_, r := loadTables(t)
	for _, cols := range [][]string{{"Revenue", "Revenue"}, {"Country", "Revenue", "Country"}} {
		if _, err := NewEncoder(r, cols); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Fatalf("%v: %v", cols, err)
		}
	}
}

// renderStar renders an Orders → Customers, Carriers star in the shape of
// the e2e-csv benchmark workload: shuffled foreign keys that cover every
// attribute row, two numeric features per table, categorical columns of
// 500, 50 and 40 levels.
func renderStar(seed int64, orders, customers, carriers int) (ord, cus, car []byte) {
	rng := rand.New(rand.NewSource(seed))
	var o, c, k bytes.Buffer
	k.WriteString("CarrierID,Capacity,Rating,Mode\n")
	for i := 0; i < carriers; i++ {
		fmt.Fprintf(&k, "k%d,%.4f,%.4f,m%d\n", i, rng.NormFloat64(), rng.NormFloat64(), rng.Intn(40))
	}
	c.WriteString("CustomerID,Age,Income,City,Segment\n")
	for i := 0; i < customers; i++ {
		fmt.Fprintf(&c, "c%d,%.4f,%.4f,city%d,seg%d\n", i, rng.NormFloat64(), rng.NormFloat64(), rng.Intn(500), rng.Intn(50))
	}
	fks := func(domain int) []int {
		fk := make([]int, orders)
		for i := range fk {
			if fk[i] = i; i >= domain {
				fk[i] = rng.Intn(domain)
			}
		}
		rng.Shuffle(orders, func(i, j int) { fk[i], fk[j] = fk[j], fk[i] })
		return fk
	}
	cusFK, carFK := fks(customers), fks(carriers)
	o.WriteString("Late,Qty,Weight,CustomerID,CarrierID\n")
	for i := 0; i < orders; i++ {
		fmt.Fprintf(&o, "%d,%.4f,%.4f,c%d,k%d\n", 2*rng.Intn(2)-1, rng.NormFloat64(), rng.NormFloat64(), cusFK[i], carFK[i])
	}
	return o.Bytes(), c.Bytes(), k.Bytes()
}

// ingestStar is the ingest half of the e2e-csv flow: three ReadCSV calls
// and Build.
func ingestStar(ord, cus, car []byte) ([]*Table, *core.NormalizedMatrix, *la.Dense, []string, error) {
	var tabs []*Table
	for _, in := range []struct {
		name  string
		data  []byte
		kinds map[string]ColumnKind
	}{
		{"Orders", ord, map[string]ColumnKind{"CustomerID": Key, "CarrierID": Key}},
		{"Customers", cus, map[string]ColumnKind{"CustomerID": Key, "City": Categorical, "Segment": Categorical}},
		{"Carriers", car, map[string]ColumnKind{"CarrierID": Key, "Mode": Categorical}},
	} {
		t, err := ReadCSV(in.name, bytes.NewReader(in.data), in.kinds)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		tabs = append(tabs, t)
	}
	nm, y, features, err := Build(JoinSpec{
		Entity: tabs[0], EntityFeatures: []string{"Qty", "Weight"}, Target: "Late",
		Attributes: []AttributeRef{
			{Table: tabs[1], PrimaryKey: "CustomerID", ForeignKey: "CustomerID", Features: []string{"Age", "Income", "City", "Segment"}},
			{Table: tabs[2], PrimaryKey: "CarrierID", ForeignKey: "CarrierID", Features: []string{"Capacity", "Rating", "Mode"}},
		},
	})
	return tabs, nm, y, features, err
}

// atWidths runs f at GOMAXPROCS 1, 2 and 7.
func atWidths(t *testing.T, f func(width int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(width)
		f(width)
	}
}

// TestWidthDeterminismIngest: the tables, the normalized matrix and the
// first error do not depend on how many segments the input was cut into.
func TestWidthDeterminismIngest(t *testing.T) {
	ord, cus, car := renderStar(3, 30000, 10000, 50)
	if len(cus) < 3*minSegment {
		t.Fatalf("input of %d bytes does not split", len(cus))
	}
	// Blank lines and a multi-line cell make the segments' row bounds loose.
	ord = bytes.Replace(ord, []byte(",k7\n"), []byte(",\"k7\"\r\n\n"), 40)
	cus = bytes.Replace(cus, []byte(",city3,"), []byte(",\"city\n3\","), 15)
	var want string
	atWidths(t, func(width int) {
		tabs, nm, y, features, err := ingestStar(ord, cus, car)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		for _, tab := range tabs {
			for _, c := range tab.Cols {
				fmt.Fprintln(&got, tab.Name, c.Name, c.Dict, c.Codes)
			}
		}
		fmt.Fprintln(&got, features)
		for _, m := range append([]la.Mat{nm.S(), y}, nm.Rs()...) {
			writeMat(t, &got, m)
		}
		for _, k := range nm.Ks() {
			fmt.Fprintln(&got, k.Assignments())
		}
		if want == "" {
			want = got.String()
		} else if got.String() != want {
			t.Fatalf("ingest at GOMAXPROCS %d differs from GOMAXPROCS 1", width)
		}
	})
}

// writeMat writes m's shape, then each row's stored column indices and the
// bits of their values.
func writeMat(t *testing.T, w io.Writer, m la.Mat) {
	t.Helper()
	fmt.Fprintf(w, "%T %dx%d\n", m, m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		var idx []int32
		var vals []float64
		switch m := m.(type) {
		case *la.Dense:
			vals = m.Row(i)
		case *la.CSR:
			idx, vals = m.RowNNZ(i)
		default:
			t.Fatalf("writeMat: %T", m)
		}
		fmt.Fprint(w, idx)
		for _, v := range vals {
			fmt.Fprintf(w, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(w)
	}
}

// TestIngestErrorRows: each check names the row (or, for a malformed
// record, the line) the one-record-at-a-time reader named, although the bad
// row sits in the last segment and a second one follows it.
func TestIngestErrorRows(t *testing.T) {
	ord, cus, car := renderStar(4, 30000, 10000, 50)
	lines := func(data []byte) [][]byte { return bytes.SplitAfter(data, []byte{'\n'}) }
	edit := func(data []byte, at int, line string) []byte {
		ls := lines(data)
		ls[at+1], ls[at+2] = []byte(line), []byte(line) // line 1 is the header
		return bytes.Join(ls, nil)
	}
	for _, tc := range []struct {
		name          string
		ord, cus, car []byte
		want          string
	}{
		{"duplicate primary key", ord, edit(cus, 9990, "c17,0,0,city1,seg1\n"), car,
			`table: duplicate primary key "c17" at Customers.CustomerID row 9990`},
		{"dangling foreign key", edit(ord, 29990, "1,0,0,c17,k999\n"), cus, car,
			`table: dangling foreign key "k999" at Orders.CarrierID row 29990`},
		{"bad number", edit(ord, 29990, "1,0,1.2.3,c17,k1\n"), cus, car,
			`table: Orders.Weight row 29990: strconv.ParseFloat: parsing "1.2.3": invalid syntax`},
		{"wrong cell count", edit(ord, 29990, "1,zero,0,c17\n"), cus, car,
			`table: reading Orders: record on line 29992: wrong number of fields`},
		{"bare quote", edit(ord, 29990, "1,0,0,c\"17,k1\n"), cus, car,
			`table: reading Orders: record on line 29992: misplaced " in a cell`},
	} {
		atWidths(t, func(width int) {
			_, _, _, _, err := ingestStar(tc.ord, tc.cus, tc.car)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: %v\n\twant %s", tc.name, width, err, tc.want)
			}
		})
	}
}

var ingestSink *core.NormalizedMatrix

// BenchmarkIngest is ReadCSV + Build over the e2e-csv star at a tenth of
// its rows: MB/s of CSV, bytes and allocations per ingest.
func BenchmarkIngest(b *testing.B) {
	ord, cus, car := renderStar(1, 60000, 20000, 50)
	b.SetBytes(int64(len(ord) + len(cus) + len(car)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, nm, _, _, err := ingestStar(ord, cus, car)
		if err != nil {
			b.Fatal(err)
		}
		ingestSink = nm
	}
}
