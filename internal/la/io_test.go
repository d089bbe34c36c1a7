package la

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestDenseBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	m := randDense(rng, 17, 9)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got, m, 0) {
		t.Fatal("dense round trip mismatch")
	}
}

func TestCSRBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	c, d := randCSR(rng, 23, 11, 0.25)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got.Dense(), d, 0) {
		t.Fatal("CSR round trip mismatch")
	}
	if got.NNZ() != c.NNZ() {
		t.Fatal("CSR round trip nnz mismatch")
	}
}

func TestIndicatorBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	k := randIndicator(rng, 40, 7)
	var buf bytes.Buffer
	if err := k.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndicator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 40 || got.Cols() != 7 {
		t.Fatal("indicator round trip dims")
	}
	for i := 0; i < 40; i++ {
		if got.ColOf(i) != k.ColOf(i) {
			t.Fatal("indicator round trip assignments")
		}
	}
}

func TestReadRejectsWrongMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	m := randDense(rng, 3, 3)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSR(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("CSR reader accepted dense payload")
	}
	if _, err := ReadIndicator(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("indicator reader accepted dense payload")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	m := randDense(rng, 10, 10)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadDense(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("accepted truncated payload")
	}
	if _, err := ReadDense(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("accepted truncated header")
	}
}

func TestReadRejectsCorruptCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	c, _ := randCSR(rng, 8, 8, 0.4)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt a column index to an out-of-range value.
	idxOffset := 4 + 16 + 8 + (8+1)*8 // magic + dims + nnz + indptr
	raw[idxOffset] = 0xFF
	raw[idxOffset+1] = 0xFF
	raw[idxOffset+2] = 0xFF
	raw[idxOffset+3] = 0x7F
	if _, err := ReadCSR(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted corrupt column index")
	}
}

// header encodes a matrix header followed by raw int64 words (nnz, indptr).
func header(magic string, words ...int64) []byte {
	b := []byte(magic)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return b
}

// lyingHeaders claim far more than they carry, or sizes that overflow.
var lyingHeaders = []struct {
	name string
	raw  []byte
}{
	{"dense 2^32x2^32 (rows·cols overflows to 0)", header("MXD1", 1<<32, 1<<32)},
	{"dense 2^31x2^31", header("MXD1", 1<<31, 1<<31)},
	{"dense 2^20x2^20, no payload", header("MXD1", 1<<20, 1<<20)},
	{"dense negative rows", header("MXD1", -1, 3)},
	{"CSR rows 2^40", header("MXS1", 1<<40, 1, 0)},
	{"CSR nnz 2^40", header("MXS1", 1, 1<<40, 1<<40, 0, 1<<40)},
	{"CSR nnz beyond rows·cols", header("MXS1", 2, 2, 5)},
	{"CSR decreasing indptr", append(header("MXS1", 2, 2, 1, 0, 2, 1), make([]byte, 12)...)},
	{"indicator rows 2^40", header("MXI1", 1<<40, 1)},
	{"dense truncated payload", append(header("MXD1", 2, 2), make([]byte, 24)...)},
}

// TestReadLyingHeaders: every reader turns every lying header into an
// error — never a panic, never a matrix — and allocates little doing so.
func TestReadLyingHeaders(t *testing.T) {
	readers := map[string]func(io.Reader) error{
		"MXD1": func(r io.Reader) error { _, err := ReadDense(r); return err },
		"MXS1": func(r io.Reader) error { _, err := ReadCSR(r); return err },
		"MXI1": func(r io.Reader) error { _, err := ReadIndicator(r); return err },
	}
	for _, h := range lyingHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if recoverPanic(func() { err = readers[string(h.raw[:4])](bytes.NewReader(h.raw)) }) {
			t.Fatalf("%s: panicked", h.name)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", h.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes before failing", h.name, grew)
		}
	}
}

func TestDenseCSVRoundTrip(t *testing.T) {
	m := DenseFromRows([][]float64{{1.5, -2}, {0, 3e10}})
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDenseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(got, m, 0) {
		t.Fatal("CSV round trip mismatch")
	}
}

func TestReadDenseCSVErrors(t *testing.T) {
	if _, err := ReadDenseCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("accepted ragged CSV")
	}
	if _, err := ReadDenseCSV(strings.NewReader("1,x\n")); err == nil {
		t.Fatal("accepted non-numeric CSV")
	}
	m, err := ReadDenseCSV(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 {
		t.Fatal("blank CSV should be empty")
	}
}
