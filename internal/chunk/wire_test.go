package chunk

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/la"
)

// wireDir holds the chunk formats' bytes as this version writes them. A
// format change adds a v2/ directory beside it.
const wireDir = "testdata/wire/v1"

// The inputs the golden files were written from.
var (
	// wireDenseVals is a 3×2 dense chunk, row-major: −0.0, the smallest
	// subnormal and an integer among plain dyadic values.
	wireDenseVals = []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 7, 0.5, -2, 1}
	// wireCSRIndptr, wireCSRIndices and wireCSRVals are a 3×4 CSR chunk
	// whose middle row is empty.
	wireCSRIndptr  = []int{0, 2, 2, 4}
	wireCSRIndices = []int32{0, 3, 1, 2}
	wireCSRVals    = []float64{1.5, -0.25, 3, 2.75}
	// wireKeys is one 4-key chunk of a foreign-key column.
	wireKeys = []int32{-3, 0, 7, math.MaxInt32}
)

func wireCSR() *la.CSR {
	return la.NewCSR(3, 4, wireCSRIndptr, wireCSRIndices, wireCSRVals)
}

func readWire(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(wireDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireV1 pins the v1 chunk formats: today's encoders reproduce every
// golden file byte for byte, and every decoder accepts its file with
// bit-equal values.
func TestWireV1(t *testing.T) {
	dense := readWire(t, "dense-3x2.bin")
	if got := encodeDenseChunk(la.NewDenseData(3, 2, wireDenseVals)); !bytes.Equal(got, dense) {
		t.Errorf("encodeDenseChunk = %x, want %x", got, dense)
	}
	d, err := decodeDenseChunk("dense-3x2.bin", dense, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "dense chunk", d, la.NewDenseData(3, 2, wireDenseVals))

	csr := readWire(t, "csr-3x4.bin")
	if got := encodeSparseChunk(wireCSR()); !bytes.Equal(got, csr) {
		t.Errorf("encodeSparseChunk = %x, want %x", got, csr)
	}
	c, err := decodeSparseChunk("csr-3x4.bin", csr, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every stored value is non-zero, so equal dense forms and counts mean
	// equal structure.
	if c.NNZ() != len(wireCSRVals) {
		t.Fatalf("CSR chunk decodes to %d non-zeros, want %d", c.NNZ(), len(wireCSRVals))
	}
	bitsEqual(t, "CSR chunk", c.Dense(), wireCSR().Dense())

	keys := readWire(t, "keys-4.bin")
	iv, err := BuildIntVector(testStore(t), wireKeys, len(wireKeys))
	if err != nil {
		t.Fatal(err)
	}
	if got := storedBlobs(t, iv.m.store, iv.m.paths); len(got) != 1 || !bytes.Equal(got[0], keys) {
		t.Errorf("BuildIntVector stored %x, want one chunk %x", got, keys)
	}
	kc, err := decodeDenseChunk("keys-4.bin", keys, len(wireKeys), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := iv.decode(0, kc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wireKeys) {
		t.Fatalf("key chunk decodes to %v, want %v", got, wireKeys)
	}
}
