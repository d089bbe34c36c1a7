package chunk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestDecodeDenseChunkInPlace: on a little-endian host an aligned blob is
// the chunk's storage — the decode allocates only the matrix header, and a
// write through the blob shows through the chunk.
func TestDecodeDenseChunkInPlace(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: every blob takes the copy loop")
	}
	d := randDense(rand.New(rand.NewSource(60)), 16, 5)
	raw := encodeDenseChunk(d)
	if allocs := testing.AllocsPerRun(100, func() { decodeDenseChunk("k", raw, 16, 5) }); allocs > 1 {
		t.Fatalf("decoding an aligned blob allocates %v times, want ≤ 1", allocs)
	}
	c, err := decodeDenseChunk("k", raw, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Data() {
		if math.Float64bits(c.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("element %d decodes to %v, want %v", i, c.Data()[i], v)
		}
	}
	binary.LittleEndian.PutUint64(raw, math.Float64bits(42))
	if c.At(0, 0) != 42 {
		t.Fatal("the chunk does not alias its aligned blob")
	}
}

// TestDecodeDenseChunkMisaligned: a blob at an odd offset takes the copy
// loop — the same values, in storage of the chunk's own — and the length
// check refuses a blob of the wrong size, including a shape whose byte
// count overflows.
func TestDecodeDenseChunkMisaligned(t *testing.T) {
	d := randDense(rand.New(rand.NewSource(61)), 16, 5)
	buf := make([]byte, 1+16*5*8)
	copy(buf[1:], encodeDenseChunk(d))
	c, err := decodeDenseChunk("k", buf[1:], 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Data() {
		if math.Float64bits(c.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("element %d decodes to %v, want %v", i, c.Data()[i], v)
		}
	}
	clear(buf)
	if c.At(0, 0) != d.At(0, 0) {
		t.Fatal("a chunk decoded from a misaligned blob aliases it")
	}
	for _, shape := range [][2]int{{16, 4}, {17, 5}, {-16, -5}, {1 << 40, 1 << 30}, {1 << 62, 4}} {
		if _, err := decodeDenseChunk("k", buf[1:], shape[0], shape[1]); err == nil {
			t.Fatalf("a %d-byte blob decoded as %dx%d", len(buf)-1, shape[0], shape[1])
		}
	}
}

// TestReadDenseChunkIndependent: every read of a chunk is a chunk of its
// own — mutating one leaves the next read of the same key untouched (the
// Backend.ReadChunk ownership rule in-place decoding rests on).
func TestReadDenseChunkIndependent(t *testing.T) {
	d := randDense(rand.New(rand.NewSource(62)), 40, 3)
	m, err := FromDense(testStore(t), d, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := m.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := m.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	a.Data()[0] = 42
	_, c, err := m.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(0, 0) != d.At(0, 0) || c.At(0, 0) != d.At(0, 0) {
		t.Fatalf("after mutating one read, others read %v and %v, want %v", b.At(0, 0), c.At(0, 0), d.At(0, 0))
	}
}

// BenchmarkReadDenseChunk: one 6000×50 chunk fetched from a directory
// backend and decoded, as every pass over a dense table does it.
func BenchmarkReadDenseChunk(b *testing.B) {
	st, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m, err := FromDense(st, randDense(rand.New(rand.NewSource(63)), 6000, 50), 6000)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(6000 * 50 * 8)
	b.ReportAllocs()
	for range b.N {
		if _, _, err := m.Chunk(0); err != nil {
			b.Fatal(err)
		}
	}
}
