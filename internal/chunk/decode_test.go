package chunk

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/la"
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

// lyingCSRBlob is a 48-byte CSR chunk whose header claims 1 row, 1 column
// and 1537228672809129302 non-zeros: 12·nnz is 2⁶⁴+8, so in 64 bits the
// claimed layout is exactly 48 bytes long.
func lyingCSRBlob() []byte {
	raw := make([]byte, 48)
	binary.LittleEndian.PutUint64(raw, 1)
	binary.LittleEndian.PutUint64(raw[8:], 1)
	binary.LittleEndian.PutUint64(raw[16:], 1537228672809129302)
	return raw
}

// TestLyingCSRHeader: a CSR header claiming more non-zeros than its blob
// holds is an error naming the chunk — in the decoder, and through a
// chunkd's /exec, where the decode runs on a pipeline goroutine no handler
// recovers (the allocation it sized used to kill the server). The server
// answers the next request.
func TestLyingCSRHeader(t *testing.T) {
	const key, good = "chunk-000001.bin", "chunk-000002.bin"
	if _, err := decodeSparseChunk(key, lyingCSRBlob(), 1, 1); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("lying header: err = %v, want an error naming %s", err, key)
	}
	rb, _ := startChunkServer(t)
	if err := rb.WriteChunk(key, lyingCSRBlob()); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteChunk(good, encodeSparseChunk(la.NewCSR(1, 1, []int{0, 1}, []int32{0}, []float64{2}))); err != nil {
		t.Fatal(err)
	}
	exec := func(key string) ([]byte, error) {
		ps, err := rb.ExecOp(OpSum(), chunkKindCSR, 1, []ExecChunk{{Key: key, Rows: 1}})
		if err != nil {
			return nil, err
		}
		defer ps.Close()
		return ps.Next()
	}
	if _, err := exec(key); err == nil || err == io.EOF || !strings.Contains(err.Error(), key) {
		t.Fatalf("/exec over the lying chunk: err = %v, want an error frame naming %s", err, key)
	}
	raw, err := exec(good)
	if err != nil {
		t.Fatalf("/exec after the lying chunk: %v", err)
	}
	if sum, _, err := readDenseBlob(raw); err != nil || sum.At(0, 0) != 2 {
		t.Fatalf("/exec after the lying chunk = %v, %v; want the 1x1 sum 2", sum, err)
	}
}

// FuzzDecodeChunk: any bytes handed to the chunk decoders — the dense and
// CSR chunk layouts and a key column — give an error or a value that
// encodes back to exactly those bytes; never a panic, and never an
// allocation a header merely claims. The seeds are valid encodings holding
// -0.0 and NaN, all-zero chunks, truncations, and a lying CSR header.
func FuzzDecodeChunk(f *testing.F) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	dense := la.NewDenseData(2, 2, []float64{1, negZero, nan, -3.5})
	csr := la.NewCSR(2, 3, []int{0, 2, 3}, []int32{0, 2, 1}, []float64{negZero, nan, 4})
	for _, seed := range [][]byte{
		encodeDenseChunk(dense),
		encodeSparseChunk(csr),
		encodeDenseChunk(la.ColVector([]float64{0, 3, 7})),
		encodeDenseChunk(la.ColVector([]float64{0, 3, negZero})), // -0.0 is no key
		encodeDenseChunk(la.NewDense(2, 2)),
		encodeSparseChunk(la.NewCSR(2, 3, make([]int, 3), nil, nil)),
		lyingCSRBlob(),
		encodeDenseChunk(dense)[:20],
		encodeSparseChunk(csr)[:30],
		encodeSparseChunk(csr)[:12],
		nil,
	} {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cols uint8) {
		// A dense chunk of a known width, its height from the length.
		if c := int(cols); c > 0 {
			if d, err := decodeDenseChunk("fuzz", raw, len(raw)/8/c, c); err == nil && !bytes.Equal(encodeDenseChunk(d), raw) {
				t.Fatalf("dense %dx%d chunk does not encode back to its bytes", d.Rows(), c)
			}
		}
		// A CSR chunk of the shape its header claims, as chunkd takes a
		// request's word for it.
		if len(raw) >= 16 {
			rows, c := int(binary.LittleEndian.Uint64(raw)), int(binary.LittleEndian.Uint64(raw[8:]))
			if sp, err := decodeSparseChunk("fuzz", raw, rows, c); err == nil && !bytes.Equal(encodeSparseChunk(sp), raw) {
				t.Fatalf("CSR %dx%d chunk does not encode back to its bytes", rows, c)
			}
		}
		// A key column over the whole int32 range.
		if d, err := decodeDenseChunk("fuzz", raw, len(raw)/8, 1); err == nil {
			v := &IntVector{m: newMatrix(nil, d.Rows(), 1, max(d.Rows(), 1), []string{"fuzz"}), minKey: math.MinInt32, maxKey: math.MaxInt32}
			if keys, err := v.decode(0, d); err == nil {
				back := la.NewDense(len(keys), 1)
				for i, k := range keys {
					back.Data()[i] = float64(k)
				}
				if !bytes.Equal(encodeDenseChunk(back), raw) {
					t.Fatalf("%d keys do not encode back to their bytes", len(keys))
				}
			}
		}
	})
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
