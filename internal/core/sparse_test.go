package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/la"
)

// referenceSparse is the materialization Sparse replaced, kept as the
// reference: every part converted to CSR on its own (anything not already
// CSR through a triplet builder, zeros dropped), gathered by its indicator,
// then concatenated row by row.
func referenceSparse(m *NormalizedMatrix) *la.CSR {
	var parts []*la.CSR
	toCSR := func(x la.Mat) *la.CSR {
		if c, ok := x.(*la.CSR); ok {
			return c
		}
		d := x.Dense()
		b := la.NewCSRBuilder(d.Rows(), d.Cols())
		for i := 0; i < d.Rows(); i++ {
			for j, v := range d.Row(i) {
				if v != 0 {
					b.Add(i, j, v)
				}
			}
		}
		return b.Build()
	}
	if m.s != nil {
		sc := toCSR(m.s)
		if m.is != nil {
			sc = sc.GatherRows(m.is.Assignments())
		}
		parts = append(parts, sc)
	}
	for i, k := range m.ks {
		parts = append(parts, toCSR(m.rs[i]).GatherRows(k.Assignments()))
	}
	indptr, cols := []int{0}, 0
	var indices []int32
	var vals []float64
	for i := 0; i < parts[0].Rows(); i++ {
		off := 0
		for _, p := range parts {
			idx, vs := p.RowNNZ(i)
			for k, j := range idx {
				indices, vals = append(indices, j+int32(off)), append(vals, vs[k])
			}
			off += p.Cols()
		}
		indptr, cols = append(indptr, len(indices)), off
	}
	out := la.NewCSR(parts[0].Rows(), cols, indptr, indices, vals)
	if m.trans {
		return out.TCSR()
	}
	return out
}

// csrBytes is a CSR's content: its shape, then each row's column indices
// and the bits of its values.
func csrBytes(c *la.CSR) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(c.Rows()))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Cols()))
	for i := 0; i < c.Rows(); i++ {
		idx, vals := c.RowNNZ(i)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(idx)))
		for k, j := range idx {
			b = binary.LittleEndian.AppendUint32(b, uint32(j))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[k]))
		}
	}
	return b
}

// withSpecials zeroes a third of d's cells, some to -0, and puts a NaN in
// one: the cells CSRFromDense drops, and one it keeps.
func withSpecials(rng *rand.Rand, d *la.Dense) *la.Dense {
	for i := range d.Data() {
		switch rng.Intn(6) {
		case 0:
			d.Data()[i] = 0
		case 1:
			d.Data()[i] = math.Copysign(0, -1)
		}
	}
	if len(d.Data()) > 0 {
		d.Data()[len(d.Data())/2] = math.NaN()
	}
	return d
}

// sparseShapes is every form a part of T takes, at n output rows: dense and
// CSR entity tables, an M:N entity selector, a two-arm star, a nested
// normalized arm, an opaque view (epoch's snapshot tables are one), an
// attribute row of zeros (empty output rows), and the transpose.
func sparseShapes(t *testing.T, rng *rand.Rand, n int) map[string]*NormalizedMatrix {
	t.Helper()
	const nR = 40
	must := func(m *NormalizedMatrix, err error) *NormalizedMatrix {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sD := withSpecials(rng, randDense(rng, n, 3))
	sC := la.CSRFromDense(withSpecials(rng, randDense(rng, n, 4)))
	rD := withSpecials(rng, randDense(rng, nR, 5))
	rC := la.CSRFromDense(withSpecials(rng, randDense(rng, nR, 6)))
	zero := la.NewDense(nR, 2) // every row empty
	inner := must(NewPKFK(withSpecials(rng, randDense(rng, nR, 2)), randIndicator(rng, nR, 7), withSpecials(rng, randDense(rng, 7, 3))))
	k1, k2 := randIndicator(rng, n, nR), randIndicator(rng, n, nR)
	star := must(NewStar(sD, []*la.Indicator{k1, k2}, []la.Mat{rD, rC}))
	return map[string]*NormalizedMatrix{
		"dense S":       must(NewPKFK(sD, k1, rC)),
		"CSR S":         must(NewPKFK(sC, k1, rD)),
		"M:N with I_S":  must(NewMN(sC, randIndicator(rng, n+9, n), randIndicator(rng, n+9, nR), rD)),
		"multi M:N":     must(NewMultiMN([]*la.Indicator{k1, k2}, []la.Mat{zero, rC})),
		"2-arm star":    star,
		"nested arm":    must(NewStar(sD, []*la.Indicator{k1, k2}, []la.Mat{inner, rC})),
		"opaque parts":  must(NewStar(opaqueMat{sD}, []*la.Indicator{k1, k2}, []la.Mat{opaqueMat{rC}, zero})),
		"transposed":    star.Transpose(),
		"no S, one arm": must(NewMultiMN([]*la.Indicator{k2}, []la.Mat{rD})),
	}
}

// TestSparseOnePass holds the one-pass Sparse to the construction it
// replaced, byte for byte: indptr, indices and the bits of every value,
// -0 dropped and NaN kept as CSRFromDense does.
func TestSparseOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, n := range []int{1, 37, 3000} {
		for name, m := range sparseShapes(t, rng, n) {
			got, want := m.Sparse(), referenceSparse(m)
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("n=%d %s: %dx%d, reference %dx%d", n, name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			if !bytes.Equal(csrBytes(got), csrBytes(want)) {
				t.Errorf("n=%d %s: Sparse differs from the reference construction", n, name)
			}
		}
	}
}

// TestWidthDeterminismSparse pins Sparse bitwise across GOMAXPROCS on a
// join large enough that both of its passes fan out.
func TestWidthDeterminismSparse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first map[string][]byte
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		got := map[string][]byte{}
		for name, m := range sparseShapes(t, rand.New(rand.NewSource(91)), 40_000) {
			got[name] = csrBytes(m.Sparse())
		}
		if first == nil {
			first = got
			continue
		}
		for name, want := range first {
			if !bytes.Equal(got[name], want) {
				t.Fatalf("%s: Sparse at GOMAXPROCS=%d differs from GOMAXPROCS=1", name, procs)
			}
		}
	}
}
