package la

import (
	"encoding/binary"
	"testing"
)

// mustPanicOrValid invokes build; if it does not panic, the returned value
// is checked by verify. This is the contract the fuzz targets assert:
// constructors either reject bad input loudly or produce an object whose
// invariants hold.
func recoverPanic(f func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	f()
	return false
}

// FuzzNewCSR throws arbitrary indptr/indices arrays at NewCSR and asserts
// that every accepted matrix is safe to traverse: At, Dense, RowSums, and
// Mul must not read out of bounds (the validation added to NewCSR is what
// makes this hold).
func FuzzNewCSR(f *testing.F) {
	f.Add(2, 3, []byte{0, 1, 2}, []byte{0, 2})
	f.Add(1, 1, []byte{0, 1}, []byte{0})
	f.Add(0, 0, []byte{0}, []byte{})
	f.Add(2, 2, []byte{0, 2, 2}, []byte{0, 1})
	f.Add(2, 2, []byte{0, 2, 1}, []byte{1, 0}) // decreasing indptr: must panic
	f.Add(1, 2, []byte{0, 2}, []byte{1, 1})    // duplicate column: must panic
	f.Add(1, 1, []byte{0, 1}, []byte{9})       // column out of range: must panic
	f.Fuzz(func(t *testing.T, rows, cols int, ptrBytes, idxBytes []byte) {
		if rows < 0 || cols < 0 || rows > 64 || cols > 64 {
			t.Skip()
		}
		indptr := make([]int, len(ptrBytes))
		for i, b := range ptrBytes {
			indptr[i] = int(b)
		}
		indices := make([]int32, len(idxBytes))
		vals := make([]float64, len(idxBytes))
		for i, b := range idxBytes {
			indices[i] = int32(b)
			vals[i] = float64(b) + 1
		}
		var c *CSR
		if recoverPanic(func() { c = NewCSR(rows, cols, indptr, indices, vals) }) {
			return // rejected: fine
		}
		// Accepted: traversals must stay in bounds and agree with At.
		d := c.Dense()
		nnz := 0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if c.At(i, j) != d.At(i, j) {
					t.Fatalf("At(%d,%d) = %g, Dense = %g", i, j, c.At(i, j), d.At(i, j))
				}
				if c.At(i, j) != 0 {
					nnz++
				}
			}
		}
		if nnz != c.NNZ() {
			t.Fatalf("NNZ() = %d, counted %d", c.NNZ(), nnz)
		}
		if cols > 0 {
			x := Ones(cols, 1)
			if got, want := c.Mul(x), d.Mul(x); MaxAbsDiff(got, want) > 1e-12 {
				t.Fatalf("Mul mismatch on accepted CSR: %g", MaxAbsDiff(got, want))
			}
		}
	})
}

// FuzzNewIndicator throws arbitrary assignment vectors at NewIndicator and
// asserts accepted indicators gather within bounds and agree with their
// dense materialization.
func FuzzNewIndicator(f *testing.F) {
	f.Add(3, []byte{0, 1, 2, 0})
	f.Add(1, []byte{0})
	f.Add(2, []byte{5}) // out of range: must panic
	f.Add(4, []byte{})
	f.Fuzz(func(t *testing.T, nCols int, raw []byte) {
		if nCols < 0 || nCols > 64 || len(raw) > 256 {
			t.Skip()
		}
		assign := make([]int, len(raw))
		for i, b := range raw {
			// Mix in negatives so range checking is exercised on both ends.
			assign[i] = int(b) - 2
		}
		var k *Indicator
		if recoverPanic(func() { k = NewIndicator(assign, nCols) }) {
			for _, a := range assign {
				if a >= 0 && a < nCols {
					continue
				}
				return // had an invalid assignment: rejection correct
			}
			t.Fatalf("NewIndicator rejected valid input %v (nCols=%d)", assign, nCols)
		}
		for _, a := range assign {
			if a < 0 || a >= nCols {
				t.Fatalf("NewIndicator accepted out-of-range assignment %d (nCols=%d)", a, nCols)
			}
		}
		if k.Rows() != len(assign) || k.Cols() != nCols {
			t.Fatalf("dims %dx%d, want %dx%d", k.Rows(), k.Cols(), len(assign), nCols)
		}
		z := NewDense(nCols, 2)
		for i := 0; i < nCols; i++ {
			z.Set(i, 0, float64(i))
			z.Set(i, 1, float64(-i))
		}
		got := k.Mul(z)
		want := k.Dense().Mul(z)
		if MaxAbsDiff(got, want) > 0 {
			t.Fatal("indicator gather disagrees with dense materialization")
		}
		sum := 0.0
		for _, c := range k.ColCounts() {
			sum += c
		}
		if int(sum) != k.Rows() {
			t.Fatalf("ColCounts sum %g != rows %d", sum, k.Rows())
		}
	})
}

// FuzzRoundTripSerialization complements the constructor fuzzing: a CSR
// built from arbitrary (valid) triplets must survive a gather round trip.
func FuzzCSRGather(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, tripRaw, assignRaw []byte) {
		const rows, cols = 8, 5
		b := NewCSRBuilder(rows, cols)
		for i := 0; i+3 < len(tripRaw); i += 4 {
			r := int(tripRaw[i]) % rows
			c := int(tripRaw[i+1]) % cols
			v := float64(binary.LittleEndian.Uint16(tripRaw[i+2:i+4])) - 32768
			b.Add(r, c, v)
		}
		csr := b.Build()
		if len(assignRaw) == 0 {
			t.Skip()
		}
		assign := make([]int32, len(assignRaw))
		for i, a := range assignRaw {
			assign[i] = int32(a) % rows
		}
		g := csr.GatherRows(assign)
		gd, cd := g.Dense(), csr.Dense()
		for i, src := range assign {
			for j := 0; j < cols; j++ {
				if gd.At(i, j) != cd.At(int(src), j) {
					t.Fatalf("gather row %d (src %d) col %d: %g != %g", i, src, j, gd.At(i, j), cd.At(int(src), j))
				}
			}
		}
	})
}
