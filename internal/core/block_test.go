package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/la"
)

// blockBytes decodes fuzz input. Once the bytes run out it continues with
// a generator seeded by them, so a short input still decodes to a schema
// with varied values.
type blockBytes struct {
	b []byte
	s uint64
}

func (b *blockBytes) next(n int) int {
	if len(b.b) == 0 {
		b.s = b.s*6364136223846793005 + 1442695040888963407
		return int(b.s>>33) % n
	}
	v := int(b.b[0]) % n
	b.s, b.b = b.s*31+uint64(b.b[0]), b.b[1:]
	return v
}

// blockValues are the cell values: signed zeros, and magnitudes whose
// every product and sum of 200 products stays finite and normal.
var blockValues = []float64{0, math.Copysign(0, -1), 1, -1.5, 0.25, 3, 1e150, -1e150, 1e-150, -7e-151}

func (b *blockBytes) dense(rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = blockValues[b.next(len(blockValues))]
	}
	return d
}

// table is a dense, CSR (kind 1) or — with nested — normalized (kind 2)
// base table.
func (b *blockBytes) table(rows, cols, kind int, nested bool) la.Mat {
	d := b.dense(rows, cols)
	switch {
	case kind == 1:
		c := la.NewCSRBuilder(rows, cols)
		for i := 0; i < rows; i++ {
			for j, v := range d.Row(i) {
				if v != 0 || math.Signbit(v) {
					c.Add(i, j, v)
				}
			}
		}
		return c.Build()
	case kind == 2 && nested:
		nR := 1 + b.next(5)
		inner, err := NewPKFK(d, b.keys(rows, nR), b.table(nR, 1+b.next(3), b.next(2), false))
		if err != nil {
			panic(err)
		}
		return inner
	}
	return d
}

func (b *blockBytes) keys(n, domain int) *la.Indicator {
	ks := make([]int32, n)
	for i := range ks {
		ks[i] = int32(b.next(domain))
	}
	return la.NewIndicatorInt32(ks, domain)
}

// decodeBlockSchema builds a normalized matrix from the header bytes
// [q, flags, n-1, dS-1, (kind, nR-1, dR-1) per arm]: q ∈ 0..3 arms, each
// dense, CSR or a nested normalized matrix; flags bit 0 an S (forced when
// q = 0), bit 1 an M:N selector on it, bit 2 a CSR S. Keys draw from all
// nR rows, so some R rows are never referenced.
func decodeBlockSchema(b *blockBytes) *NormalizedMatrix {
	q, flags, n := b.next(4), b.next(8), 1+b.next(200)
	var s la.Mat
	var is *la.Indicator
	if flags&1 != 0 || q == 0 {
		nS := n
		if flags&2 != 0 {
			nS = 1 + b.next(9)
			is = b.keys(n, nS)
		}
		s = b.table(nS, 1+b.next(4), (flags>>2)&1, false)
	}
	var ks []*la.Indicator
	var rs []la.Mat
	for t := 0; t < q; t++ {
		kind, nR, dR := b.next(3), 1+b.next(9), 1+b.next(4)
		rs = append(rs, b.table(nR, dR, kind, true))
		ks = append(ks, b.keys(n, nR))
	}
	m, err := New(s, is, ks, rs)
	if err != nil {
		panic(err)
	}
	return m
}

// cutRows returns 0 = c_0 < c_1 < … < c_m = n with 1..5 blocks.
func (b *blockBytes) cutRows(n int) []int {
	cuts := []int{0, n}
	for c := b.next(5); c > 0 && n > 1; c-- {
		cuts = append(cuts, 1+b.next(n-1))
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// rowsOf returns the block of rows [lo,hi) of the one-block view b.
func rowsOf(b Block, lo, hi int) Block {
	out := Block{}
	switch s := b.S.(type) {
	case *la.Dense:
		out.S = s.SliceRowsDense(lo, hi)
	case *la.CSR:
		out.S = s.SliceRows(lo, hi)
	}
	for _, k := range b.Keys {
		out.Keys = append(out.Keys, k[lo:hi])
	}
	return out
}

// naiveTMul is Dᵀ·P by the triple loop, no rewrite.
func naiveTMul(d, p *la.Dense) *la.Dense {
	out := la.NewDense(d.Cols(), p.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			for c, w := range p.Row(i) {
				out.Data()[j*p.Cols()+c] += v * w
			}
		}
	}
	return out
}

// nearly fails unless every element of got is within 1e-12·bound of want's,
// where bound holds each element's Σ|terms|: the rounding any order of
// summing those terms can leave, with room to spare.
func nearly(t *testing.T, what string, got, want, bound *la.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if d := math.Abs(got.Data()[i] - w); !(d <= 1e-12*bound.Data()[i]) {
			t.Fatalf("%s: element %d is %g, want %g (bound %g)", what, i, got.Data()[i], w, bound.Data()[i])
		}
	}
}

// abs is |d| elementwise.
func abs(d *la.Dense) *la.Dense { return d.Apply(math.Abs).(*la.Dense) }

// FuzzBlockRewrite drives the block kernels over random schemas cut into
// random row blocks. Rows are independent, so MulBlock and JoinBlock over
// any cut are bit-identical to the one-block Mul and Dense; the reductions
// (TMul, its group form, Gram) summed over the cuts agree with the
// one-block result and with a triple loop over Dense() to 1e-12 relative
// to the operands' magnitudes.
func FuzzBlockRewrite(f *testing.F) {
	f.Add([]byte{1, 1, 119, 2, 0, 8, 3})                // PK-FK
	f.Add([]byte{2, 1, 149, 1, 0, 6, 2, 1, 4, 3})       // star with a CSR arm
	f.Add([]byte{1, 3, 99, 2, 0, 7, 2})                 // M:N
	f.Add([]byte{1, 1, 89, 1, 2, 5, 1})                 // snowflake
	f.Add([]byte{2, 0, 129, 0, 0, 8, 3, 1, 2, 1})       // star with no S
	f.Add([]byte{3, 5, 199, 3, 2, 8, 3, 1, 8, 3, 0, 0}) // three arms, CSR S behind an M:N selector
	f.Fuzz(checkBlockRewrite)
}

func checkBlockRewrite(t *testing.T, data []byte) {
	b := &blockBytes{b: data}
	m := decodeBlockSchema(b)
	one, rs := m.star()
	n, d := m.Rows(), m.Cols()
	k := []int{1, 2, 5}[b.next(3)]
	x, p := b.dense(d, k), b.dense(n, k)
	g := 1 + b.next(4)
	groups := make([]int32, n)
	for i := range groups {
		groups[i] = int32(b.next(g))
	}
	cuts := b.cutRows(n)
	what := func(op string) string {
		return fmt.Sprintf("%s over cuts %v of %dx%d, %d arms", op, cuts, n, d, len(rs))
	}

	dS, off := one.S.Cols(), one.S.Cols()
	xs, z, nR := x.SliceRowsDense(0, dS), make([]*la.Dense, len(rs)), make([]int, len(rs))
	for t, r := range rs {
		z[t], nR[t] = r.Mul(x.SliceRowsDense(off, off+r.Cols())), r.Rows()
		off += r.Cols()
	}
	mul, dense := m.Mul(x), m.Dense()
	tm, gm := NewTMul(dS, nR, k), NewTMul(dS, nR, g)
	gram := NewGram(dS, rs, false)
	for c := 1; c < len(cuts); c++ {
		lo, hi := cuts[c-1], cuts[c]
		blk, pb := rowsOf(one, lo, hi), p.SliceRowsDense(lo, hi)
		out := la.NewDense(hi-lo, k)
		MulBlock(out, blk, xs, z)
		if !slices.EqualFunc(out.Data(), mul.Data()[lo*k:hi*k], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: rows [%d,%d) are not the one-block rows bit for bit", what("MulBlock"), lo, hi)
		}
		join := la.NewDense(hi-lo, d)
		JoinBlock(join, blk, rs)
		if !slices.EqualFunc(join.Data(), dense.Data()[lo*d:hi*d], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: rows [%d,%d) are not Dense's bit for bit", what("JoinBlock"), lo, hi)
		}
		tm.Merge(TMulBlock(blk.S, pb, nil, k), blk.Keys, pb, nil)
		gm.Merge(TMulBlock(blk.S, nil, groups[lo:hi], g), blk.Keys, nil, groups[lo:hi])
		gram.Block(blk)()
	}
	armTMul := func(t int, kp *la.Dense) (*la.Dense, error) { return rs[t].TMul(kp), nil }
	oneHot := la.OneHot(groups, g)
	nearly(t, what("Mul vs triple loop"), mul, naiveTMul(dense.TDense(), x), naiveTMul(abs(dense).TDense(), abs(x)))
	for _, c := range []struct {
		name       string
		red        func() *la.Dense
		one, right *la.Dense
	}{
		{"TMul", func() *la.Dense { got, _ := tm.Finish(armTMul); return got }, m.TMul(p), p},
		{"GroupTMul", func() *la.Dense { got, _ := gm.Finish(armTMul); return got }, m.GroupTMul(groups, g), oneHot},
		{"Gram", gram.Finish, m.CrossProd(), dense},
	} {
		got, bound := c.red(), naiveTMul(abs(dense), abs(c.right))
		nearly(t, what(c.name), got, c.one, bound)
		nearly(t, what(c.name+" vs triple loop"), got, naiveTMul(dense, c.right), bound)
	}
}
