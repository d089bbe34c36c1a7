package la

import (
	"fmt"
	"math"
)

// Operand is the only way an iterative algorithm touches T: one ordered
// scan over row blocks per pass, with the factorized products split so
// that the small side is computed once per scan, not once per block —
//
//	prepare  the small side of T·X (Step.X), the row norms   once, before the blocks
//	apply    Step.Do on T_b·X, and T_bᵀ·P_b on what it makes   per block, concurrently
//	finish   the small side of Tᵀ·P                           once, after the blocks
//
// InMemory adapts any Matrix as a single block, so an in-memory run is the
// operator calls of the textbook algorithm; internal/chunk adapts its
// dense, CSR, star and M:N tables with one block per chunk. internal/ml
// writes each algorithm once against this contract.
type Operand interface {
	Rows() int
	Cols() int
	// Scan visits every row block once. step.Do may run on several blocks
	// concurrently; merge receives each Result.Part strictly in block
	// order on the calling goroutine (nil when there is nothing to merge).
	// It returns what the step declared: the new n-tall Tall made of the
	// blocks' Out (the caller owns it) and the product Tᵀ·P of their P.
	Scan(step Step, merge func(part any) error) (Tall, *Dense, error)
	// Gram returns TᵀT (Matrix.CrossProd; §3.3.5 for a normalized T). It is
	// a method, not a Step: it has no Do, X, P or Out to declare.
	Gram() (*Dense, error)
	// NewTall allocates n-tall state aligned with T's blocks; fill sees
	// the blocks in order.
	NewTall(cols int, fill func(dst *Dense)) (Tall, error)
}

// Block is one row block of an operand, rows [Lo, Lo+Rows) of T, with the
// buffers its step writes: Out (Rows()×OutCols), P (Rows()×PCols) and
// Groups (Rows(), or per-row scratch). P and Groups are workspace, handed
// out again on a later scan (chunked, once the ordered commit has merged
// the block): a step writes them before reading them and returns nothing
// aliasing them. Out may be a freed Tall's storage (GNMF's W ping-pongs
// between two); the Tall a scan returns is its caller's until Free.
type Block interface {
	Index() int
	Lo() int
	Rows() int
	Out() *Dense
	P() *Dense
	Groups() []int32
}

// Step is a scan's per-block work and the products around it. Do receives
// the block, T_b·X when X is set, and the rows' ‖t_i‖² when Norms is. tx is
// the operand's own buffer, refilled each scan: it is valid only until Do
// returns, so Result.Out is never tx. A step that is also registered by
// name (Op, rebuilt from Params) may be run where the block is stored: the
// same function either way, so its Part must be the PCols counts of its
// Groups, the partial a store ships back beside its share of Tᵀ·P.
type Step struct {
	X       *Dense
	Norms   bool
	Do      func(b Block, tx *Dense, norms []float64) (Result, error)
	OutCols int // > 0: Result.Out is block b, b.Rows()×OutCols, of a new Tall
	PCols   int // > 0: Result.P (or Groups) is block b of P in Tᵀ·P
	Op      string
	Params  *Dense
}

// Result is what a step makes of one block. A step with PCols > 0 returns
// P, b.Rows()×PCols, or — when P is one-hot, like k-means' assignment
// matrix — Groups, the column of each row's single 1. The operand then
// reduces Tᵀ·P as group sums (Mat.GroupTMul; the indicator rewrite on a
// normalized T) and no n×PCols matrix is ever allocated.
type Result struct {
	Out, P *Dense
	Groups []int32
	Part   any
}

// Tall is n-tall state (k-means' assignment column, GNMF's W) held block
// by block wherever the operand's rows live.
type Tall interface {
	// Chunk returns block i's rows and their first-row offset.
	Chunk(i int) (lo int, rows *Dense, err error)
	Free() error
}

// ScanTMul computes Tᵀ·P for an in-memory n-tall P with one scan: the
// whole-matrix transposed LMM of any operand.
func ScanTMul(t Operand, p *Dense) (*Dense, error) {
	if p.Rows() != t.Rows() {
		return nil, fmt.Errorf("la: scan TMul %dx%dᵀ · %dx%d", t.Rows(), t.Cols(), p.Rows(), p.Cols())
	}
	if p.Cols() == 0 { // the product is d×0: nothing to scan for
		return NewDense(t.Cols(), 0), nil
	}
	_, tp, err := t.Scan(Step{PCols: p.Cols(), Do: func(b Block, _ *Dense, _ []float64) (Result, error) {
		if b.Rows() == p.Rows() { // one block: P itself, not a copy
			return Result{P: p}, nil
		}
		return Result{P: p.SliceRowsDense(b.Lo(), b.Lo()+b.Rows())}, nil
	}}, nil)
	return tp, err
}

// Buffers is one block's workspace, regrown only when a block needs more
// than it holds: it gives the operand T_b·X and a Block its Out, P and
// Groups. Out is new unless a freed Tall left its storage as spare.
type Buffers struct {
	rows, outCols, pCols int
	tx, p, spare         []float64
	groups               []int32
}

// Start readies the workspace for a block of rows and a step's widths.
func (b *Buffers) Start(rows, outCols, pCols int) { b.rows, b.outCols, b.pCols = rows, outCols, pCols }
func (b *Buffers) TX(cols int) *Dense             { return reuseDense(&b.tx, b.rows, cols) }
func (b *Buffers) P() *Dense                      { return reuseDense(&b.p, b.rows, b.pCols) }
func (b *Buffers) Groups() []int32                { return reuse(&b.groups, b.rows, -1) }
func (b *Buffers) Out() *Dense {
	out := reuseDense(&b.spare, b.rows, b.outCols)
	b.spare = nil // the Tall it becomes is the caller's
	return out
}

// poison is a test hook: every buffer handed out again is filled with
// garbage, so a step that reads one first, or a result aliasing one, shows.
var poison bool

func reuseDense(buf *[]float64, rows, cols int) *Dense {
	return NewDenseData(rows, cols, reuse(buf, rows*cols, math.NaN()))
}

// reuse returns *buf's first n elements, regrowing it when it holds fewer.
func reuse[E float64 | int32](buf *[]E, n int, garbage E) []E {
	if cap(*buf) < n {
		*buf = make([]E, n)
	} else {
		*buf = (*buf)[:n]
		for i := 0; poison && i < n; i++ {
			(*buf)[i] = garbage
		}
	}
	return *buf
}

// whole is an in-memory Matrix seen as one block that is its own scan.
type whole struct {
	t, tt Matrix // tt = Tᵀ of a T that is not a Mat, transposed on its first Tᵀ·P
	norms []float64
	Buffers
}

// InMemory adapts an in-memory matrix — dense, sparse, normalized, or any
// other Matrix — to the scan contract as a single block.
func InMemory(t Matrix) Operand { return &whole{t: t} }

func (w *whole) Rows() int  { return w.t.Rows() }
func (w *whole) Cols() int  { return w.t.Cols() }
func (w *whole) Index() int { return 0 }
func (w *whole) Lo() int    { return 0 }

func (w *whole) Gram() (*Dense, error) { return w.t.CrossProd(), nil }

func (w *whole) Scan(step Step, merge func(any) error) (tall Tall, tp *Dense, err error) {
	var tx *Dense
	if x := step.X; x != nil {
		if x.Rows() != w.Cols() {
			return nil, nil, fmt.Errorf("la: scan Mul %dx%d · %dx%d", w.Rows(), w.Cols(), x.Rows(), x.Cols())
		}
		if m, ok := w.t.(interface{ MulInto(out, x *Dense) }); ok {
			tx = reuseDense(&w.tx, w.Rows(), x.Cols())
			m.MulInto(tx, x)
		} else { // an opaque Matrix has only its Mul
			tx = w.t.Mul(x)
		}
	}
	if step.Norms && w.norms == nil {
		w.norms = RowSquaredNorms(w.t) // the row norms never change
	}
	w.Start(w.Rows(), step.OutCols, step.PCols)
	r, err := step.Do(w, tx, w.norms)
	if err == nil && merge != nil {
		err = merge(r.Part)
	}
	if err != nil {
		return nil, nil, err
	}
	if step.OutCols > 0 {
		tall = &denseTall{d: r.Out, w: w}
	}
	if step.PCols > 0 {
		tp = w.tmul(r, step.PCols)
	}
	return tall, tp, nil
}

// tmul reduces Tᵀ·P through the operand's own kernels when T is a Mat
// (Dense, CSR, core's normalized matrix): group sums when the step returned
// Groups, else Mat.TMul, so no transposed copy is made. Any other Matrix,
// such as an opaque wrapper, multiplies through its transpose, made once.
func (w *whole) tmul(r Result, k int) *Dense {
	g, isMat := w.t.(Mat)
	p := r.P
	if p == nil {
		if isMat {
			return g.GroupTMul(r.Groups, k)
		}
		p = OneHot(r.Groups, k)
	}
	if isMat {
		return g.TMul(p)
	}
	if w.tt == nil {
		w.tt = w.t.T()
	}
	return w.tt.Mul(p)
}

func (w *whole) NewTall(cols int, fill func(*Dense)) (Tall, error) {
	d := NewDense(w.Rows(), cols)
	fill(d)
	return &denseTall{d: d, w: w}, nil
}

// denseTall is in-memory n-tall state; Free hands its storage back to the
// operand as the next scan's Out.
type denseTall struct {
	d *Dense
	w *whole // nil once freed
}

func (t *denseTall) Chunk(int) (int, *Dense, error) { return 0, t.d, nil }
func (t *denseTall) Free() error {
	if t.w != nil {
		t.w.spare, t.w = t.d.Data(), nil
	}
	return nil
}

// RowSquaredNorms returns ‖t_i‖² for every row of m — k-means' point
// norms — bit for bit m.Pow(2).RowSums() without forming m². A row sums
// its (stored) values' squares in ascending column order, four dense rows
// at once so the adds overlap; a matrix with its own RowSquaredNorms
// (core's normalized one) computes them factorized.
func RowSquaredNorms(m Matrix) []float64 {
	if f, ok := m.(interface{ RowSquaredNorms() []float64 }); ok {
		return f.RowSquaredNorms()
	}
	d, dense := m.(*Dense)
	c, sparse := m.(*CSR)
	if !dense && !sparse {
		return m.Pow(2).RowSums().Data()
	}
	out := make([]float64, m.Rows())
	rows := func(i, hi int) {
		for ; dense && i+4 <= hi; i += 4 {
			r0, r1, r2, r3 := d.Row(i), d.Row(i+1), d.Row(i+2), d.Row(i+3)
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
			var s0, s1, s2, s3 float64
			for j, v := range r0 {
				s0 += v * v
				s1 += r1[j] * r1[j]
				s2 += r2[j] * r2[j]
				s3 += r3[j] * r3[j]
			}
			out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			var vals []float64
			if dense {
				vals = d.Row(i)
			} else {
				_, vals = c.RowNNZ(i)
			}
			s := 0.0
			for _, v := range vals {
				s += v * v
			}
			out[i] = s
		}
	}
	work := len(out) * m.Cols()
	if sparse {
		work = c.NNZ()
	}
	parallelFor(len(out), work, rows)
	return out
}
