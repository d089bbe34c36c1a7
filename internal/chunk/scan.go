package chunk

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Operand adapts a chunked table to la.Operand, the scan contract
// internal/ml's algorithms are written against, under one Exec. Every
// chunked representation is the same shape, T = [S, K_1·R_1, …, K_q·R_q]:
//
//	materialized  S = T (dense or CSR chunks), no arms
//	PK-FK / star  S on disk, each R_t in memory, each K_t a key column
//	M:N           S is zero columns wide; the arms are the two base tables,
//	              chunked on disk, and the scan streams the IS column
//
// A block is one chunk of S beside the aligned chunk of every key column.
// The star rewrite lives here once: prepare hoists R_t·X_Rt out of the
// scan and gathers it per block, the reducer scatter-adds K_tᵀP in block
// order and multiplies by R_tᵀ once at the end.
type Operand struct {
	ex   Exec
	rows Mat  // what the scan streams: S, or without one arm 0's key column
	feat bool // rows' chunks are S
	arms []AttrTable
	offs []int // offs[0] = dS, offs[t] the first column of arm t, offs[q] = d

	armNorms [][]float64 // per-arm ‖r_i‖², prepared on first use
}

// MatOperand views a chunked materialized table — dense or CSR — as a
// scan operand under ex: the way ml's algorithms run out of core.
func MatOperand(ex Exec, t Mat) *Operand { return newOperand(ex, t, true, nil) }

// Operand views the table as a scan operand under ex: ml's algorithms run
// factorized over it, reading only S and the key columns each pass, plus
// any chunked arm once per product or reduction.
func (nt *NormalizedTable) Operand(ex Exec) *Operand {
	return newOperand(ex, nt.scanned(), nt.S != nil, nt.Attrs)
}

func newOperand(ex Exec, rows Mat, feat bool, arms []AttrTable) *Operand {
	o := &Operand{ex: ex, rows: rows, feat: feat, arms: arms, offs: make([]int, len(arms)+1)}
	if feat {
		o.offs[0] = rows.Cols()
	}
	for t, a := range arms {
		_, cols := a.Dims()
		o.offs[t+1] = o.offs[t] + cols
	}
	return o
}

var _ la.Operand = (*Operand)(nil)

// Rows and Cols report the joined table's logical shape n×d.
func (o *Operand) Rows() int { return o.rows.Rows() }
func (o *Operand) Cols() int { return o.offs[len(o.arms)] }

// block is one chunk of the scan: S's rows and every arm's keys for them.
type block struct {
	ci, lo int
	c      la.Mat
	keys   [][]int32
}

func (b *block) Index() int { return b.ci }
func (b *block) Lo() int    { return b.lo }
func (b *block) Rows() int  { return b.c.Rows() }

// load completes the streamed chunk into a block with the aligned chunk
// of each key column, read on the worker that will use it.
func (o *Operand) load(ci, lo int, c la.Mat) (*block, error) {
	b := &block{ci: ci, lo: lo, c: c}
	if !o.feat { // the streamed chunk is arm 0's keys
		ks, err := o.arms[0].FK.decode(ci, c.(*la.Dense))
		if err != nil {
			return nil, err
		}
		b.c, b.keys = la.NewDense(c.Rows(), 0), append(b.keys, ks)
	}
	for _, a := range o.arms[len(b.keys):] {
		_, ks, err := a.FK.Keys(ci)
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, ks)
	}
	return b, nil
}

// Scan implements la.Operand on the chunk pipeline: step runs on the
// workers, merge and the Tᵀ·P scatter on the calling goroutine in chunk
// order, so results are bit-identical for every Exec. A step registered
// as a chunk op runs through StreamOp when every block is just a stored
// chunk, so on an exec-capable shard it executes where the chunk lives.
func (o *Operand) Scan(step la.Step, merge func(any) error) (la.Tall, *la.Dense, error) {
	m, tp, err := o.scan(step, merge)
	if m == nil {
		return nil, tp, err // not a nil *Matrix in a non-nil Tall
	}
	return m, tp, err
}

// scanPart is what one block sends to the ordered commit: the step's own
// part and the block's share of Tᵀ·P — the S-side product, plus the keys
// and rows of P (or its groups) the ordered scatter needs.
type scanPart struct {
	part   any
	top    *la.Dense
	keys   [][]int32
	p      *la.Dense
	groups []int32
}

// scan is Scan with the n-tall output as the matrix it is.
func (o *Operand) scan(step la.Step, merge func(any) error) (*Matrix, *la.Dense, error) {
	var red *tmulReducer
	if step.PCols > 0 {
		red = o.newReducer(step.PCols)
	}
	commit := func(ci int, v any) error {
		sp := v.(scanPart)
		if red != nil {
			red.merge(sp)
		}
		if merge != nil {
			return merge(sp.part)
		}
		return nil
	}
	out, err := o.stream(step, commit)
	if err != nil || red == nil {
		return out, nil, err
	}
	tp, err := red.finish()
	if err != nil && out != nil {
		out.Free()
		out = nil
	}
	return out, tp, err
}

// stream runs the step over every block — as a registered op when it has
// a name and every block is just a stored chunk — committing in order.
func (o *Operand) stream(step la.Step, commit func(ci int, v any) error) (*Matrix, error) {
	if step.Op != "" && len(o.arms) == 0 && step.OutCols == 0 {
		return nil, o.rows.StreamOp(o.ex, Op{Name: step.Op, Params: appendDenseBlob(nil, step.Params)}, commit)
	}
	do, err := o.prepare(step)
	if err != nil {
		return nil, err
	}
	mapFn := func(ci, lo int, c la.Mat) (*la.Dense, any, error) {
		b, err := o.load(ci, lo, c)
		if err != nil {
			return nil, nil, err
		}
		return do(b)
	}
	if step.OutCols > 0 {
		return scanToMatrix(o.ex, o.rows, step.OutCols, mapFn, commit)
	}
	return nil, o.rows.Stream(o.ex, func(ci, lo int, c la.Mat) (any, error) {
		_, part, err := mapFn(ci, lo, c)
		return part, err
	}, commit)
}

// prepare hoists the small side of the step's products out of the scan
// (the LMM rewrite of §3.3.3: R_t·X_Rt and each arm's row norms, once) and
// returns the per-block step: S_b·X_S plus the gathers, ‖s_i‖² plus each
// arm's ‖r_key‖², step.Do, then the block's share S_bᵀ·P_b of Tᵀ·P (group
// sums when the step returned Groups).
func (o *Operand) prepare(step la.Step) (func(*block) (*la.Dense, any, error), error) {
	var xS *la.Dense
	rx := make([]*la.Dense, len(o.arms)) // nRt×k partials
	if x := step.X; x != nil {
		if x.Rows() != o.Cols() {
			return nil, fmt.Errorf("chunk: Mul %dx%d · %dx%d", o.Rows(), o.Cols(), x.Rows(), x.Cols())
		}
		xS = x.SliceRowsDense(0, o.offs[0])
		for t, a := range o.arms {
			var err error
			if rx[t], err = a.mul(o.ex, x.SliceRowsDense(o.offs[t], o.offs[t+1])); err != nil {
				return nil, err
			}
		}
	}
	for t := len(o.armNorms); step.Norms && t < len(o.arms); t++ {
		nr, err := o.arms[t].norms(o.ex)
		if err != nil {
			return nil, err
		}
		o.armNorms = append(o.armNorms, nr)
	}
	return func(b *block) (*la.Dense, any, error) {
		var tx *la.Dense
		var norms []float64
		if xS != nil {
			tx = b.c.Mul(xS)
			for t, ks := range b.keys {
				for i, rid := range ks {
					dst := tx.Row(i)
					for j, v := range rx[t].Row(int(rid)) {
						dst[j] += v
					}
				}
			}
		}
		if step.Norms {
			norms = rowSquaredNorms(b.c)
			for t, ks := range b.keys {
				for i, rid := range ks {
					norms[i] += o.armNorms[t][rid]
				}
			}
		}
		r, err := step.Do(b, tx, norms)
		if err != nil {
			return nil, nil, err
		}
		sp := scanPart{part: r.Part}
		if step.PCols > 0 {
			if r.P == nil {
				sp.top = b.c.GroupTMul(r.Groups, step.PCols)
			} else {
				sp.top = b.c.TMul(r.P)
			}
			if sp.keys = b.keys; len(b.keys) > 0 {
				sp.p, sp.groups = r.P, r.Groups // only the scatter needs P's rows kept until the merge
			}
		}
		return r.Out, sp, nil
	}, nil
}

// mul computes T·x into a chunked matrix aligned with the scan: the
// whole-matrix LMM of every chunked representation.
func (o *Operand) mul(x *la.Dense) (*Matrix, error) {
	if x.Cols() == 0 && x.Rows() == o.Cols() { // the product is n×0: nothing to scan for
		return Build(o.rows.Store(), o.Rows(), 0, o.rows.ChunkRows(), func(int, int, *la.Dense) {})
	}
	out, _, err := o.scan(la.Step{X: x, OutCols: x.Cols(), Do: func(_ la.Block, tx *la.Dense, _ []float64) (la.Result, error) {
		return la.Result{Out: tx}, nil
	}}, nil)
	return out, err
}

// Gram implements la.Operand: TᵀT. A materialized table reduces the
// registered crossprod op over its chunks, so pushdown and zone-map skips
// apply. A normalized one runs the paper's efficient rewrite (Algorithm 2,
// with the §3.5 star generalization) in a single pass over the scan: per
// arm it scatter-adds K_tᵀS and the key counts, and for every pair of arms
// the cross gather K_aᵀ(K_b·R_b), so the off-diagonal R_aᵀK_aᵀK_bR_b blocks
// never materialize an indicator product; the arm-side blocks are
// assembled in memory afterwards. The cross gather needs random access to
// R_b's rows, so a chunked arm (M:N) is loaded whole for the pass.
func (o *Operand) Gram() (*la.Dense, error) {
	if len(o.arms) == 0 {
		return reduceExec(o.ex, o.rows, OpCrossProd(), o.Cols(), o.Cols())
	}
	rs, err := o.armMats()
	if err != nil {
		return nil, err
	}
	dS, q, offs := o.offs[0], len(o.arms), o.offs

	sts := la.NewDense(dS, dS)
	kts := make([]*la.Dense, q)    // K_tᵀS scatter-adds, nRt×dS
	counts := make([][]float64, q) // per-arm key multiplicities
	for t, r := range rs {
		kts[t] = la.NewDense(r.Rows(), dS)
		counts[t] = make([]float64, r.Rows())
	}
	// gab[a][b] (a<b) accumulates K_aᵀ(K_b·R_b): row ka_i gains R_b's row
	// kb_i for every joined tuple i.
	gab := make([][]*la.Dense, q)
	for a := 0; a < q; a++ {
		gab[a] = make([]*la.Dense, q)
		for b := a + 1; b < q; b++ {
			gab[a][b] = la.NewDense(rs[a].Rows(), rs[b].Cols())
		}
	}

	type part struct {
		cp *la.Dense
		*block
	}
	err = o.rows.Stream(o.ex, func(ci, lo int, c la.Mat) (any, error) {
		b, err := o.load(ci, lo, c)
		if err != nil {
			return nil, err
		}
		return part{b.c.CrossProd(), b}, nil
	}, func(ci int, v any) error {
		p := v.(part)
		sts.AddInPlace(p.cp)
		for i := 0; i < p.c.Rows(); i++ {
			for t := range p.keys {
				rid := int(p.keys[t][i])
				counts[t][rid]++
				scatterRowInto(kts[t].Row(rid), p.c, i)
			}
			for a := 0; a < q; a++ {
				for b := a + 1; b < q; b++ {
					scatterRowInto(gab[a][b].Row(int(p.keys[a][i])), rs[b], int(p.keys[b][i]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := la.NewDense(o.Cols(), o.Cols())
	out.SetBlock(0, 0, sts)
	for t, r := range rs {
		// Off-diagonal S block SᵀK_t·R_t = (R_tᵀ·(K_tᵀS))ᵀ.
		skr := r.TMul(kts[t]).TDense()
		out.SetBlock(0, offs[t], skr)
		out.SetBlock(offs[t], 0, skr.TDense())
		// Diagonal block crossprod(diag(counts)^½ · R_t).
		sq := make([]float64, len(counts[t]))
		for i, v := range counts[t] {
			sq[i] = math.Sqrt(v)
		}
		out.SetBlock(offs[t], offs[t], r.ScaleRows(sq).CrossProd())
		// Cross-arm blocks R_aᵀ·(K_aᵀK_b·R_b).
		for b := t + 1; b < q; b++ {
			blk := r.TMul(gab[t][b])
			out.SetBlock(offs[t], offs[b], blk)
			out.SetBlock(offs[b], offs[t], blk.TDense())
		}
	}
	return out, nil
}

// armMats holds every arm's feature matrix in memory (AttrTable.mat).
func (o *Operand) armMats() ([]la.Mat, error) {
	rs := make([]la.Mat, len(o.arms))
	for t, a := range o.arms {
		var err error
		if rs[t], err = a.mat(); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// NewTall implements la.Operand: an n×cols matrix chunked like the scan.
func (o *Operand) NewTall(cols int, fill func(*la.Dense)) (la.Tall, error) {
	m, err := Build(o.rows.Store(), o.Rows(), cols, o.rows.ChunkRows(), func(lo, hi int, dst *la.Dense) { fill(dst) })
	if err != nil {
		return nil, err
	}
	return m, nil
}

// tmulReducer accumulates the transposed LMM Tᵀ·P over a scan: S_bᵀ·P_b
// from the workers, the K_tᵀP scatter-adds in block order on the
// committer (for a one-hot P, join counts), R_tᵀ·(K_tᵀP) once in finish.
type tmulReducer struct {
	o   *Operand
	top *la.Dense   // Σ S_bᵀ·P_b
	ktx []*la.Dense // K_tᵀ·P scatter-adds, nRt×cols
}

func (o *Operand) newReducer(cols int) *tmulReducer {
	r := &tmulReducer{o: o, top: la.NewDense(o.offs[0], cols), ktx: make([]*la.Dense, len(o.arms))}
	for t, a := range o.arms {
		rows, _ := a.Dims()
		r.ktx[t] = la.NewDense(rows, cols)
	}
	return r
}

func (r *tmulReducer) merge(pt scanPart) {
	r.top.AddInPlace(pt.top)
	for t, ks := range pt.keys {
		for i, rid := range ks {
			dst := r.ktx[t].Row(int(rid))
			if pt.p == nil {
				dst[pt.groups[i]]++
				continue
			}
			for j, v := range pt.p.Row(i) {
				dst[j] += v
			}
		}
	}
}

func (r *tmulReducer) finish() (*la.Dense, error) {
	o, k := r.o, r.top.Cols()
	out := la.NewDense(o.Cols(), k)
	out.SetBlock(0, 0, r.top)
	for t, a := range o.arms {
		g, err := a.tmul(o.ex, r.ktx[t]) // R_tᵀ·(K_tᵀP)
		if err != nil {
			return nil, err
		}
		out.SetBlock(o.offs[t], 0, g)
	}
	return out, nil
}
