package chunk

import (
	"fmt"

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
	rows Mat          // what the scan streams: S, or the first key column
	feat bool         // rows' chunks are S (else they are arm 0's keys)
	keys []*IntVector // the remaining key columns, read beside each block
	arms []arm
	offs []int // offs[0] = dS, offs[t] the first column of arm t, offs[q] = d

	armNorms [][]float64 // per-arm ‖r_i‖², prepared on first use
}

// arm is one joined table: in memory (a star's R_t) or itself chunked (an
// M:N base table, whose products are passes of their own over its chunks).
type arm struct {
	mem  la.Mat
	disk *Matrix
}

func (a arm) dims() (rows, cols int) {
	if a.mem != nil {
		return a.mem.Rows(), a.mem.Cols()
	}
	return a.disk.rows, a.disk.cols
}

// mul computes R·x in memory.
func (a arm) mul(ex Exec, x *la.Dense) (*la.Dense, error) {
	if a.mem != nil {
		return a.mem.Mul(x), nil
	}
	out := la.NewDense(a.disk.rows, x.Cols())
	return out, a.disk.pipeline(ex, func(ci, lo int, c *la.Dense) (any, error) {
		copy(out.Data()[lo*x.Cols():], la.MatMul(c, x).Data())
		return nil, nil
	}, nil)
}

// tmul computes Rᵀ·p.
func (a arm) tmul(ex Exec, p *la.Dense) (*la.Dense, error) {
	if a.mem != nil {
		return a.mem.TMul(p), nil
	}
	return a.disk.TMulExec(ex, p)
}

func (a arm) norms(ex Exec) ([]float64, error) {
	if a.mem != nil {
		return rowSquaredNorms(a.mem), nil
	}
	out := make([]float64, a.disk.rows)
	return out, a.disk.pipeline(ex, func(ci, lo int, c *la.Dense) (any, error) {
		copy(out[lo:], rowSquaredNorms(c))
		return nil, nil
	}, nil)
}

// MatOperand views a chunked materialized table — dense or CSR — as a
// scan operand under ex: the way ml's algorithms run out of core.
func MatOperand(ex Exec, t Mat) *Operand { return newOperand(ex, t, true, nil, nil) }

// Operand views the star as a scan operand under ex: ml's algorithms run
// factorized over it, reading only S and the key columns each pass.
func (nt *NormalizedTable) Operand(ex Exec) *Operand {
	keys := make([]*IntVector, len(nt.Attrs))
	arms := make([]arm, len(nt.Attrs))
	for t, a := range nt.Attrs {
		keys[t], arms[t] = a.FK, arm{mem: a.R}
	}
	return newOperand(ex, nt.S, true, keys, arms)
}

// Operand views the M:N join as a scan operand under ex: a pass streams
// the selector columns; a product or reduction reads the base tables once.
func (t *MNTable) Operand(ex Exec) *Operand {
	return newOperand(ex, t.IS.m, false, []*IntVector{t.IR}, []arm{{disk: t.S}, {disk: t.R}})
}

func newOperand(ex Exec, rows Mat, feat bool, keys []*IntVector, arms []arm) *Operand {
	o := &Operand{ex: ex, rows: rows, feat: feat, keys: keys, arms: arms, offs: make([]int, len(arms)+1)}
	if feat {
		o.offs[0] = rows.Cols()
	}
	for t, a := range arms {
		_, cols := a.dims()
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
	if !o.feat {
		b.c, b.keys = la.NewDense(c.Rows(), 0), append(b.keys, keysOf(c.(*la.Dense)))
	}
	for _, kv := range o.keys {
		_, ks, err := kv.Keys(ci)
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
// chunk, so with ex.Pushdown it executes on the shard holding each one.
func (o *Operand) Scan(step la.Step, merge func(any) error) (la.Tall, *la.Dense, error) {
	m, tp, err := o.scan(step, merge)
	if m == nil {
		return nil, tp, err // not a nil *Matrix in a non-nil Tall
	}
	return m, tp, err
}

// scanPart is what one block sends to the ordered commit: the step's own
// part and the block's share of Tᵀ·P — the S-side product, plus the keys
// and rows of P the ordered scatter needs.
type scanPart struct {
	part any
	top  *la.Dense
	keys [][]int32
	p    *la.Dense
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
// arm's ‖r_key‖², step.Do, then the block's share S_bᵀ·P_b of Tᵀ·P.
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
			sp.top, sp.keys = b.c.TMul(r.P), b.keys
			if len(b.keys) > 0 {
				sp.p = r.P // only the scatter needs P's rows kept until the merge
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

// tmul computes Tᵀ·x for an in-memory x: the whole-matrix transposed LMM.
func (o *Operand) tmul(x *la.Dense) (*la.Dense, error) {
	if x.Rows() != o.Rows() {
		return nil, fmt.Errorf("chunk: TMul %dx%dᵀ · %dx%d", o.Rows(), o.Cols(), x.Rows(), x.Cols())
	}
	if x.Cols() == 0 {
		return la.NewDense(o.Cols(), 0), nil
	}
	_, tp, err := o.scan(la.Step{PCols: x.Cols(), Do: func(b la.Block, _ *la.Dense, _ []float64) (la.Result, error) {
		return la.Result{P: x.SliceRowsDense(b.Lo(), b.Lo()+b.Rows())}, nil
	}}, nil)
	return tp, err
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
// committer, R_tᵀ·(K_tᵀP) once in finish.
type tmulReducer struct {
	o   *Operand
	top *la.Dense   // Σ S_bᵀ·P_b
	ktx []*la.Dense // K_tᵀ·P scatter-adds, nRt×cols
}

func (o *Operand) newReducer(cols int) *tmulReducer {
	r := &tmulReducer{o: o, top: la.NewDense(o.offs[0], cols), ktx: make([]*la.Dense, len(o.arms))}
	for t, a := range o.arms {
		rows, _ := a.dims()
		r.ktx[t] = la.NewDense(rows, cols)
	}
	return r
}

func (r *tmulReducer) merge(pt scanPart) {
	r.top.AddInPlace(pt.top)
	for t, ks := range pt.keys {
		for i, rid := range ks {
			dst := r.ktx[t].Row(int(rid))
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
