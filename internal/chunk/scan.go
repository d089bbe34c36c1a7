package chunk

import (
	"fmt"

	"repro/internal/core"
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
// A block is one chunk of S beside the aligned chunk of every key column,
// run through core's rewrites (core.Block). The operand keeps only I/O,
// commit order and placement (a registered step runs where its chunk
// lives), and computes the arm-side products wherever an arm is held: in
// memory, or chunked on disk (M:N).
type Operand struct {
	ex   Exec
	rows Mat  // what the scan streams: S, or without one arm 0's key column
	feat bool // rows' chunks are S
	arms []AttrTable
	offs []int // offs[0] = dS, offs[t] the first column of arm t, offs[q] = d
	nR   []int // arm t's row count

	armNorms []*la.Dense      // per-arm ‖r_i‖² columns, prepared on first use
	free     chan *la.Buffers // blocks' workspaces, back from the ordered commit
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
	_, window := ex.depth()
	o := &Operand{ex: ex, rows: rows, feat: feat, arms: arms, offs: make([]int, len(arms)+1),
		free: make(chan *la.Buffers, window)}
	if feat {
		o.offs[0] = rows.Cols()
	}
	for t, a := range arms {
		rows, cols := a.Dims()
		o.offs[t+1], o.nR = o.offs[t]+cols, append(o.nR, rows)
	}
	return o
}

var _ la.Operand = (*Operand)(nil)

// Rows and Cols report the joined table's logical shape n×d.
func (o *Operand) Rows() int { return o.rows.Rows() }
func (o *Operand) Cols() int { return o.offs[len(o.arms)] }

// block is one chunk of the scan: S's rows, every arm's keys for them and
// the workspace its step writes.
type block struct {
	ci, lo int
	core.Block
	*la.Buffers
}

func (b *block) Index() int { return b.ci }
func (b *block) Lo() int    { return b.lo }
func (b *block) Rows() int  { return b.S.Rows() }

// load completes the streamed chunk into a block with the aligned chunk
// of each key column, read on the worker that will use it.
func (o *Operand) load(ci, lo int, c la.Mat) (*block, error) {
	b := &block{ci: ci, lo: lo, Block: core.Block{S: c}}
	if !o.feat { // the streamed chunk is arm 0's keys
		ks, err := o.arms[0].FK.decode(ci, c.(*la.Dense))
		if err != nil {
			return nil, err
		}
		b.S, b.Keys = la.NewDense(c.Rows(), 0), append(b.Keys, ks)
	}
	for _, a := range o.arms[len(b.Keys):] {
		ks, err := a.FK.Keys(ci)
		if err != nil {
			return nil, err
		}
		b.Keys = append(b.Keys, ks)
	}
	return b, nil
}

// Scan implements la.Operand on the chunk pipeline: step runs on the
// workers, merge and the Tᵀ·P scatter on the calling goroutine in chunk
// order, so results are bit-identical for every Exec, wherever a named
// step ran (stream).
func (o *Operand) Scan(step la.Step, merge func(any) error) (la.Tall, *la.Dense, error) {
	m, tp, err := o.scan(step, merge)
	if m == nil {
		return nil, tp, err // not a nil *Matrix in a non-nil Tall
	}
	return m, tp, err
}

// scanPart is what one block sends to the ordered commit: the step's own
// part and the block's share of Tᵀ·P — the S-side product, plus the keys
// and rows of P (or its groups) core.TMul's ordered merge scatters.
type scanPart struct {
	part   any
	top    *la.Dense
	keys   [][]int32
	p      *la.Dense
	groups []int32
	bufs   *la.Buffers // released once merged
}

// scan is Scan with the n-tall output as the matrix it is.
func (o *Operand) scan(step la.Step, merge func(any) error) (*Matrix, *la.Dense, error) {
	var red *core.TMul
	if step.PCols > 0 {
		red = core.NewTMul(o.offs[0], o.nR, step.PCols)
	}
	commit := func(ci int, v any) error {
		sp := v.(scanPart)
		if red != nil {
			red.Merge(sp.top, sp.keys, sp.p, sp.groups)
		}
		if sp.bufs != nil { // nil: a registered step's or a shard's partial
			select { // the free list holds at most the pass's in-flight window
			case o.free <- sp.bufs:
			default:
			}
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
	tp, err := red.Finish(func(t int, kp *la.Dense) (*la.Dense, error) { return o.arms[t].tmul(o.ex, kp) })
	if err != nil && out != nil {
		out.Free()
		out = nil
	}
	return out, tp, err
}

// stream runs the step over every block, committing in order; over a
// table with no arms a named step may run on the shards (/exec).
func (o *Operand) stream(step la.Step, commit func(ci int, v any) error) (*Matrix, error) {
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
	// Nothing keeps a streamed chunk past its map (products are new, steps
	// see only T_b·X and norms, keys decode anew), so its buffer recycles.
	if step.OutCols > 0 {
		return scanToMatrix(o.ex, o.rows, true, step.OutCols, mapFn, commit)
	}
	var op *execStep
	if step.Op != "" && len(o.arms) == 0 {
		op = &execStep{name: step.Op, params: step.Params, shape: stepShape(o.Cols(), step)}
	}
	return nil, o.rows.pipeline(o.ex, true, op, func(ci, lo int, c la.Mat) (any, error) {
		_, part, err := mapFn(ci, lo, c)
		return part, err
	}, commit)
}

// prepare hoists the small side of the step's products out of the scan —
// R_t·X_Rt and each arm's row norms, once — and returns the per-block
// step: core.MulBlock for T_b·X and for the rows' ‖t_i‖² (S_b's own plus
// the arms' gathered), step.Do, then the block's S-side share of Tᵀ·P.
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
	// A registered step's workspace is new for each block, never pooled:
	// pooling k-means' raised train-ooc's peak RSS 3 to 6 MB (2 vCPUs).
	pool := step.Op == ""
	return func(b *block) (*la.Dense, any, error) {
		var tx *la.Dense
		var norms []float64
		if pool {
			select { // a workspace a committed block gave back
			case b.Buffers = <-o.free:
			default:
			}
		}
		if b.Buffers == nil {
			b.Buffers = new(la.Buffers)
		}
		b.Start(b.Rows(), step.OutCols, step.PCols) // Out is always new: it is spilled, maybe after the commit
		if xS != nil {
			tx = b.TX(xS.Cols())
			core.MulBlock(tx, b.Block, xS, rx)
		}
		if step.Norms {
			norms = la.RowSquaredNorms(b.S)
			core.MulBlock(la.NewDenseData(len(norms), 1, norms), core.Block{Keys: b.Keys}, nil, o.armNorms)
		}
		r, err := step.Do(b, tx, norms)
		if err != nil {
			return nil, nil, err
		}
		sp := scanPart{part: r.Part}
		if pool {
			sp.bufs = b.Buffers
		}
		if step.PCols > 0 {
			sp.top = core.TMulBlock(b.S, r.P, r.Groups, step.PCols)
			if sp.keys = b.Keys; len(b.Keys) > 0 {
				sp.p, sp.groups = r.P, r.Groups // only the scatter needs P's rows kept until the merge
			}
		}
		return r.Out, sp, nil
	}, nil
}

// Gram implements la.Operand: TᵀT. A materialized table sums its chunks'
// CrossProd as the registered crossprod op (crossProd), so an exec-capable
// shard maps its chunks and only their partials travel back.
// A normalized one runs core.Gram's phases in a single pass over the scan,
// one block per chunk. The arm-side blocks need the arms' feature matrices
// in memory, so a chunked arm (M:N) is loaded whole for the pass.
func (o *Operand) Gram() (*la.Dense, error) {
	if len(o.arms) == 0 {
		g := la.NewDense(o.Cols(), o.Cols())
		if err := o.crossProd(func(_ int, v any) error { g.AddInPlace(v.(scanPart).top); return nil }); err != nil {
			return nil, err
		}
		return g, nil
	}
	rs, err := o.armMats()
	if err != nil {
		return nil, err
	}
	g := core.NewGram(o.offs[0], rs, false)
	err = o.rows.pipeline(o.ex, false, nil, func(ci, lo int, c la.Mat) (any, error) {
		b, err := o.load(ci, lo, c)
		if err != nil {
			return nil, err
		}
		return g.Block(b.Block), nil
	}, func(_ int, v any) error {
		v.(func())()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g.Finish(), nil
}

// crossProd commits each chunk's chunkᵀ·chunk, the top of a scanPart.
func (o *Operand) crossProd(commit func(ci int, v any) error) error {
	op := &execStep{name: "crossprod", shape: crossProdShape(o.Cols())}
	return o.rows.pipeline(o.ex, true, op, func(_, _ int, c la.Mat) (any, error) {
		return scanPart{top: c.CrossProd()}, nil
	}, commit)
}

// armMats holds every arm's feature matrix in memory, loading a chunked
// one whole: what a pass that needs the whole of R (Gram's arm-side
// blocks, Materialize's gathers) holds for its duration.
func (o *Operand) armMats() ([]la.Mat, error) {
	rs := make([]la.Mat, len(o.arms))
	for t, a := range o.arms {
		if rs[t] = a.R; a.R == nil {
			d, err := a.Disk.Dense()
			if err != nil {
				return nil, err
			}
			rs[t] = d
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
