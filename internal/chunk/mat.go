package chunk

import (
	"context"
	"fmt"

	"repro/internal/la"
)

// Mat is the chunked-operand interface: the out-of-core mirror of la.Mat,
// so every consumer (the scan operands internal/ml runs over, the star's
// streamed factorized operators) is written once against it, exactly as
// the in-memory rewrites are written once against la.Mat. Its one
// implementation is the chunked base below, under two chunk kinds: dense
// (*Matrix) and CSR (*SparseMatrix).
//
// pipeline is the fused-pass primitive: it delivers each decoded chunk as
// an la.Mat (concretely *la.Dense or *la.CSR), which carries the full
// Table 1 operator set, while commit receives per-chunk results strictly
// in chunk order — reductions stay bit-identical for every Exec.
type Mat interface {
	Rows() int
	Cols() int
	NumChunks() int
	ChunkRows() int
	BytesOnDisk() int64
	Store() *Store
	Free() error
	pipeline(ex Exec, own bool, op *execStep, mapFn func(ci, lo int, c la.Mat) (any, error), commit func(ci int, v any) error) error
}

var (
	_ Mat = (*Matrix)(nil)
	_ Mat = (*SparseMatrix)(nil)
)

// chunked is a chunked matrix up to its chunk kind: shape, chunking, the
// chunk files it owns, the pipeline over them and the whole-matrix
// operators. C is the decoded chunk type; kind names the chunk kind on the
// /exec wire and decode is its reader.
type chunked[C la.Mat] struct {
	store      *Store
	rows, cols int
	chunkRows  int
	paths      []string
	freed      bool
	kind       string
	decode     func(s *Store, key string, rows, cols int, own bool) (C, error)
}

// Rows reports the number of rows.
func (m *chunked[C]) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *chunked[C]) Cols() int { return m.cols }

// NumChunks reports the chunk count.
func (m *chunked[C]) NumChunks() int { return len(m.paths) }

// ChunkRows reports the chunk height.
func (m *chunked[C]) ChunkRows() int { return m.chunkRows }

// Store returns the chunk store backing this matrix.
func (m *chunked[C]) Store() *Store { return m.store }

// BytesOnDisk reports the matrix's storage footprint as the store tracks
// it: the bytes actually written for its chunks, not a shape-derived
// estimate.
// Zero once the matrix has been freed (its files are gone).
func (m *chunked[C]) BytesOnDisk() int64 { return m.store.trackedBytes(m.paths) }

// Free deletes the matrix's chunk files. Freeing is idempotent; streaming a
// freed matrix fails with ErrFreed. Free is not safe to race with an
// in-flight pipeline over the same matrix.
func (m *chunked[C]) Free() error {
	if m.freed {
		return nil
	}
	m.freed = true
	return m.store.release(m.paths)
}

func (m *chunked[C]) chunkBounds(i int) (lo, hi int) {
	lo = i * m.chunkRows
	return lo, min(lo+m.chunkRows, m.rows)
}

// readAt decodes chunk ci; with own, the caller recycles it after use.
func (m *chunked[C]) readAt(ci int, own bool) (C, error) {
	lo, hi := m.chunkBounds(ci)
	return m.decode(m.store, m.paths[ci], hi-lo, m.cols, own)
}

// pipeline runs the chunk pipeline under ex over every chunk of this
// matrix: mapFn on the workers with the decoded chunk and its first-row
// offset, commit on the calling goroutine in ascending chunk order, reads
// in that same order. With own, nothing mapFn returns may alias its chunk
// and nothing keeps the chunk once mapFn returns: its buffer goes back to
// the store's free list, which keeps at most the pass's in-flight window
// of them.
//
// With op, mapFn is a registered step, and the reader takes the partial of
// a chunk on an exec-capable shard off that shard's /exec stream in place
// of the chunk: placement is the store's, not an option. It visits a
// shard's chunks in the ascending order the stream delivers them, and a
// partial holds an admission ticket as a chunk does. Commits are in chunk
// order either way, so results are bit-identical with an all-local run.
// Any exec failure (no endpoint, unknown op, cut stream, corrupt or
// mis-shaped partial) sends that shard's remaining chunks down the local
// path. Every stream is closed by the time pipeline returns.
func (m *chunked[C]) pipeline(ex Exec, own bool, op *execStep, mapFn func(ci, lo int, c la.Mat) (any, error), commit func(ci int, v any) error) error {
	if m.freed {
		return ErrFreed
	}
	// Canceling ctx ends a Next the reader may be blocked in, so a failing
	// pass returns without waiting on a stalled shard.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := m.openExec(ctx, op)
	defer func() { // after the pipeline, whose reader has exited by then
		for _, s := range src {
			if s != nil && s.ps != nil {
				s.ps.Close()
				s.ps = nil
			}
		}
	}()
	fail := func(err error) error {
		if err != nil {
			cancel()
		}
		return err
	}
	type item struct {
		c    C
		part any // a shard's partial, in place of the chunk
	}
	_, window := ex.depth()
	return runPipeline(len(m.paths), ex,
		func(ci int) (item, error) {
			if ci < len(src) && src[ci] != nil && src[ci].ps != nil {
				s := src[ci]
				raw, err := s.ps.Next()
				var p scanPart
				if err == nil {
					p, err = op.shape.decodePartial(raw)
				}
				if err == nil {
					m.store.noteExecuted(s.shard)
					return item{part: p}, nil
				}
				s.ps.Close()
				s.ps = nil
				if ctx.Err() != nil {
					return item{}, err
				}
			}
			c, err := m.readAt(ci, own)
			return item{c: c}, err
		},
		func(ci int, it item) (any, error) {
			if it.part != nil {
				return it.part, nil
			}
			lo, _ := m.chunkBounds(ci)
			v, err := mapFn(ci, lo, it.c)
			if own {
				m.store.recycle(it.c, window)
			}
			return v, fail(err)
		},
		func(ci int, v any) error {
			if commit == nil {
				return nil
			}
			return fail(commit(ci, v))
		})
}

// execStream is a shard's /exec stream; only the pipeline's reader uses it.
type execStream struct {
	shard int
	ps    *PartialStream // nil once it failed or was closed
}

// openExec opens op's /exec stream on every exec-capable shard holding
// chunks of m, so they compute concurrently, and returns chunk ci's stream
// at ci (nil: the chunk is read).
func (m *chunked[C]) openExec(ctx context.Context, op *execStep) []*execStream {
	if op == nil {
		return nil
	}
	groups := m.store.execPlacement(m.paths)
	if len(groups) == 0 {
		return nil
	}
	wire := Op{Name: op.name}
	if op.params != nil {
		wire.Params = appendDenseBlob(nil, op.params)
	}
	src := make([]*execStream, len(m.paths))
	for _, g := range groups {
		chunks := make([]ExecChunk, len(g.cis))
		for i, ci := range g.cis {
			lo, hi := m.chunkBounds(ci)
			chunks[i] = ExecChunk{Key: m.paths[ci], Rows: hi - lo}
		}
		ps, err := g.eb.ExecOp(ctx, wire, m.kind, m.cols, chunks)
		if err != nil {
			continue
		}
		s := &execStream{shard: g.shard, ps: ps}
		for _, ci := range g.cis {
			src[ci] = s
		}
	}
	return src
}

// Stream is the chunk pipeline with each decoded chunk delivered as an
// la.Mat. mapFn may keep its chunk.
func (m *chunked[C]) Stream(ex Exec, mapFn func(ci, lo int, c la.Mat) (any, error), commit func(ci int, v any) error) error {
	return m.pipeline(ex, false, nil, mapFn, commit)
}

// CrossProdExec computes mᵀ·m under the given execution. The per-chunk
// cross-products run through the registered op, so they execute on the
// shard holding each chunk wherever that shard can.
func (m *chunked[C]) CrossProdExec(ex Exec) (*la.Dense, error) { return MatOperand(ex, m).Gram() }

// scanToMatrix streams t, spilling each chunk's mapped rows×outCols output
// as the aligned chunk of a new matrix (through the write-behind stage
// under a pipelined execution) while commit sees the parts in chunk order.
// With own, the mapped output must not alias the chunk, whose buffer is
// recycled (chunked.pipeline). On failure every output chunk written so far is
// removed.
func scanToMatrix(ex Exec, t Mat, own bool, outCols int, mapFn func(ci, lo int, c la.Mat) (*la.Dense, any, error), commit func(ci int, v any) error) (*Matrix, error) {
	sp, err := newOutputSpiller(t.Store(), t.NumChunks(), ex, false)
	if err != nil {
		return nil, err
	}
	err = t.pipeline(ex, own, nil, func(ci, lo int, c la.Mat) (any, error) {
		out, part, err := mapFn(ci, lo, c)
		if err != nil {
			return nil, err
		}
		if out.Rows() != c.Rows() || out.Cols() != outCols {
			return nil, fmt.Errorf("chunk: mapped chunk is %dx%d, want %dx%d", out.Rows(), out.Cols(), c.Rows(), outCols)
		}
		return part, sp.emit(ci, out)
	}, commit)
	paths, err := sp.finish(err)
	if err != nil {
		return nil, err
	}
	return newMatrix(t.Store(), t.Rows(), outCols, t.ChunkRows(), paths), nil
}

// AutoRows picks a chunk height from a memory budget: a pass under
// Exec{Workers: workers} keeps at most its window of decoded input chunks
// resident (admission tickets, see runPipeline and Exec.depth) —
// 3·workers+1 for workers > 1, two for the serial loop — so the chunk
// height that fills memBudgetBytes is
//
//	chunkRows = memBudgetBytes / (window · cols · 8)
//
// clamped to [1, 1<<20]. workers<=0 means GOMAXPROCS, matching Exec. The
// fourth argument is unused: the lookahead follows from workers. Use it
// instead of hard-coding chunk heights: it keeps the same pass under the
// same budget whether the table is wide or narrow and whether one worker
// or thirty-two are running.
//
// The budget covers the decoded *input* chunks. Passes that spill a chunked
// output (a scan step with OutCols, Materialize) additionally hold up to
// workers+spillQueueDepth+1 output chunks per shard (one per busy worker
// plus the bounded write-behind queues); a chunk is written from its own
// storage, with no encoded copy. When the output is as wide as the input,
// size the budget for roughly twice the pass's input residency.
//
// A small budget degrades gracefully: the chunk height shrinks with the
// budget but never under one row, so the pass stays within (or as close
// as physically possible to) the budget instead of silently
// overcommitting it. AutoRowsChecked additionally reports when even
// one-row chunks exceed the budget.
func AutoRows(memBudgetBytes int64, cols, workers, _ int) int {
	rows, _ := AutoRowsChecked(memBudgetBytes, cols, workers)
	return rows
}

// AutoRowsChecked is AutoRows with an explicit infeasibility signal: the
// returned chunk height is always usable (≥ 1 row), and the error is
// non-nil when the budget cannot hold even one row of the operand per
// resident chunk — the caller is about to stream wider than its memory
// bound and should raise the budget or narrow the operand.
func AutoRowsChecked(memBudgetBytes int64, cols, workers int) (int, error) {
	const maxRows = 1 << 20
	if cols <= 0 {
		cols = 1
	}
	_, window := Exec{Workers: workers}.depth()
	resident := int64(window) * int64(cols) * 8
	rows := memBudgetBytes / resident
	switch {
	case rows < 1:
		return 1, fmt.Errorf("chunk: memory budget %d B cannot hold one %d-column row in each of the %d resident chunks (needs %d B); clamping to 1-row chunks",
			memBudgetBytes, cols, window, resident)
	case rows > maxRows:
		return maxRows, nil
	default:
		return int(rows), nil
	}
}
