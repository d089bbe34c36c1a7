package chunk

import (
	"fmt"

	"repro/internal/la"
)

// MNTable is the out-of-core normalized matrix for an M:N join (Table 10):
// base tables S and R are chunked on disk, and the join is represented by
// the IS/IR row-selector columns, also chunked, with |T'| rows each. The
// materialized alternative would store |T'|·(dS+dR) cells — the quantity
// that explodes as the join-attribute domain shrinks.
type MNTable struct {
	S  *Matrix    // nS×dS
	R  *Matrix    // nR×dR
	IS *IntVector // |T'|×1
	IR *IntVector // |T'|×1
}

// NewMNTable validates the selector alignment and key ranges.
func NewMNTable(s, r *Matrix, is, ir *IntVector) (*MNTable, error) {
	if is.m.rows != ir.m.rows {
		return nil, fmt.Errorf("chunk: IS has %d rows but IR has %d", is.m.rows, ir.m.rows)
	}
	if is.m.chunkRows != ir.m.chunkRows {
		return nil, fmt.Errorf("chunk: IS chunked by %d rows but IR by %d", is.m.chunkRows, ir.m.chunkRows)
	}
	if is.m.rows > 0 {
		if is.minKey < 0 || int(is.maxKey) >= s.rows {
			return nil, fmt.Errorf("chunk: IS keys span [%d,%d] but S has %d rows", is.minKey, is.maxKey, s.rows)
		}
		if ir.minKey < 0 || int(ir.maxKey) >= r.rows {
			return nil, fmt.Errorf("chunk: IR keys span [%d,%d] but R has %d rows", ir.minKey, ir.maxKey, r.rows)
		}
	}
	return &MNTable{S: s, R: r, IS: is, IR: ir}, nil
}

// OutputRows reports |T'|, the join output cardinality.
func (t *MNTable) OutputRows() int { return t.IS.m.rows }

// Free releases every on-disk component of the table.
func (t *MNTable) Free() error {
	err := t.S.Free()
	for _, e := range []error{t.R.Free(), t.IS.Free(), t.IR.Free()} {
		if err == nil {
			err = e
		}
	}
	return err
}

// MaterializeMN spills the joined table [IS·S, IR·R] to chunked storage —
// the baseline input for Table 10. It streams selector chunks and gathers
// base rows, so building it costs the full |T'|·(dS+dR) write. Chunks are
// gathered and written in parallel; a mid-stream failure removes every
// chunk written so far.
func MaterializeMN(store *Store, t *MNTable) (*Matrix, error) {
	sD, err := t.S.Dense()
	if err != nil {
		return nil, err
	}
	rD, err := t.R.Dense()
	if err != nil {
		return nil, err
	}
	dS, dR := sD.Cols(), rD.Cols()
	paths, err := store.alloc(t.IS.m.NumChunks())
	if err != nil {
		return nil, err
	}
	err = t.IS.m.pipeline(Parallel(), func(ci, lo int, isChunk *la.Dense) (any, error) {
		_, irKeys, err := t.IR.Keys(ci)
		if err != nil {
			return nil, err
		}
		buf := la.NewDense(isChunk.Rows(), dS+dR)
		for i := 0; i < isChunk.Rows(); i++ {
			copy(buf.Row(i)[:dS], sD.Row(int(isChunk.At(i, 0))))
			copy(buf.Row(i)[dS:], rD.Row(int(irKeys[i])))
		}
		return nil, store.writeChunkFile(paths[ci], buf)
	}, nil)
	if err != nil {
		store.release(paths)
		return nil, err
	}
	return &Matrix{store: store, rows: t.OutputRows(), cols: dS + dR, chunkRows: t.IS.m.chunkRows, paths: paths}, nil
}
