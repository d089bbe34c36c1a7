package chunk

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/la"
)

// IntVector is an on-disk chunked int32 column (the foreign-key column of
// the out-of-core entity table). It reuses the float64 chunk files,
// storing keys as exact small floats. The key range observed at build
// time is kept so table constructors can validate references without
// re-reading the chunks.
type IntVector struct {
	m              *Matrix
	minKey, maxKey int32
}

// BuildIntVector spills a foreign-key column chunk-aligned with rows.
func BuildIntVector(store *Store, keys []int32, chunkRows int) (*IntVector, error) {
	m, err := Build(store, len(keys), 1, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			dst.Set(i-lo, 0, float64(keys[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	v := &IntVector{m: m}
	for i, k := range keys {
		if i == 0 || k < v.minKey {
			v.minKey = k
		}
		if i == 0 || k > v.maxKey {
			v.maxKey = k
		}
	}
	return v, nil
}

// Keys reads chunk ci and returns its decoded keys. It is safe to call
// concurrently (each call reads its own chunk), which lets parallel
// pipelines over an aligned Matrix fetch the matching key chunk from
// inside their workers.
func (v *IntVector) Keys(ci int) ([]int32, error) {
	c, err := v.m.readAt(ci, false)
	if err != nil {
		return nil, err
	}
	return v.decode(ci, c)
}

// decode validates and converts stored key chunk ci. The table
// constructors checked the build-time range [minKey, maxKey] against the
// arm once; a chunk that no longer fits it — a shard file edited on disk,
// a remote shard answering with another store's bytes — is an error
// naming the chunk here, not an index panic on a pipeline worker. A key
// is accepted only as the exact bits BuildIntVector stores (so -0.0, which
// compares equal to key 0, is refused too).
func (v *IntVector) decode(ci int, c *la.Dense) ([]int32, error) {
	keys := make([]int32, c.Rows())
	for i, f := range c.Data() {
		k := int32(f)
		if math.Float64bits(float64(k)) != math.Float64bits(f) || k < v.minKey || k > v.maxKey {
			return nil, fmt.Errorf("chunk: key chunk %s row %d holds %v, want an integer in [%d,%d]", v.m.paths[ci], i, f, v.minKey, v.maxKey)
		}
		keys[i] = k
	}
	return keys, nil
}

// Free releases the vector's chunk files.
func (v *IntVector) Free() error {
	if v == nil {
		return nil
	}
	return v.m.Free()
}

// AttrTable is one arm K·R of an out-of-core normalized matrix: the key
// column lives in chunked storage aligned with the scan, and the feature
// matrix is held either in memory (R: a star's attribute table, dense or
// CSR, much smaller than the join) or chunked on disk (Disk: an M:N base
// table, whose products are passes of their own over its chunks) —
// exactly one of the two.
type AttrTable struct {
	FK   *IntVector
	R    la.Mat
	Disk *Matrix
}

// Dims reports the arm's feature matrix shape.
func (a AttrTable) Dims() (rows, cols int) {
	if a.R != nil {
		return a.R.Rows(), a.R.Cols()
	}
	return a.Disk.rows, a.Disk.cols
}

// mul computes R·x in memory.
func (a AttrTable) mul(ex Exec, x *la.Dense) (*la.Dense, error) {
	if a.R != nil {
		return a.R.Mul(x), nil
	}
	return a.mapChunks(ex, x.Cols(), func(c *la.Dense) *la.Dense { return la.MatMul(c, x) })
}

// mapChunks computes an nR×cols result of a chunked R, each chunk's rows
// from the chunk alone.
func (a AttrTable) mapChunks(ex Exec, cols int, f func(c *la.Dense) *la.Dense) (*la.Dense, error) {
	out := la.NewDense(a.Disk.rows, cols)
	return out, a.Disk.pipeline(ex, false, nil, func(_, lo int, c la.Mat) (any, error) {
		copy(out.Data()[lo*cols:], f(c.(*la.Dense)).Data())
		return nil, nil
	}, nil)
}

// tmul computes Rᵀ·p.
func (a AttrTable) tmul(ex Exec, p *la.Dense) (*la.Dense, error) {
	if a.R != nil {
		return a.R.TMul(p), nil
	}
	return la.ScanTMul(MatOperand(ex, a.Disk), p)
}

// norms computes the per-row ‖r_i‖² as a column without forming R², as
// la.InMemory takes them (la.RowSquaredNorms: factorized for a nested arm).
func (a AttrTable) norms(ex Exec) (*la.Dense, error) {
	if a.R != nil {
		return la.ColVector(la.RowSquaredNorms(a.R)), nil
	}
	return a.mapChunks(ex, 1, func(c *la.Dense) *la.Dense { return la.ColVector(la.RowSquaredNorms(c)) })
}

// NormalizedTable is the out-of-core normalized matrix
// T = [S, K_1·R_1, ..., K_q·R_q]: the entity table S (dense or sparse,
// chunked) and every key column live on disk. A PK-FK join (q = 1) or a
// star keeps its attribute tables in memory; an M:N join (§3.6, Table 10)
// is the same matrix with no S and its base tables as chunked arms, each
// behind its row-selector column — T = [IS·S, IR·R] with |T'| rows.
type NormalizedTable struct {
	S     Mat // nS×dS on disk, dense or CSR chunks; nil when every column comes from an arm
	Attrs []AttrTable
}

// NewNormalizedTable builds the single-attribute-table (plain PK-FK) star.
func NewNormalizedTable(s *Matrix, fk *IntVector, r *la.Dense) (*NormalizedTable, error) {
	return NewStarTable(s, []AttrTable{{FK: fk, R: r}})
}

// NewStarTable validates every arm, the chunk alignment between S (when
// there is one) and every key column, and the key ranges.
func NewStarTable(s Mat, attrs []AttrTable) (*NormalizedTable, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("chunk: normalized table needs at least one attribute table")
	}
	for i, a := range attrs {
		if a.FK == nil || (a.R == nil) == (a.Disk == nil) {
			return nil, fmt.Errorf("chunk: attribute table %d needs FK and exactly one of R and Disk", i+1)
		}
	}
	nt := &NormalizedTable{S: s, Attrs: attrs}
	for i, a := range attrs {
		if a.FK.m.rows != nt.Rows() {
			return nil, fmt.Errorf("chunk: table has %d rows but FK%d has %d", nt.Rows(), i+1, a.FK.m.rows)
		}
		if a.FK.m.chunkRows != nt.ChunkRows() {
			return nil, fmt.Errorf("chunk: table chunked by %d rows but FK%d by %d", nt.ChunkRows(), i+1, a.FK.m.chunkRows)
		}
		// Reject out-of-range references here; IntVector.decode holds every
		// later read to the same range.
		if nR, _ := a.Dims(); a.FK.m.rows > 0 && (a.FK.minKey < 0 || int(a.FK.maxKey) >= nR) {
			return nil, fmt.Errorf("chunk: FK%d keys span [%d,%d] but R%d has %d rows", i+1, a.FK.minKey, a.FK.maxKey, i+1, nR)
		}
	}
	return nt, nil
}

// FromNormalized spills an in-memory normalized matrix given as
// core.New's parts, T = [IS·S, K_1·R_1, ..., K_q·R_q]. With is nil
// (PK-FK/star) S and the key columns go to disk and the attribute tables
// stay in memory as they are; with is set (M:N) S becomes the first arm
// behind is and every base table is chunked. Tables are spilled as dense
// chunks, row by row when they are a RowSource (an epoch view). On any
// error everything spilled so far is freed.
func FromNormalized(store *Store, s la.Mat, is *la.Indicator, ks []*la.Indicator, rs []la.Mat, chunkRows int) (*NormalizedTable, error) {
	if len(ks) != len(rs) {
		return nil, fmt.Errorf("chunk: %d key columns for %d attribute tables", len(ks), len(rs))
	}
	if is != nil && s == nil {
		return nil, fmt.Errorf("chunk: IS given without the S it selects rows of")
	}
	nt := &NormalizedTable{}
	fail := func(err error) (*NormalizedTable, error) {
		nt.Free()
		return nil, err
	}
	if is != nil { // M:N: the entity table is one more arm, behind its selector
		ks, rs = append([]*la.Indicator{is}, ks...), append([]la.Mat{s}, rs...)
	} else if s != nil {
		sm, err := spill(store, s, chunkRows)
		if err != nil {
			return nil, err
		}
		nt.S = sm
	}
	for t, k := range ks {
		var a AttrTable
		var err error
		if is == nil {
			a.R = rs[t]
		} else {
			a.Disk, err = spill(store, rs[t], chunkRows)
		}
		if err == nil {
			a.FK, err = BuildIntVector(store, k.Assignments(), chunkRows)
		}
		nt.Attrs = append(nt.Attrs, a) // before the check, so fail frees what a holds
		if err != nil {
			return fail(err)
		}
	}
	if _, err := NewStarTable(nt.S, nt.Attrs); err != nil {
		return fail(err)
	}
	return nt, nil
}

func spill(store *Store, m la.Mat, chunkRows int) (*Matrix, error) {
	if src, ok := m.(RowSource); ok {
		return FromRowSource(store, src, chunkRows)
	}
	return FromDense(store, m.Dense(), chunkRows)
}

// Rows reports the join output row count: nS for a PK-FK join, |T'| for
// an M:N one.
func (nt *NormalizedTable) Rows() int { return nt.scanned().Rows() }

// ChunkRows reports the chunk height of the scan: S and every key column
// are chunked alike.
func (nt *NormalizedTable) ChunkRows() int { return nt.scanned().ChunkRows() }

// scanned is what a pass over the table streams: S, or without one the
// first key column.
func (nt *NormalizedTable) scanned() Mat {
	if nt.S != nil {
		return nt.S
	}
	return nt.Attrs[0].FK.m
}

// Cols reports the logical column count dS + Σ dRi of the joined table.
func (nt *NormalizedTable) Cols() int {
	d := 0
	if nt.S != nil {
		d = nt.S.Cols()
	}
	for _, a := range nt.Attrs {
		_, cols := a.Dims()
		d += cols
	}
	return d
}

// NumTables reports the number of arms q.
func (nt *NormalizedTable) NumTables() int { return len(nt.Attrs) }

// Materialize spills the joined table [S, K_1·R_1, ...] into the table's
// store, chunked like the scan — the baseline input for Tables 9 and 10:
// core.JoinBlock per chunk (chunked arms are loaded whole for the pass),
// so building it costs the full n·d write.
func (nt *NormalizedTable) Materialize(ex Exec) (*Matrix, error) {
	o := nt.Operand(ex)
	rs, err := o.armMats()
	if err != nil {
		return nil, err
	}
	return scanToMatrix(ex, o.rows, false, o.Cols(), func(ci, lo int, c la.Mat) (*la.Dense, any, error) {
		b, err := o.load(ci, lo, c)
		if err != nil {
			return nil, nil, err
		}
		out := la.NewDense(b.Rows(), o.Cols())
		core.JoinBlock(out, b.Block, rs)
		return out, nil, nil
	}, nil)
}

// Free releases everything the table holds on disk: S, the key columns
// and any chunked arm.
func (nt *NormalizedTable) Free() error {
	var err error
	if nt.S != nil {
		err = nt.S.Free()
	}
	for _, a := range nt.Attrs {
		if e := a.FK.Free(); err == nil {
			err = e
		}
		if a.Disk != nil {
			if e := a.Disk.Free(); err == nil {
				err = e
			}
		}
	}
	return err
}
