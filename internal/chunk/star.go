package chunk

import (
	"fmt"
	"math"

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

// Rows reports the number of keys.
func (v *IntVector) Rows() int { return v.m.rows }

// Keys reads chunk ci and returns its first-row offset plus the decoded
// keys. It is safe to call concurrently (each call reads its own chunk),
// which lets parallel pipelines over an aligned Matrix fetch the matching
// key chunk from inside their workers.
func (v *IntVector) Keys(ci int) (lo int, keys []int32, err error) {
	lo, _ = v.m.chunkBounds(ci)
	c, err := v.m.readAt(ci)
	if err != nil {
		return 0, nil, err
	}
	return lo, keysOf(c), nil
}

// keysOf decodes one stored key chunk.
func keysOf(c *la.Dense) []int32 {
	keys := make([]int32, c.Rows())
	for i, f := range c.Data() {
		keys[i] = int32(f)
	}
	return keys
}

// Free releases the vector's chunk files.
func (v *IntVector) Free() error { return v.m.Free() }

// AttrTable is one arm of an out-of-core star schema: the foreign-key
// column lives in chunked storage aligned with the entity table, while the
// (much smaller) attribute feature matrix R stays in memory — dense or CSR,
// anything implementing la.Mat.
type AttrTable struct {
	FK *IntVector
	R  la.Mat
}

// NormalizedTable is the out-of-core normalized matrix for a star-schema
// PK-FK join at ORE scale, T = [S, K_1·R_1, ..., K_q·R_q]: the entity
// table S (dense or sparse, chunked) and each foreign-key column live on
// disk, the attribute tables stay in memory. A single attribute table
// (q = 1) is the paper's plain PK-FK join; for M:N joins (Table 10) see
// MNTable.
type NormalizedTable struct {
	S     Mat // nS×dS on disk, dense or CSR chunks
	Attrs []AttrTable
}

// NewNormalizedTable builds the single-attribute-table (plain PK-FK) star.
func NewNormalizedTable(s *Matrix, fk *IntVector, r *la.Dense) (*NormalizedTable, error) {
	return NewStarTable(s, []AttrTable{{FK: fk, R: r}})
}

// NewStarTable validates chunk alignment between S and every foreign-key
// column.
func NewStarTable(s Mat, attrs []AttrTable) (*NormalizedTable, error) {
	if s == nil {
		return nil, fmt.Errorf("chunk: star table needs an entity table")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("chunk: star table needs at least one attribute table")
	}
	for i, a := range attrs {
		if a.FK == nil || a.R == nil {
			return nil, fmt.Errorf("chunk: attribute table %d is missing FK or R", i+1)
		}
		if a.FK.m.rows != s.Rows() {
			return nil, fmt.Errorf("chunk: S has %d rows but FK%d has %d", s.Rows(), i+1, a.FK.m.rows)
		}
		if a.FK.m.chunkRows != s.ChunkRows() {
			return nil, fmt.Errorf("chunk: S chunked by %d rows but FK%d by %d", s.ChunkRows(), i+1, a.FK.m.chunkRows)
		}
		// Reject out-of-range references here instead of index-panicking
		// on a pipeline worker mid-pass.
		if a.FK.m.rows > 0 && (a.FK.minKey < 0 || int(a.FK.maxKey) >= a.R.Rows()) {
			return nil, fmt.Errorf("chunk: FK%d keys span [%d,%d] but R%d has %d rows", i+1, a.FK.minKey, a.FK.maxKey, i+1, a.R.Rows())
		}
	}
	return &NormalizedTable{S: s, Attrs: attrs}, nil
}

// Rows reports the join output row count (= nS for a PK-FK join).
func (nt *NormalizedTable) Rows() int { return nt.S.Rows() }

// Cols reports the logical column count dS + Σ dRi of the joined table.
func (nt *NormalizedTable) Cols() int {
	d := nt.S.Cols()
	for _, a := range nt.Attrs {
		d += a.R.Cols()
	}
	return d
}

// NumTables reports the number of attribute tables q.
func (nt *NormalizedTable) NumTables() int { return len(nt.Attrs) }

// MulExec computes T·x (LMM, §3.3.3) for an in-memory x into a chunked
// result aligned with S: only the base table and key columns are read,
// never the joined nS×d output. For a DMM against an in-memory normalized
// B (appendix C), pass B.Dense(): it is the small side of the product.
func (nt *NormalizedTable) MulExec(ex Exec, x *la.Dense) (*Matrix, error) {
	return nt.Operand(ex).mul(x)
}

// TMulExec computes Tᵀ·x (RMM on the transpose) for an in-memory x: the S
// block streams Sᵀ·x chunk by chunk, each R block scatter-adds x's rows
// per join key in chunk order and multiplies by R_tᵀ once at the end.
func (nt *NormalizedTable) TMulExec(ex Exec, x *la.Dense) (*la.Dense, error) {
	return nt.Operand(ex).tmul(x)
}

// CrossProdExec computes TᵀT with the paper's efficient rewrite
// (Algorithm 2, with the §3.5 star-schema generalization) in a single pass
// over the chunked S and key columns. Per attribute table the pass
// scatter-adds K_tᵀS and the key counts; for every pair of attribute
// tables it scatter-adds the cross gather K_aᵀ(K_b·R_b), so the
// off-diagonal R_aᵀK_aᵀK_bR_b blocks never materialize an indicator
// product. The R-side blocks are assembled in memory afterwards.
func (nt *NormalizedTable) CrossProdExec(ex Exec) (*la.Dense, error) {
	o := nt.Operand(ex)
	dS, q, offs := nt.S.Cols(), nt.NumTables(), o.offs

	sts := la.NewDense(dS, dS)
	kts := make([]*la.Dense, q)    // K_tᵀS scatter-adds, nRt×dS
	counts := make([][]float64, q) // per-table key multiplicities
	for t, a := range nt.Attrs {
		kts[t] = la.NewDense(a.R.Rows(), dS)
		counts[t] = make([]float64, a.R.Rows())
	}
	// gab[a][b] (a<b) accumulates K_aᵀ(K_b·R_b): row ka_i gains R_b's row
	// kb_i for every joined tuple i.
	gab := make([][]*la.Dense, q)
	for a := 0; a < q; a++ {
		gab[a] = make([]*la.Dense, q)
		for b := a + 1; b < q; b++ {
			gab[a][b] = la.NewDense(nt.Attrs[a].R.Rows(), nt.Attrs[b].R.Cols())
		}
	}

	type part struct {
		cp *la.Dense
		*block
	}
	err := nt.S.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
		b, err := o.load(ci, lo, c)
		if err != nil {
			return nil, err
		}
		return part{c.CrossProd(), b}, nil
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
					scatterRowInto(gab[a][b].Row(int(p.keys[a][i])), nt.Attrs[b].R, int(p.keys[b][i]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := la.NewDense(nt.Cols(), nt.Cols())
	out.SetBlock(0, 0, sts)
	for t, a := range nt.Attrs {
		// Off-diagonal S block SᵀK_t·R_t = (R_tᵀ·(K_tᵀS))ᵀ.
		skr := a.R.TMul(kts[t]).TDense()
		out.SetBlock(0, offs[t], skr)
		out.SetBlock(offs[t], 0, skr.TDense())
		// Diagonal block crossprod(diag(counts)^½ · R_t).
		sq := make([]float64, len(counts[t]))
		for i, v := range counts[t] {
			sq[i] = math.Sqrt(v)
		}
		out.SetBlock(offs[t], offs[t], a.R.ScaleRows(sq).CrossProd())
		// Cross-attribute blocks R_aᵀ·(K_aᵀK_b·R_b).
		for b := t + 1; b < q; b++ {
			blk := a.R.TMul(gab[t][b])
			out.SetBlock(offs[t], offs[b], blk)
			out.SetBlock(offs[b], offs[t], blk.TDense())
		}
	}
	return out, nil
}

// scatterRowInto adds row i of src into dst, honoring sparsity.
func scatterRowInto(dst []float64, src la.Mat, i int) {
	switch t := src.(type) {
	case *la.Dense:
		for j, v := range t.Row(i) {
			dst[j] += v
		}
	case *la.CSR:
		idx, vals := t.RowNNZ(i)
		for k, j := range idx {
			dst[j] += vals[k]
		}
	default:
		for j := 0; j < src.Cols(); j++ {
			dst[j] += src.At(i, j)
		}
	}
}

// Free releases the on-disk base table and key columns.
func (nt *NormalizedTable) Free() error {
	err := nt.S.Free()
	for _, a := range nt.Attrs {
		if e := a.FK.Free(); err == nil {
			err = e
		}
	}
	return err
}
