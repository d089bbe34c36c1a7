// Package core implements the paper's primary contribution: the normalized
// matrix — a logical multi-matrix data type for join outputs — together with
// the full framework of algebraic rewrite rules (paper §3) that execute
// every Table 1 linear-algebra operator over the base-table matrices instead
// of the materialized join output.
//
// One representation covers all three schemas in the paper:
//
//		T = [ I_S·S , K_1·R_1 , ... , K_q·R_q ]
//
//	  - single PK-FK join (§3.1):   I_S = identity (stored as nil), q = 1;
//	  - star schema (§3.5):         I_S = nil, q ≥ 1;
//	  - M:N join (§3.6, app. D/E):  I_S, K_i are general row selectors, and
//	    the entity side S may be absent entirely (multi-table M:N).
//
// All operators honor a transpose flag instead of a second class (appendix
// A), and the heuristic decision rule of §3.7 predicts when factorized
// execution pays off.
//
// The rewrites that touch every row — the LMM (MulBlock), Tᵀ·P (TMul), the
// Gram matrix (Gram) and the join output (JoinBlock) — are each written
// once over a row block T_b = [S_b, K_b1·R_1, …, K_bq·R_q], in three
// phases: prepare the small side once per pass; compute each block's rows
// and partials, concurrently; merge the partials in ascending row order and
// finish. NormalizedMatrix drives them over its own rows as one block, with
// an M:N join's IS·S as arm 0; internal/chunk drives them chunk by chunk.
// The arm-side products (R_t·X_t before the blocks, R_tᵀ·(K_tᵀP) after)
// are the driver's, because only it knows where R_t lives. Both drivers run
// the same kernels in the same order, so a table held in one chunk gives
// the in-memory result bit for bit.
package core

import (
	"errors"
	"fmt"

	"repro/internal/la"
)

// NormalizedMatrix is the logical data type T ≡ (S, K1..Kq, R1..Rq) with an
// optional entity-side row selector I_S for M:N joins. It implements
// la.Matrix, so any LA script (and hence any ML algorithm written against
// la.Matrix) is automatically factorized when given a NormalizedMatrix, and
// la.Mat, so it can itself be S or an R_i of another one: a snowflake
// schema is a normalized matrix whose attribute table is normalized.
type NormalizedMatrix struct {
	s     la.Mat          // entity feature matrix; nil when dS == 0
	is    *la.Indicator   // row selector for S; nil means identity (PK-FK)
	ks    []*la.Indicator // per attribute table row selectors
	rs    []la.Mat        // attribute feature matrices
	nRows int             // logical rows of T (before transpose)
	dCols int             // logical cols of T: dS + Σ dRi
	trans bool            // transpose flag (appendix A)
}

var _ la.Mat = (*NormalizedMatrix)(nil)

var (
	// ErrShape is returned when base-table shapes are inconsistent.
	ErrShape = errors.New("core: inconsistent normalized matrix shapes")
	// ErrEmpty is returned when a normalized matrix would have no columns.
	ErrEmpty = errors.New("core: normalized matrix needs an entity table or at least one attribute table")
)

// NewPKFK builds the normalized matrix for a single PK-FK join
// T = [S, K·R] (§3.1). s may be nil when the entity table contributes no
// features beyond the key (dS = 0, as in the Movies and Yelp datasets).
func NewPKFK(s la.Mat, k *la.Indicator, r la.Mat) (*NormalizedMatrix, error) {
	return NewStar(s, []*la.Indicator{k}, []la.Mat{r})
}

// NewStar builds the normalized matrix for a star-schema multi-table PK-FK
// join T = [S, K1·R1, ..., Kq·Rq] (§3.5).
func NewStar(s la.Mat, ks []*la.Indicator, rs []la.Mat) (*NormalizedMatrix, error) {
	return newNormalized(s, nil, ks, rs)
}

// NewMN builds the normalized matrix for a two-table M:N equi-join
// T = [IS·S, IR·R] (§3.6).
func NewMN(s la.Mat, is, ir *la.Indicator, r la.Mat) (*NormalizedMatrix, error) {
	return newNormalized(s, is, []*la.Indicator{ir}, []la.Mat{r})
}

// NewMultiMN builds the normalized matrix for a multi-table M:N join
// T = [IR1·R1, ..., IRq·Rq] with no distinguished entity table (appendix E).
func NewMultiMN(irs []*la.Indicator, rs []la.Mat) (*NormalizedMatrix, error) {
	return newNormalized(nil, nil, irs, rs)
}

// New builds a normalized matrix from its general form
// T = [IS·S, K1·R1, ..., Kq·Rq]: is nil means the entity side needs no
// row expansion (PK-FK/star, T = [S, K·R...]). It generalizes the shape
// variants above for callers — like epoch snapshots — that rebuild a
// matrix over an arbitrary pre-validated join structure with fresh base
// tables.
func New(s la.Mat, is *la.Indicator, ks []*la.Indicator, rs []la.Mat) (*NormalizedMatrix, error) {
	return newNormalized(s, is, ks, rs)
}

func newNormalized(s la.Mat, is *la.Indicator, ks []*la.Indicator, rs []la.Mat) (*NormalizedMatrix, error) {
	if len(ks) != len(rs) {
		return nil, fmt.Errorf("%w: %d indicators for %d attribute tables", ErrShape, len(ks), len(rs))
	}
	if s == nil && len(ks) == 0 {
		return nil, ErrEmpty
	}
	if s == nil && is != nil {
		return nil, fmt.Errorf("%w: entity-side indicator without an entity table", ErrShape)
	}
	nRows := -1
	setRows := func(n int, what string) error {
		if nRows == -1 {
			nRows = n
			return nil
		}
		if nRows != n {
			return fmt.Errorf("%w: %s has %d rows, want %d", ErrShape, what, n, nRows)
		}
		return nil
	}
	dCols := 0
	if s != nil {
		if is != nil {
			if is.Cols() != s.Rows() {
				return nil, fmt.Errorf("%w: IS cols %d != S rows %d", ErrShape, is.Cols(), s.Rows())
			}
			if err := setRows(is.Rows(), "IS"); err != nil {
				return nil, err
			}
		} else if err := setRows(s.Rows(), "S"); err != nil {
			return nil, err
		}
		dCols += s.Cols()
	}
	for i, k := range ks {
		if k.Cols() != rs[i].Rows() {
			return nil, fmt.Errorf("%w: K%d cols %d != R%d rows %d", ErrShape, i+1, k.Cols(), i+1, rs[i].Rows())
		}
		if err := setRows(k.Rows(), fmt.Sprintf("K%d", i+1)); err != nil {
			return nil, err
		}
		dCols += rs[i].Cols()
	}
	if dCols == 0 {
		return nil, ErrEmpty
	}
	return &NormalizedMatrix{s: s, is: is, ks: ks, rs: rs, nRows: nRows, dCols: dCols}, nil
}

// S returns the entity feature matrix (may be nil).
func (m *NormalizedMatrix) S() la.Mat { return m.s }

// IS returns the entity-side row selector (nil means identity / PK-FK).
func (m *NormalizedMatrix) IS() *la.Indicator { return m.is }

// Ks returns the attribute-table indicator matrices.
func (m *NormalizedMatrix) Ks() []*la.Indicator { return m.ks }

// Rs returns the attribute feature matrices.
func (m *NormalizedMatrix) Rs() []la.Mat { return m.rs }

// NumTables reports the number of attribute tables q.
func (m *NormalizedMatrix) NumTables() int { return len(m.ks) }

// IsTransposed reports whether the transpose flag is set.
func (m *NormalizedMatrix) IsTransposed() bool { return m.trans }

// Rows reports the logical row count (after any transpose).
func (m *NormalizedMatrix) Rows() int {
	if m.trans {
		return m.dCols
	}
	return m.nRows
}

// Cols reports the logical column count (after any transpose).
func (m *NormalizedMatrix) Cols() int {
	if m.trans {
		return m.nRows
	}
	return m.dCols
}

// T returns the transpose by flipping the flag; no data moves (appendix A).
func (m *NormalizedMatrix) T() la.Matrix { return m.Transpose() }

// Transpose returns the transposed normalized matrix as a concrete type.
func (m *NormalizedMatrix) Transpose() *NormalizedMatrix {
	c := *m
	c.trans = !m.trans
	return &c
}

// withParts returns a copy with new feature matrices and identical
// indicators/flags; used by the element-wise rewrites.
func (m *NormalizedMatrix) withParts(s la.Mat, rs []la.Mat) *NormalizedMatrix {
	c := *m
	c.s = s
	c.rs = rs
	return &c
}

// arms returns T as its entity features beside its arms: an M:N join's
// IS·S is arm 0, behind IS, as chunk.FromNormalized spills it, and a T
// with no entity features has a zero-width S.
func (m *NormalizedMatrix) arms() (la.Mat, []*la.Indicator, []la.Mat) {
	if m.is != nil {
		return la.NewDense(m.nRows, 0), append([]*la.Indicator{m.is}, m.ks...), append([]la.Mat{m.s}, m.rs...)
	}
	if m.s == nil {
		return la.NewDense(m.nRows, 0), m.ks, m.rs
	}
	return m.s, m.ks, m.rs
}

// star returns T's rows as one block beside the arms' feature matrices.
func (m *NormalizedMatrix) star() (Block, []la.Mat) {
	s, ks, rs := m.arms()
	b := Block{S: s}
	for _, k := range ks {
		b.Keys = append(b.Keys, k.Assignments())
	}
	return b, rs
}

// Dense materializes T (or Tᵀ when the flag is set) as a dense matrix.
func (m *NormalizedMatrix) Dense() *la.Dense {
	b, rs := m.star()
	out := la.NewDense(m.nRows, m.dCols)
	JoinBlock(out, b, rs)
	if m.trans {
		return out.TDense()
	}
	return out
}

// Sparse materializes T in CSR form, preserving the sparsity of sparse base
// tables (used to give the materialized baseline a fair sparse format on
// the real-data workloads) in one pass over the output rows, each filled
// from its base-table rows. The transpose flag is honored.
func (m *NormalizedMatrix) Sparse() *la.CSR {
	ks, parts := m.ks, m.rs
	if m.s != nil {
		ks, parts = append([]*la.Indicator{m.is}, ks...), append([]la.Mat{m.s}, parts...)
	}
	out := la.JoinCSR(ks, parts)
	if m.trans {
		return out.TCSR()
	}
	return out
}

// NNZ reports the non-zeros of the logical (materialized) matrix without
// materializing it: each arm's per-row counts, weighted by how often a row
// is selected.
func (m *NormalizedMatrix) NNZ() int {
	s, ks, rs := m.arms()
	n := s.NNZ()
	for t, k := range ks {
		rowNNZ := perRowNNZ(rs[t])
		for _, src := range k.Assignments() {
			n += rowNNZ[src]
		}
	}
	return n
}

func perRowNNZ(x la.Mat) []int {
	x = rowAddressable(x)
	out := make([]int, x.Rows())
	for i := range out {
		if c, ok := x.(*la.CSR); ok {
			idx, _ := c.RowNNZ(i)
			out[i] = len(idx)
			continue
		}
		for _, v := range x.(*la.Dense).Row(i) {
			if v != 0 {
				out[i]++
			}
		}
	}
	return out
}

// At returns the logical element (i,j); intended for tests and small data,
// not hot loops.
func (m *NormalizedMatrix) At(i, j int) float64 {
	if m.trans {
		i, j = j, i
	}
	if i < 0 || i >= m.nRows || j < 0 || j >= m.dCols {
		panic(fmt.Sprintf("core: index (%d,%d) out of bounds %dx%d", i, j, m.nRows, m.dCols))
	}
	s, ks, rs := m.arms()
	if j < s.Cols() {
		return s.At(i, j)
	}
	j -= s.Cols()
	for t, r := range rs {
		if j < r.Cols() {
			return r.At(ks[t].ColOf(i), j)
		}
		j -= r.Cols()
	}
	panic("core: unreachable")
}

// Compact removes base-table tuples that never contribute to T (§3.1 and
// §3.7 preprocessing): attribute-table rows with no referencing foreign key
// and, for M:N joins, entity rows that match nothing. It returns a new
// normalized matrix; the receiver is unchanged.
func (m *NormalizedMatrix) Compact() *NormalizedMatrix {
	c := *m
	if m.is != nil {
		c.s, c.is = compactTable(m.s, m.is)
	}
	c.ks, c.rs = make([]*la.Indicator, len(m.ks)), make([]la.Mat, len(m.rs))
	for i, k := range m.ks {
		c.rs[i], c.ks[i] = compactTable(m.rs[i], k)
	}
	return &c
}

// compactTable drops the rows of r that indicator k never references and
// remaps k's column space accordingly.
func compactTable(r la.Mat, k *la.Indicator) (la.Mat, *la.Indicator) {
	counts := k.ColCounts()
	kept := make([]int32, 0, len(counts))
	perm := make([]int32, len(counts))
	for j, c := range counts {
		if c > 0 {
			perm[j] = int32(len(kept))
			kept = append(kept, int32(j))
		} else {
			perm[j] = -1
		}
	}
	if len(kept) == len(counts) {
		return r, k
	}
	sel := la.NewIndicatorInt32(kept, r.Rows())
	return sel.GatherMat(r), k.Permute(perm, len(kept))
}
