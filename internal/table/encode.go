package table

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/la"
)

// Encoder turns a table's feature columns into a matrix: numeric columns
// become dense features, categorical columns one-hot sparse blocks. The
// feature layout is recorded so model weights can be traced back to
// columns.
type Encoder struct {
	// Features names each output matrix column, e.g. "Age" or
	// "Country=US".
	Features []string
	columns  []*Column
	// feature[i] holds the output columns of columns[i]: one for a numeric
	// column, feature[i][code] for the value Dict[code] of a categorical one
	// (its block is in sorted order).
	feature [][]int32
	sparse  bool
}

// NewEncoder plans the encoding for the given feature columns of t
// (Key columns are rejected — they are structure, not features).
func NewEncoder(t *Table, featureCols []string) (*Encoder, error) {
	e := &Encoder{}
	for _, name := range featureCols {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		if slices.Contains(e.columns, c) {
			return nil, fmt.Errorf("table: feature column %s.%s is listed twice", t.Name, name)
		}
		var feature []int32
		switch c.Kind {
		case Numeric:
			feature = []int32{int32(len(e.Features))}
			e.Features = append(e.Features, c.Name)
		case Categorical:
			feature = make([]int32, len(c.Dict))
			for _, v := range c.Vocabulary() {
				feature[c.index[v]] = int32(len(e.Features))
				e.Features = append(e.Features, c.Name+"="+v)
			}
			e.sparse = true
		default:
			return nil, fmt.Errorf("table: %s.%s is a %s column, not a feature", t.Name, c.Name, c.Kind)
		}
		e.columns = append(e.columns, c)
		e.feature = append(e.feature, feature)
	}
	if len(e.Features) == 0 {
		return nil, fmt.Errorf("table: no feature columns selected from %s", t.Name)
	}
	return e, nil
}

// Encode produces the feature matrix: CSR when any categorical column is
// present (one-hot dominated), dense otherwise. The CSR arrays are written
// row by row in feature order, so they are final as emitted; numeric zeros
// are not stored.
func (e *Encoder) Encode(rows int) la.Mat {
	if !e.sparse {
		out := la.NewDense(rows, len(e.Features))
		for off, c := range e.columns {
			for r := 0; r < rows; r++ {
				out.Set(r, off, c.Nums[r])
			}
		}
		return out
	}
	indptr := make([]int, rows+1)
	indices := make([]int32, 0, rows*len(e.columns))
	vals := make([]float64, 0, rows*len(e.columns))
	for r := 0; r < rows; r++ {
		for i, c := range e.columns {
			if c.Kind == Categorical {
				indices = append(indices, e.feature[i][c.Codes[r]])
				vals = append(vals, 1)
			} else if v := c.Nums[r]; v != 0 {
				indices = append(indices, e.feature[i][0])
				vals = append(vals, v)
			}
		}
		indptr[r+1] = len(indices)
	}
	return la.NewCSR(rows, len(e.Features), indptr, indices, vals)
}

// AttributeRef wires one attribute table into a star schema join.
type AttributeRef struct {
	// Table is the attribute table R_i.
	Table *Table
	// PrimaryKey is R_i's key column; ForeignKey is the referencing
	// column of the entity table.
	PrimaryKey string
	ForeignKey string
	// Features lists R_i's feature columns.
	Features []string
}

// JoinSpec describes a star-schema dataset declaratively.
type JoinSpec struct {
	// Entity is the fact table S.
	Entity *Table
	// EntityFeatures lists S's feature columns (may be empty).
	EntityFeatures []string
	// Target optionally names S's target column for supervised learning.
	Target string
	// Attributes are the dimension tables.
	Attributes []AttributeRef
}

// Build resolves keys, encodes features, and assembles the normalized
// matrix plus the target vector (nil if no target was named) — the end-to-
// end path from CSV base tables to a factorizable operand. No join is ever
// executed.
func Build(spec JoinSpec) (*core.NormalizedMatrix, *la.Dense, []string, error) {
	if spec.Entity == nil {
		return nil, nil, nil, fmt.Errorf("table: JoinSpec needs an entity table")
	}
	nS := spec.Entity.NumRows()
	var features []string
	var s la.Mat
	if len(spec.EntityFeatures) > 0 {
		enc, err := NewEncoder(spec.Entity, spec.EntityFeatures)
		if err != nil {
			return nil, nil, nil, err
		}
		s = enc.Encode(nS)
		features = append(features, enc.Features...)
	}
	ks := make([]*la.Indicator, 0, len(spec.Attributes))
	rs := make([]la.Mat, 0, len(spec.Attributes))
	for _, ref := range spec.Attributes {
		assign, err := ResolveForeignKey(spec.Entity, ref)
		if err != nil {
			return nil, nil, nil, err
		}
		enc, err := NewEncoder(ref.Table, ref.Features)
		if err != nil {
			return nil, nil, nil, err
		}
		ks = append(ks, la.NewIndicatorInt32(assign, ref.Table.NumRows()))
		rs = append(rs, enc.Encode(ref.Table.NumRows()))
		for _, f := range enc.Features {
			features = append(features, ref.Table.Name+"."+f)
		}
	}
	nm, err := core.NewStar(s, ks, rs)
	if err != nil {
		return nil, nil, nil, err
	}
	var y *la.Dense
	if spec.Target != "" {
		c, err := spec.Entity.Column(spec.Target)
		if err != nil {
			return nil, nil, nil, err
		}
		if c.Kind != Numeric {
			return nil, nil, nil, fmt.Errorf("table: target %s must be numeric", spec.Target)
		}
		y = la.ColVector(c.Nums)
	}
	return nm, y, features, nil
}
