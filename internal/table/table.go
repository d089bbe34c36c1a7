// Package table is the relational ingestion layer in front of the
// normalized matrix: typed columnar tables, CSV input, key resolution, and
// feature encoding. The paper assumes this machinery exists in the host
// environment (§3.2 constructs the indicator matrix from a foreign-key
// column with R's sparseMatrix); here it is part of the system, so a
// downstream user can go from raw CSV base tables to a factorized model
// without writing matrix code.
package table

import (
	"fmt"
	"slices"
)

// ColumnKind classifies a column's role and type.
type ColumnKind int

const (
	// Numeric columns become one dense feature each.
	Numeric ColumnKind = iota
	// Categorical columns are one-hot encoded into sparse features.
	Categorical
	// Key columns hold primary/foreign keys and are not features.
	Key
)

// String renders the kind for error messages.
func (k ColumnKind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Key:
		return "key"
	default:
		return fmt.Sprintf("ColumnKind(%d)", int(k))
	}
}

// Column is one typed column of a table.
type Column struct {
	Name string
	Kind ColumnKind
	// Nums holds values for Numeric columns.
	Nums []float64
	// Codes and Dict hold Categorical and Key columns: row r's value is
	// Dict[Codes[r]], and Dict lists the distinct values in the order they
	// first appear.
	Codes []uint32
	Dict  []string
	index map[string]uint32 // Dict value → code
}

// Table is a named columnar table.
type Table struct {
	Name string
	Cols []*Column
	rows int
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.rows }

// Column returns the named column or an error.
func (t *Table) Column(name string) (*Column, error) {
	for _, c := range t.Cols {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("table: %s has no column %q", t.Name, name)
}

// ResolveForeignKey maps the entity's foreign-key column to row numbers of
// ref's table: the assignment vector of the indicator matrix (§3.2). The
// primary key must be unique — then a value's code, its rank by first
// appearance, is its row (§3.1) — and every foreign key must resolve: one
// lookup per distinct value, one array read per row.
func ResolveForeignKey(entity *Table, ref AttributeRef) ([]int32, error) {
	pk, err := ref.Table.Column(ref.PrimaryKey)
	if err != nil {
		return nil, err
	}
	fk, err := entity.Column(ref.ForeignKey)
	if err != nil {
		return nil, err
	}
	if pk.Kind == Numeric {
		return nil, fmt.Errorf("table: key column %s.%s must not be numeric", ref.Table.Name, pk.Name)
	} else if fk.Kind == Numeric {
		return nil, fmt.Errorf("table: foreign key column %s.%s must not be numeric", entity.Name, fk.Name)
	}
	for r, code := range pk.Codes {
		if int(code) != r {
			return nil, fmt.Errorf("table: duplicate primary key %q at %s.%s row %d", pk.Dict[code], ref.Table.Name, pk.Name, r)
		}
	}
	target := make([]int32, len(fk.Dict))
	for code, v := range fk.Dict {
		row, ok := pk.index[v]
		if target[code] = int32(row); !ok {
			target[code] = -1
		}
	}
	out := make([]int32, len(fk.Codes))
	for r, code := range fk.Codes {
		if out[r] = target[code]; out[r] < 0 {
			return nil, fmt.Errorf("table: dangling foreign key %q at %s.%s row %d", fk.Dict[code], entity.Name, fk.Name, r)
		}
	}
	return out, nil
}

// Vocabulary is the sorted distinct values of a categorical column; the
// one-hot feature space.
func (c *Column) Vocabulary() []string { return slices.Sorted(slices.Values(c.Dict)) }
