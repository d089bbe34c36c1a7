// Package realdata regenerates the seven real-world normalized datasets of
// the paper's Table 6 as statistical clones. The original Kaggle/Expedia/
// Yelp/etc. dumps are not redistributable, so each dataset is synthesized
// as sparse one-hot feature matrices with the published dimensions and
// non-zero counts (nS, dS, nnzS, q, nRi, dRi, nnzRi). The factorized-vs-
// materialized runtime behaviour depends only on these statistics, which is
// what the substitution preserves.
package realdata

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/la"
)

// TableStats describes one attribute table's published statistics.
type TableStats struct {
	NR, DR, NNZ int
}

// DatasetSpec mirrors one row of the paper's Table 6.
type DatasetSpec struct {
	Name   string
	NS     int
	DS     int
	NNZS   int
	Tables []TableStats
	// Scale divides all row counts (keeping columns and per-row nnz) so
	// benchmarks finish at laptop scale; 1 reproduces Table 6 exactly.
	Scale int
}

// Specs returns the seven datasets with the exact Table 6 statistics.
func Specs() []DatasetSpec {
	return []DatasetSpec{
		{Name: "Expedia", NS: 942142, DS: 27, NNZS: 5652852, Tables: []TableStats{
			{11939, 12013, 107451}, {37021, 40242, 555315}}},
		{Name: "Movies", NS: 1000209, DS: 0, NNZS: 0, Tables: []TableStats{
			{6040, 9509, 30200}, {3706, 3839, 81532}}},
		{Name: "Yelp", NS: 215879, DS: 0, NNZS: 0, Tables: []TableStats{
			{11535, 11706, 380655}, {43873, 43900, 307111}}},
		{Name: "Walmart", NS: 421570, DS: 1, NNZS: 421570, Tables: []TableStats{
			{2340, 2387, 23400}, {45, 53, 135}}},
		{Name: "LastFM", NS: 343747, DS: 0, NNZS: 0, Tables: []TableStats{
			{4099, 5019, 39992}, {50000, 50233, 250000}}},
		{Name: "Books", NS: 253120, DS: 0, NNZS: 0, Tables: []TableStats{
			{27876, 28022, 83628}, {49972, 53641, 249860}}},
		{Name: "Flights", NS: 66548, DS: 20, NNZS: 55301, Tables: []TableStats{
			{540, 718, 3240}, {3167, 6464, 22169}, {3170, 6467, 22190}}},
	}
}

// Scaled returns a copy with row counts divided by f (minimum 1 row) and
// non-zero counts shrunk proportionally.
func (s DatasetSpec) Scaled(f int) DatasetSpec {
	if f <= 1 {
		return s
	}
	out := s
	out.Scale = f
	out.NS = maxInt(s.NS/f, 1)
	out.NNZS = s.NNZS / f
	out.Tables = make([]TableStats, len(s.Tables))
	for i, t := range s.Tables {
		out.Tables[i] = TableStats{NR: maxInt(t.NR/f, 1), DR: maxInt(t.DR/f, 2), NNZ: maxInt(t.NNZ/f, t.NR/f)}
	}
	return out
}

// Dataset is a generated statistical clone: the normalized matrix plus a
// numeric target (binarized for classification workloads by the caller).
type Dataset struct {
	Spec DatasetSpec
	Norm *core.NormalizedMatrix
	Y    *la.Dense
}

// Generate builds the dataset clone. Entity features are dense-ish numeric
// columns stored sparse exactly when the published nnz says so; attribute
// features are one-hot-dominated sparse rows with nnz/nR non-zeros per row
// (at least one — the folded-in foreign key column of [28]).
func Generate(spec DatasetSpec, seed int64) (*Dataset, error) {
	if spec.NS <= 0 || len(spec.Tables) == 0 {
		return nil, fmt.Errorf("realdata: invalid spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	var s la.Mat
	if spec.DS > 0 {
		s = sparseNumeric(rng, spec.NS, spec.DS, spec.NNZS)
	}
	ks := make([]*la.Indicator, len(spec.Tables))
	rs := make([]la.Mat, len(spec.Tables))
	for i, t := range spec.Tables {
		assign := make([]int, spec.NS)
		// Zipf-ish skew: popular attribute tuples are referenced more,
		// matching real FK distributions.
		for j := range assign {
			if j < t.NR {
				assign[j] = j
			} else {
				assign[j] = skewedIndex(rng, t.NR)
			}
		}
		rng.Shuffle(len(assign), func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
		ks[i] = la.NewIndicator(assign, t.NR)
		rs[i] = sparseOneHot(rng, t.NR, t.DR, t.NNZ)
	}
	nm, err := core.NewStar(s, ks, rs)
	if err != nil {
		return nil, err
	}
	y := la.NewDense(spec.NS, 1)
	for i := 0; i < spec.NS; i++ {
		y.Set(i, 0, float64(rng.Intn(5)+1)) // rating-like numeric target
	}
	return &Dataset{Spec: spec, Norm: nm, Y: y}, nil
}

// BinaryY returns ±1 labels derived from the numeric target (above/below
// its midpoint), as the paper binarizes targets for logistic regression.
func (d *Dataset) BinaryY() *la.Dense {
	out := d.Y.Clone()
	for i, v := range out.Data() {
		if v >= 3 {
			out.Data()[i] = 1
		} else {
			out.Data()[i] = -1
		}
	}
	return out
}

// sparseNumeric builds an nS×dS matrix with exactly min(nnz, nS*dS)
// non-zero numeric entries spread row-first (entity tables in Table 6 are
// dense numeric blocks: nnz ≈ nS·dS).
func sparseNumeric(rng *rand.Rand, rows, cols, nnz int) la.Mat {
	if nnz >= rows*cols {
		d := la.NewDense(rows, cols)
		data := d.Data()
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		return d
	}
	perRow := nnz / rows
	b := la.NewCSRBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for c := 0; c < perRow && c < cols; c++ {
			b.Add(i, c, rng.NormFloat64())
		}
	}
	return b.Build()
}

// sparseOneHot builds an nR×dR matrix whose rows hold nnz/nR one-hot
// indicator entries at random columns (plus a value in column 0 so no row
// is empty), cloning the one-hot-encoded categorical attribute tables.
func sparseOneHot(rng *rand.Rand, rows, cols, nnz int) la.Mat {
	perRow := nnz / rows
	if perRow < 1 {
		perRow = 1
	}
	if perRow > cols {
		perRow = cols
	}
	b := la.NewCSRBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		b.Add(i, 0, 1)
		for c := 1; c < perRow; c++ {
			b.Add(i, 1+rng.Intn(cols-1), 1)
		}
	}
	return b.Build()
}

// skewedIndex draws from [0,n) with a mild popularity skew.
func skewedIndex(rng *rand.Rand, n int) int {
	u := rng.Float64()
	return int(u * u * float64(n))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
