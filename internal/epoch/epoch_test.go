package epoch

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// EntityRows reports the entity table's tuple count (0 when absent).
func (st *Store) EntityRows() int {
	if st.bases[0] == nil {
		return 0
	}
	return st.bases[0].Rows()
}

// AttrRows reports attribute table t's tuple count nR_t.
func (st *Store) AttrRows(t int) int { return st.bases[1+t].Rows() }

// AttrCols reports attribute table t's feature width dR_t.
func (st *Store) AttrCols(t int) int { return st.bases[1+t].Cols() }

// PatchedRows reports how many rows the current epoch's overlays patch
// over the base tables (summed across tables) — the copy-on-write
// footprint serving pays per snapshot, and a rough measure of when
// re-basing the store would pay off.
func (st *Store) PatchedRows() int {
	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()
	n := 0
	for _, ov := range cur.overlays {
		n += len(ov)
	}
	return n
}

// diffTol matches the repo-wide differential budget: patched reads must
// agree with rebuilt-from-scratch state far tighter than 1e-12.
const diffTol = 1e-12

func randDense(rng *rand.Rand, rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	return d
}

func randMatE(rng *rand.Rand, rows, cols int, sparse bool) la.Mat {
	d := randDense(rng, rows, cols)
	if sparse {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.6 {
					d.Set(i, j, 0)
				}
			}
		}
		return la.CSRFromDense(d)
	}
	return d
}

func randIndicatorE(rng *rand.Rand, rows, cols int) *la.Indicator {
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = rng.Intn(cols)
	}
	return la.NewIndicator(assign, cols)
}

func randRow(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// pkfkStore builds a versioned store over a random PK-FK schema.
func pkfkStore(t *testing.T, rng *rand.Rand, sparse bool) *Store {
	t.Helper()
	nS, nR := 20+rng.Intn(20), 4+rng.Intn(6)
	nm, err := core.NewPKFK(randMatE(rng, nS, 3, sparse), randIndicatorE(rng, nS, nR), randMatE(rng, nR, 4, sparse))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestUpsertValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := pkfkStore(t, rng, false)
	if err := st.UpsertEntity(-1, randRow(rng, st.EntityCols())); !errors.Is(err, ErrRowRange) {
		t.Fatalf("negative row: got %v", err)
	}
	if err := st.UpsertEntity(st.EntityRows(), randRow(rng, st.EntityCols())); !errors.Is(err, ErrRowRange) {
		t.Fatalf("row past end: got %v", err)
	}
	if err := st.UpsertEntity(0, randRow(rng, st.EntityCols()+1)); !errors.Is(err, ErrWidth) {
		t.Fatalf("wrong width: got %v", err)
	}
	if err := st.UpsertAttr(1, 0, randRow(rng, st.AttrCols(0))); !errors.Is(err, ErrTableRange) {
		t.Fatalf("table out of range: got %v", err)
	}
	if err := st.UpsertAttr(0, st.AttrRows(0), randRow(rng, st.AttrCols(0))); !errors.Is(err, ErrRowRange) {
		t.Fatalf("attr row past end: got %v", err)
	}

	// Non-finite values are refused before they are staged: once committed
	// they would survive every incremental patch of the row (NaN − NaN).
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := randRow(rng, st.EntityCols())
		v[len(v)-1] = bad
		if err := st.UpsertEntity(0, v); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("entity upsert of %g: got %v", bad, err)
		}
		v = randRow(rng, st.AttrCols(0))
		v[0] = bad
		if err := st.UpsertAttr(0, 0, v); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("attr upsert of %g: got %v", bad, err)
		}
	}
	if n := st.Pending(); n != 0 {
		t.Fatalf("%d rows staged by rejected upserts, want 0", n)
	}

	// A schema without entity features rejects entity upserts.
	nm, err := core.NewPKFK(nil, randIndicatorE(rng, 10, 3), randDense(rng, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.UpsertEntity(0, []float64{}); !errors.Is(err, ErrNoEntity) {
		t.Fatalf("no-entity upsert: got %v", err)
	}
}

func TestCommitDeltasAndVersioning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := pkfkStore(t, rng, false)
	base := st.Pin()
	defer base.Release()

	if st.Version() != 1 {
		t.Fatalf("fresh store at version %d, want 1", st.Version())
	}
	// Empty commit: no new epoch, no delta.
	c, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 1 || c.RowsChanged() != 0 {
		t.Fatalf("empty commit: version %d changed %d", c.Version, c.RowsChanged())
	}

	oldE := make([]float64, st.EntityCols())
	base.S().(*viewMat).ReadRow(3, oldE)
	newE := randRow(rng, st.EntityCols())
	if err := st.UpsertEntity(3, newE); err != nil {
		t.Fatal(err)
	}
	// Last write wins within an epoch.
	newE2 := randRow(rng, st.EntityCols())
	if err := st.UpsertEntity(3, newE2); err != nil {
		t.Fatal(err)
	}
	newA := randRow(rng, st.AttrCols(0))
	if err := st.UpsertAttr(0, 1, newA); err != nil {
		t.Fatal(err)
	}
	if st.Pending() != 2 {
		t.Fatalf("pending %d, want 2", st.Pending())
	}

	c, err = st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 2 || st.Version() != 2 {
		t.Fatalf("commit version %d store %d, want 2", c.Version, st.Version())
	}
	if st.Pending() != 0 {
		t.Fatalf("pending after commit: %d", st.Pending())
	}
	if c.Entity == nil || len(c.Entity.Rows) != 1 || c.Entity.Rows[0] != 3 {
		t.Fatalf("entity delta %+v", c.Entity)
	}
	for j := range oldE {
		if c.Entity.Old[0][j] != oldE[j] || c.Entity.New[0][j] != newE2[j] {
			t.Fatalf("entity delta values wrong at col %d", j)
		}
	}
	if c.Attrs[0] == nil || len(c.Attrs[0].Rows) != 1 || c.Attrs[0].Rows[0] != 1 {
		t.Fatalf("attr delta %+v", c.Attrs[0])
	}

	// Second commit to the same attr row must report the epoch-2 value as Old.
	newA2 := randRow(rng, st.AttrCols(0))
	if err := st.UpsertAttr(0, 1, newA2); err != nil {
		t.Fatal(err)
	}
	c2, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for j := range newA {
		if c2.Attrs[0].Old[0][j] != newA[j] {
			t.Fatalf("old value at col %d is %g, want previous-epoch %g", j, c2.Attrs[0].Old[0][j], newA[j])
		}
	}
	if c2.Entity != nil {
		t.Fatalf("entity delta on attr-only commit: %+v", c2.Entity)
	}
	if st.PatchedRows() != 2 {
		t.Fatalf("patched rows %d, want 2", st.PatchedRows())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		st := pkfkStore(t, rng, sparse)
		old := st.Pin()
		frozenS := old.S().Dense().Clone()
		frozenR := old.R(0).Dense().Clone()

		for k := 0; k < 3; k++ {
			for i := 0; i < st.EntityRows(); i += 2 {
				if err := st.UpsertEntity(i, randRow(rng, st.EntityCols())); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.UpsertAttr(0, k%st.AttrRows(0), randRow(rng, st.AttrCols(0))); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		// The pinned snapshot still reads epoch-1 values, element- and
		// operator-wise.
		if !equalDense(old.S().Dense(), frozenS) || !equalDense(old.R(0).Dense(), frozenR) {
			t.Fatalf("sparse=%v: pinned snapshot drifted under commits", sparse)
		}
		buf := make([]float64, st.EntityCols())
		for i := 0; i < st.EntityRows(); i++ {
			old.S().(*viewMat).ReadRow(i, buf)
			for j := range buf {
				if buf[j] != frozenS.At(i, j) {
					t.Fatalf("ReadRow(%d) drifted", i)
				}
			}
		}
		// A fresh pin sees the latest epoch.
		cur := st.Pin()
		if cur.Version() != 4 {
			t.Fatalf("fresh pin at version %d, want 4", cur.Version())
		}
		if equalDense(cur.S().Dense(), frozenS) {
			t.Fatalf("fresh pin still reads epoch-1 entity table")
		}
		cur.Release()
		old.Release()
	}
}

func equalDense(a, b *la.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, x := range a.Data() {
		if x != b.Data()[i] {
			return false
		}
	}
	return true
}

// TestViewMatOperators pins the lazy patched-view operators against a
// manually patched dense matrix, dense and CSR bases both.
func TestViewMatOperators(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		rng := rand.New(rand.NewSource(4))
		st := pkfkStore(t, rng, sparse)
		nR, dR := st.AttrRows(0), st.AttrCols(0)
		p := st.Pin()
		want := p.R(0).Dense().Clone() // epoch-1 contents
		p.Release()

		// Patch a few rows, one of them to exact zeros (CSR sparsity path).
		for _, r := range []int{0, nR - 1} {
			v := randRow(rng, dR)
			if r == nR-1 {
				v = make([]float64, dR)
			}
			if err := st.UpsertAttr(0, r, v); err != nil {
				t.Fatal(err)
			}
			for j, x := range v {
				want.Set(r, j, x)
			}
		}
		if _, err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		snap := st.Pin()
		defer snap.Release()
		v := snap.R(0)

		if !equalDense(v.Dense(), want) {
			t.Fatalf("sparse=%v: Dense() mismatch", sparse)
		}
		if v.NNZ() != la.CSRFromDense(want).NNZ() {
			t.Fatalf("sparse=%v: NNZ %d, want %d", sparse, v.NNZ(), la.CSRFromDense(want).NNZ())
		}
		for i := 0; i < nR; i++ {
			for j := 0; j < dR; j++ {
				if v.At(i, j) != want.At(i, j) {
					t.Fatalf("At(%d,%d) mismatch", i, j)
				}
			}
		}
		x := randDense(rng, dR, 2)
		if !equalDense(v.Mul(x), want.Mul(x)) {
			t.Fatalf("Mul mismatch")
		}
		y := randDense(rng, nR, 2)
		if !equalDense(v.TMul(y), want.TMul(y)) {
			t.Fatalf("TMul mismatch")
		}
		if !equalDense(v.CrossProd(), want.CrossProd()) {
			t.Fatalf("CrossProd mismatch")
		}
		if !equalDense(v.ColSums(), want.ColSums()) {
			t.Fatalf("ColSums mismatch")
		}
		if v.Sum() != want.Sum() {
			t.Fatalf("Sum mismatch")
		}
	}
}

func TestLiveEpochReclamation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := pkfkStore(t, rng, false)
	if st.LiveEpochs() != 1 {
		t.Fatalf("baseline live epochs %d, want 1", st.LiveEpochs())
	}

	// An unpinned superseded epoch is reclaimed immediately.
	if err := st.UpsertAttr(0, 0, randRow(rng, st.AttrCols(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.LiveEpochs() != 1 {
		t.Fatalf("unpinned supersede: live %d, want 1", st.LiveEpochs())
	}

	// Pinned epochs stay live until released, independent of order.
	s2 := st.Pin()
	if err := st.UpsertAttr(0, 1, randRow(rng, st.AttrCols(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	s3 := st.Pin()
	if err := st.UpsertAttr(0, 2, randRow(rng, st.AttrCols(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.LiveEpochs() != 3 {
		t.Fatalf("two pinned + current: live %d, want 3", st.LiveEpochs())
	}
	s3.Release()
	s3.Release() // idempotent
	if st.LiveEpochs() != 2 {
		t.Fatalf("after releasing s3: live %d, want 2", st.LiveEpochs())
	}
	s2.Release()
	if st.LiveEpochs() != 1 {
		t.Fatalf("accounting not at baseline: live %d, want 1", st.LiveEpochs())
	}

	// Pinning the current epoch does not leak when it is superseded later.
	cur := st.Pin()
	cur.Release()
	if st.LiveEpochs() != 1 {
		t.Fatalf("pin/release of current: live %d, want 1", st.LiveEpochs())
	}
}

// TestNormalizedMatrixSnapshot pins the O(1) snapshot-assembled
// normalized matrix against one rebuilt from frozen copies of the same
// epoch: identical elements, and identical factorized scoring.
func TestNormalizedMatrixSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := pkfkStore(t, rng, false)
	for k := 0; k < 2; k++ {
		if err := st.UpsertEntity(k, randRow(rng, st.EntityCols())); err != nil {
			t.Fatal(err)
		}
		if err := st.UpsertAttr(0, k, randRow(rng, st.AttrCols(0))); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Pin()
	defer snap.Release()
	nm, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := core.New(snap.S().Dense().Clone(), st.IS(), st.Ks(), []la.Mat{snap.R(0).Dense().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nm.Dense(), frozen.Dense()
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > diffTol {
				t.Fatalf("T(%d,%d): snapshot %g frozen %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}
