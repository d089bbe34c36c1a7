// Package epoch implements versioned base tables with copy-on-write
// epochs — the HTAP seam that lets one system score, ingest feature
// updates, and retrain concurrently over a normalized feature store.
//
// A Store freezes the join structure (the indicator matrices) of a
// core.NormalizedMatrix and versions the *contents* of its base tables:
// the entity table S and each attribute table R_t. Writers stage row
// upserts keyed by tuple id into a per-table delta; Commit publishes all
// staged upserts as one new immutable epoch, atomically. Epochs are
// copy-on-write at the granularity of a table overlay: a commit copies
// only the overlay maps of the tables it touched, so unchanged tables
// share their overlay with the previous epoch and the base matrices are
// never copied at all.
//
// Readers never block writers and vice versa:
//
//   - The scoring path subscribes to commits (Subscribe) and patches its
//     cached partial products per changed row — see serve.Scorer.
//   - The training path pins an epoch (Pin) and reads a consistent
//     snapshot — in memory via Snapshot.NormalizedMatrix, or streamed
//     out-of-core by chunk.FromNormalized over its parts — that later
//     commits can never perturb: results are bitwise independent of
//     concurrent writes.
//
// Epoch lifetime is refcounted: the store keeps the current epoch live,
// every Snapshot pins the epoch it reads, and an epoch superseded by a
// commit is reclaimed as soon as its last pin is released. LiveEpochs
// exposes the accounting (baseline: 1, the current epoch), so tests can
// assert that retired epochs do not accumulate.
//
// The design follows the consistent-snapshot survey (arXiv:1810.04915)
// and Polynesia's transactional/analytical HTAP split (arXiv:2103.00798):
// one write path, many immutable read views, no cross-interference.
package epoch

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/la"
)

// Version numbers epochs, starting at 1 for the base tables a Store is
// created over and incrementing by 1 per non-empty Commit.
type Version uint64

// Errors reported by the versioned store.
var (
	// ErrRowRange is returned when an upsert addresses a tuple id outside
	// the target table.
	ErrRowRange = errors.New("epoch: row id out of range")
	// ErrWidth is returned when an upsert's value vector does not match
	// the target table's column count.
	ErrWidth = errors.New("epoch: upsert width does not match table")
	// ErrTableRange is returned when an upsert addresses an attribute
	// table index outside [0, NumTables()).
	ErrTableRange = errors.New("epoch: attribute table index out of range")
	// ErrNonFinite is returned when an upsert carries a NaN or ±Inf value.
	// Such a value would poison every later incremental patch of the row
	// (NaN − NaN stays NaN), so it is refused before it is staged.
	ErrNonFinite = errors.New("epoch: upsert value is not finite")
	// ErrNoEntity is returned by UpsertEntity when the store's schema has
	// no entity feature table (dS = 0).
	ErrNoEntity = errors.New("epoch: store has no entity feature table")
)

// Store is a versioned normalized feature store. The join structure —
// row counts, indicator matrices, table widths — is fixed at
// construction; the contents of the entity table and the attribute
// tables evolve through epochs. Upsert*, Commit, Pin, Subscribe, and all
// accessors are safe for concurrent use; upserts and commits are
// serialized internally (one logical writer), while any number of
// readers pin and read snapshots concurrently.
type Store struct {
	is    *la.Indicator
	ks    []*la.Indicator
	nRows int
	// bases holds the frozen epoch-1 tables: slot 0 is S (nil when the
	// schema has no entity features), slot 1+t is R_t.
	bases []la.Mat

	// writeMu serializes the write path: Upsert*, Commit, and the
	// listener callbacks Commit makes. Listeners therefore observe
	// commits exactly once each, in version order.
	writeMu   sync.Mutex
	pending   []map[int32][]float64 // staged upserts per table slot
	listeners []func(*Commit)

	// mu guards the epoch chain bookkeeping (current epoch, refcounts,
	// live count); it is held only for pointer swaps and counter updates,
	// never across data work.
	mu   sync.Mutex
	cur  *epochState
	live int
}

// epochState is one immutable published epoch: per-table-slot overlays
// over the store's base matrices. A nil overlay means the slot is
// identical to its base; unchanged slots share their overlay map with
// the previous epoch (copy-on-write).
type epochState struct {
	version  Version
	overlays []map[int32][]float64
	refs     int // pins (snapshots) + 1 while current; guarded by Store.mu
}

// NewStore adopts nm's base tables as epoch 1 and freezes its join
// structure. nm must be untransposed. The base matrices are referenced,
// not copied — the caller must not mutate them after handing them over
// (all subsequent mutation goes through Upsert/Commit).
func NewStore(nm *core.NormalizedMatrix) (*Store, error) {
	if nm == nil {
		return nil, errors.New("epoch: nil normalized matrix")
	}
	if nm.IsTransposed() {
		return nil, errors.New("epoch: store requires an untransposed normalized matrix")
	}
	q := nm.NumTables()
	st := &Store{
		is:    nm.IS(),
		ks:    nm.Ks(),
		nRows: nm.Rows(),
		bases: make([]la.Mat, 1+q),
	}
	st.bases[0] = nm.S()
	copy(st.bases[1:], nm.Rs())
	st.pending = make([]map[int32][]float64, 1+q)
	st.cur = &epochState{version: 1, overlays: make([]map[int32][]float64, 1+q), refs: 1}
	st.live = 1
	return st, nil
}

// Rows reports the logical row count of the join output T (fixed across
// epochs: upserts change row contents, never the join structure).
func (st *Store) Rows() int { return st.nRows }

// Cols reports the logical feature width dS + Σ dR_t.
func (st *Store) Cols() int {
	d := st.EntityCols()
	for t := range st.ks {
		d += st.bases[1+t].Cols()
	}
	return d
}

// NumTables reports the number of attribute tables q.
func (st *Store) NumTables() int { return len(st.ks) }

// EntityCols reports the entity feature width dS (0 when the schema has
// no entity feature table).
func (st *Store) EntityCols() int {
	if st.bases[0] == nil {
		return 0
	}
	return st.bases[0].Cols()
}

// IS returns the entity-side row selector (nil for PK-FK/star schemas).
// The indicator is shared and immutable.
func (st *Store) IS() *la.Indicator { return st.is }

// Ks returns the per-attribute-table indicator matrices, shared and
// immutable: epochs version table contents, not join structure.
func (st *Store) Ks() []*la.Indicator { return st.ks }

// Version reports the most recently committed epoch. It may advance
// immediately after returning; pin a Snapshot for a stable view.
func (st *Store) Version() Version {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur.version
}

// LiveEpochs reports how many epochs are currently retained: the current
// epoch plus every superseded epoch still pinned by a snapshot. The
// baseline — no outstanding pins — is 1.
func (st *Store) LiveEpochs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live
}

// Pending reports the number of staged (uncommitted) row upserts.
func (st *Store) Pending() int {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	n := 0
	for _, p := range st.pending {
		n += len(p)
	}
	return n
}

// UpsertEntity stages new feature values for entity tuple row. The
// values are copied. Staged upserts are invisible to readers until
// Commit; a second upsert to the same row before Commit overwrites the
// first (last-write-wins within an epoch). Non-finite values are refused
// with ErrNonFinite. Safe to call concurrently with scoring, pinned
// snapshots, and Commit.
func (st *Store) UpsertEntity(row int, vals []float64) error {
	if st.bases[0] == nil {
		return ErrNoEntity
	}
	return st.upsert(0, st.bases[0], row, vals)
}

// UpsertAttr stages new feature values for tuple row of attribute table
// t (0-based). Semantics match UpsertEntity.
func (st *Store) UpsertAttr(t, row int, vals []float64) error {
	if t < 0 || t >= len(st.ks) {
		return fmt.Errorf("%w: table %d not in [0,%d)", ErrTableRange, t, len(st.ks))
	}
	return st.upsert(1+t, st.bases[1+t], row, vals)
}

func (st *Store) upsert(slot int, base la.Mat, row int, vals []float64) error {
	if row < 0 || row >= base.Rows() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRowRange, row, base.Rows())
	}
	if len(vals) != base.Cols() {
		return fmt.Errorf("%w: got %d values, table has %d columns", ErrWidth, len(vals), base.Cols())
	}
	for j, x := range vals {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: column %d is %g", ErrNonFinite, j, x)
		}
	}
	v := make([]float64, len(vals))
	copy(v, vals)
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.pending[slot] == nil {
		st.pending[slot] = make(map[int32][]float64)
	}
	st.pending[slot][int32(row)] = v
	return nil
}

// TableDelta lists one table's changed rows in a commit, with their
// values before and after. Rows are ascending; Old[i] and New[i] are the
// full feature vectors of tuple Rows[i] in the previous and the new
// epoch. Slices are immutable once published — consumers (and the
// incremental partial-product patch in serve) read them without copying.
type TableDelta struct {
	Rows []int32
	Old  [][]float64
	New  [][]float64
}

// Commit describes one published epoch: its version and the per-table
// row deltas. Entity is nil when no entity rows changed; Attrs has one
// entry per attribute table, nil where that table is unchanged.
type Commit struct {
	Version Version
	Entity  *TableDelta
	Attrs   []*TableDelta
}

// RowsChanged reports the total number of rows this commit changed.
func (c *Commit) RowsChanged() int {
	n := 0
	if c.Entity != nil {
		n += len(c.Entity.Rows)
	}
	for _, d := range c.Attrs {
		if d != nil {
			n += len(d.Rows)
		}
	}
	return n
}

// Commit atomically publishes every staged upsert as one new immutable
// epoch and reports the delta. Tables without staged upserts share their
// overlay with the previous epoch (no copy); changed tables get a fresh
// overlay map extended copy-on-write. With nothing staged, Commit is a
// no-op returning the current version and an empty delta.
//
// Readers are never blocked: snapshots pinned before the commit keep
// reading the old epoch, reads after it see the new one, and nothing in
// between is observable. Subscribed listeners run synchronously on the
// committing goroutine, under the write lock, before Commit returns —
// so when Commit returns, a subscribed scorer already serves the new
// epoch, and Commit's latency includes the incremental patch (bench/'s
// epoch.commit_p50_us / epoch.commit_p99_us on serve-storm).
func (st *Store) Commit() (*Commit, error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()

	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()

	staged := 0
	for _, p := range st.pending {
		staged += len(p)
	}
	c := &Commit{Version: cur.version, Attrs: make([]*TableDelta, len(st.ks))}
	if staged == 0 {
		return c, nil
	}

	overlays := make([]map[int32][]float64, len(st.bases))
	for slot, p := range st.pending {
		if len(p) == 0 {
			overlays[slot] = cur.overlays[slot]
			continue
		}
		ov := make(map[int32][]float64, len(cur.overlays[slot])+len(p))
		for r, v := range cur.overlays[slot] {
			ov[r] = v
		}
		d := &TableDelta{
			Rows: make([]int32, 0, len(p)),
			Old:  make([][]float64, 0, len(p)),
			New:  make([][]float64, 0, len(p)),
		}
		for r := range p {
			d.Rows = append(d.Rows, r)
		}
		sort.Slice(d.Rows, func(i, j int) bool { return d.Rows[i] < d.Rows[j] })
		for _, r := range d.Rows {
			old := cur.overlays[slot][r]
			if old == nil {
				old = baseRow(st.bases[slot], int(r))
			}
			d.Old = append(d.Old, old)
			d.New = append(d.New, p[r])
			ov[r] = p[r]
		}
		overlays[slot] = ov
		if slot == 0 {
			c.Entity = d
		} else {
			c.Attrs[slot-1] = d
		}
		st.pending[slot] = nil
	}

	ep := &epochState{version: cur.version + 1, overlays: overlays, refs: 1}
	c.Version = ep.version
	st.mu.Lock()
	st.cur = ep
	st.live++
	cur.refs--
	if cur.refs == 0 {
		st.live--
	}
	st.mu.Unlock()

	for _, fn := range st.listeners {
		fn(c)
	}
	return c, nil
}

// Subscribe registers fn to be called for every subsequent commit and
// returns a pinned snapshot of the epoch current at registration. The
// two are atomic with respect to commits: fn observes exactly the
// commits with versions greater than the snapshot's, each once, in
// order. fn runs on the committing goroutine under the write lock; it
// must not call Upsert*, Commit, or Subscribe (deadlock), but may Pin.
// Release the returned snapshot when done with it.
func (st *Store) Subscribe(fn func(*Commit)) *Snapshot {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	st.listeners = append(st.listeners, fn)
	return st.Pin()
}

// Pin returns a snapshot of the current epoch, holding it live until
// Release. Snapshots are immutable, consistent across all tables (one
// epoch), and safe for concurrent use.
func (st *Store) Pin() *Snapshot {
	st.mu.Lock()
	ep := st.cur
	ep.refs++
	st.mu.Unlock()
	s := &Snapshot{store: st, ep: ep, views: make([]*viewMat, len(st.bases))}
	for slot, base := range st.bases {
		if base != nil {
			s.views[slot] = &viewMat{base: base, overlay: ep.overlays[slot]}
		}
	}
	return s
}

// release drops one pin on ep, reclaiming it if it is no longer current
// and nothing else holds it.
func (st *Store) release(ep *epochState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ep.refs--
	if ep.refs == 0 {
		st.live--
	}
}

// baseRow materializes one row of a base matrix as a dense vector, with
// fast paths for the concrete dense/CSR table types.
func baseRow(m la.Mat, i int) []float64 {
	out := make([]float64, m.Cols())
	readBaseRow(m, i, out)
	return out
}

// readBaseRow copies row i of m into dst (len(dst) == m.Cols()).
func readBaseRow(m la.Mat, i int, dst []float64) {
	switch b := m.(type) {
	case *la.Dense:
		copy(dst, b.Row(i))
	case *la.CSR:
		for j := range dst {
			dst[j] = 0
		}
		idx, vals := b.RowNNZ(i)
		for k, j := range idx {
			dst[j] = vals[k]
		}
	default:
		for j := range dst {
			dst[j] = m.At(i, j)
		}
	}
}
