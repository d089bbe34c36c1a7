package epoch

import (
	"sync"

	"repro/internal/core"
	"repro/internal/la"
)

// Snapshot is a pinned, immutable view of one epoch: every table read
// through it observes the same version, no matter how many commits land
// while it is held. Snapshots are safe for concurrent use; all reads are
// served from the base tables plus the epoch's overlay, so pinning is
// O(1) and holding a snapshot costs only the overlay it retains.
// Release the snapshot when done so superseded epochs can be reclaimed.
type Snapshot struct {
	store   *Store
	ep      *epochState
	views   []*viewMat
	release sync.Once
}

// Version reports the epoch this snapshot is pinned to.
func (s *Snapshot) Version() Version { return s.ep.version }

// NumTables reports the number of attribute tables q.
func (s *Snapshot) NumTables() int { return s.store.NumTables() }

// S returns the entity feature table at this epoch (nil when the schema
// has none). The returned matrix is immutable and safe for concurrent
// use; element reads are served lazily from base + overlay.
func (s *Snapshot) S() la.Mat {
	if s.views[0] == nil {
		return nil
	}
	return s.views[0]
}

// R returns attribute table t at this epoch. Same guarantees as S.
func (s *Snapshot) R(t int) la.Mat { return s.views[1+t] }

// NormalizedMatrix assembles the snapshot into a core.NormalizedMatrix
// over the store's frozen join structure, for in-memory training or a
// fresh scorer. The result reads through the snapshot's views — build
// cost is O(1), and training on it under concurrent commits is bitwise
// identical to training on a frozen copy of the epoch.
func (s *Snapshot) NormalizedMatrix() (*core.NormalizedMatrix, error) {
	var sm la.Mat
	if s.views[0] != nil {
		sm = s.views[0]
	}
	return core.New(sm, s.store.is, s.store.ks, s.rs())
}

// rs lists the attribute tables at this epoch.
func (s *Snapshot) rs() []la.Mat {
	rs := make([]la.Mat, s.store.NumTables())
	for t := range rs {
		rs[t] = s.views[1+t]
	}
	return rs
}

// Release unpins the snapshot's epoch; once every pin on a superseded
// epoch is released it is reclaimed (LiveEpochs returns to 1). Release
// is idempotent; using the snapshot after Release is still safe for
// reads already started, but new reads should not rely on it.
func (s *Snapshot) Release() {
	s.release.Do(func() { s.store.release(s.ep) })
}
