package serve

import (
	"errors"
	"time"

	"repro/internal/epoch"
	"repro/internal/la"
)

// PatchStats counts the incremental partial-product maintenance a Scorer
// over an epoch.Store has performed. Snapshot via Scorer.PatchStats.
type PatchStats struct {
	// Commits is the number of epochs applied by incremental patching.
	Commits uint64
	// Rows is the total number of changed rows this scorer patched across
	// commits; a slice skips the entity rows it does not own.
	Rows uint64
	// TotalPatch times the patch work (clone changed vectors + per-row
	// dot products), excluding lock waits.
	TotalPatch time.Duration
}

// NewEpochScorer builds a whole-store scorer over the versioned store
// with weight vector w (d×1 or 1×d, copied) and link head, subscribed to
// the store's commits: the returned scorer tracks every subsequent epoch
// automatically. Commits that land during construction are applied
// before the first score, in order — no epoch is skipped or doubled.
func NewEpochScorer(store *epoch.Store, w *la.Dense, head Head) (*Scorer, error) {
	return NewShardedEpochScorer(store, w, head, 0, 1)
}

// NewShardedEpochScorer builds slice shard of an `of`-way hash-sharded
// fleet over the versioned store: NewEpochScorer restricted to the rows
// with id ≡ shard (mod of). A commit reaches every slice, but each
// patches entity rows only if it owns them, so an entity update costs
// the fleet one patched row, not `of`.
func NewShardedEpochScorer(store *epoch.Store, w *la.Dense, head Head, shard, of int) (*Scorer, error) {
	if store == nil {
		return nil, errors.New("serve: nil epoch store")
	}
	return newScorer(nil, store, w, head, shard, of)
}

// applyCommit is the store listener: it patches the cached partials for
// one commit and publishes them as a new generation. It runs on the
// committing goroutine under the store's write lock, in version order.
// A commit at or below the cached version is skipped: build already
// pinned that epoch.
func (s *Scorer) applyCommit(c *epoch.Commit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gen.Load()
	if c.Version <= g.version {
		return
	}
	start := time.Now()
	ng := *g
	ng.version = c.Version
	rows, sharedParts := 0, true
	if c.Entity != nil {
		// A sliced cache holds rows ≡ shard (mod of); a whole one (swDiv
		// = 1) holds them all, which shard%1 = 0 expresses.
		ng.sw, rows = patched(g.sw, c.Entity, g.wS, s.shard%s.swDiv, s.swDiv)
	}
	for t, d := range c.Attrs {
		if d == nil {
			continue
		}
		if sharedParts {
			ng.parts, sharedParts = append([][]float64(nil), g.parts...), false
		}
		var n int
		ng.parts[t], n = patched(g.parts[t], d, g.wR[t], 0, 1)
		rows += n
	}
	s.gen.Store(&ng)
	s.stats.Commits++
	s.stats.Rows += uint64(rows)
	s.stats.TotalPatch += time.Since(start)
}

// patched applies one table's delta to the partial vector part = table·w
// laid out as (off, div): for each changed row r ≡ off (mod div) it adds
// dot(new, w) − dot(old, w) to a copy's entry r/div — O(changed rows ×
// row width) instead of an O(nnz) rebuild, and within 1e-12 of one. It
// returns the copy and the number of rows patched, or part itself when
// the layout holds none of them, so in-flight readers and the next
// generation keep sharing it.
func patched(part []float64, d *epoch.TableDelta, w []float64, off, div int) ([]float64, int) {
	out, n := part, 0
	for i, r := range d.Rows {
		if int(r)%div != off {
			continue
		}
		if n == 0 {
			out = append([]float64(nil), part...)
		}
		out[int(r)/div] += la.Dot(d.New[i], w) - la.Dot(d.Old[i], w)
		n++
	}
	return out, n
}

// PatchStats returns a snapshot of the incremental-maintenance counters
// (all zero over an immutable matrix).
func (s *Scorer) PatchStats() PatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
