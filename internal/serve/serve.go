// Package serve turns the paper's training-time rewrite rules into a
// serving-time optimization: a concurrent, batched scoring service over a
// normalized feature store.
//
// For a PK-FK normalized matrix T = [S, K·R] and a trained weight vector
// w = [wS; wR], the prediction margin factorizes as
//
//	T·w = S·wS + K·(R·wR)
//
// (§3.3.3 of the paper, specialised to a vector operand). The attribute-table
// partial products R_i·w_{R_i} depend only on the model, not on the request,
// so a Scorer precomputes them once per weight vector. Each subsequent
// prediction is then a dS-wide entity dot product (itself precomputed per
// entity tuple) plus one cached-partial gather per attribute table — O(q)
// work per row instead of O(dS + Σ dR_i), which on the paper's
// high-feature-ratio shapes (dR ≫ dS, Fig. 3) is an order of magnitude
// cheaper than rerunning the factorized multiply.
//
// One Scorer type serves every configuration: an ownership slice (shard,
// of) says which rows it holds, and a partial source — an immutable
// core.NormalizedMatrix or an epoch.Store subscription — says where the
// base tables come from. A Router makes a fleet of scorers one scorer
// again, and a Batcher coalesces concurrent single-row callers into
// shared gather passes on a bounded worker pool.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
)

// Head selects the link function applied to the raw margin T·w.
type Head int

const (
	// Linear serves the raw margin (regression).
	Linear Head = iota
	// Logistic serves σ(margin), matching ml.PredictLogistic.
	Logistic
)

// String names the link function for logs and error messages.
func (h Head) String() string {
	switch h {
	case Linear:
		return "linear"
	case Logistic:
		return "logistic"
	default:
		return fmt.Sprintf("Head(%d)", int(h))
	}
}

// Errors reported by the scoring service.
var (
	// ErrRowRange is returned when a requested row id is out of bounds.
	ErrRowRange = errors.New("serve: row id out of range")
	// ErrBatcherClosed is returned by Batcher.Score once Close has begun:
	// the request was not admitted and never will be. It is the documented
	// fast-fail sentinel — Score never blocks on a closed batcher.
	ErrBatcherClosed = errors.New("serve: batcher closed")
	// ErrOverloaded is returned by Batcher.Score when the admission queue
	// is full: the request was rejected immediately instead of queueing
	// without bound. Callers should shed load or retry with backoff.
	ErrOverloaded = errors.New("serve: batcher overloaded")
	// ErrNotOwned is returned by a Scorer slice asked for a row outside
	// its hash slice; the Router never routes such a request.
	ErrNotOwned = errors.New("serve: row not owned by this shard replica")
	// ErrOutputLen is returned by ScoreBatchInto when len(out) != len(ids).
	ErrOutputLen = errors.New("serve: output slice length does not match ids")
)

// generation is one immutable (weights, epoch) cache state; successive
// generations share the partial slices a commit did not touch.
type generation struct {
	w       *la.Dense   // d×1 weight snapshot
	wS      []float64   // entity weight block (len dS); nil when dS = 0
	wR      [][]float64 // per-attribute-table weight blocks
	sw      []float64   // entity partial S·wS, compacted to the owned slice
	parts   [][]float64 // per attribute-table partial R_t·w_{R_t}, whole
	version epoch.Version
}

// Scorer answers prediction requests over a normalized feature store
// using cached partial products. It is safe for concurrent use.
//
// Ownership: shard `shard` of `of` serves the rows with id ≡ shard (mod
// of) and keeps the entity partial S·wS only for them, compacted at index
// id/of, so `of` slices hold that row-indexed cache exactly once. Rows of
// another slice fail with ErrNotOwned. The attribute partials stay whole
// on every slice: they are indexed by attribute tuple and are the small
// side when nS ≫ nR_t. Under an M:N schema the entity cache is indexed by
// entity tuple, which many rows share, so it stays whole too and only the
// routing is sharded. Shard 0 of 1 is the whole store.
//
// Source: over an immutable matrix the cache changes only on
// UpdateWeights. Over an epoch.Store the scorer subscribes at
// construction and patches the cache inside every Store.Commit, per
// changed row (see applyCommit), so when Commit returns it already
// serves the new epoch.
//
// Read path: every request — one row, a batch, or a coalesced Batcher
// batch — loads the current generation with one atomic read before its
// first row. It therefore observes exactly one weight version and one
// epoch, and never waits for a writer.
//
// Write path: one mutex orders UpdateWeights and commit patches; each
// builds a new generation beside the readers and publishes it with one
// atomic store. A commit that lands during a rebuild waits for it (and
// so does its Store.Commit), then is skipped if the rebuild already
// pinned its epoch, else patched on top.
type Scorer struct {
	// Partial source: nm for an immutable store, else store.
	nm    *core.NormalizedMatrix
	store *epoch.Store

	head       Head
	rows, cols int
	shard, of  int
	// Entity-cache stride: row id lives at sw[id/swDiv]. It is `of` when
	// the cache is sliced to the owned rows, and 1 when it is whole —
	// of = 1, or any M:N schema.
	swDiv int

	// Static join structure, hoisted once at construction (neither source
	// ever changes it), so the gather path allocates nothing per call.
	isAssign []int32
	kAssign  [][]int32

	gen atomic.Pointer[generation]

	mu    sync.Mutex // writers only: UpdateWeights and commit patches
	stats PatchStats
}

// EpochScorer is the historical name of a Scorer over an epoch.Store.
type EpochScorer = Scorer

// NewScorer builds a whole-store scorer for the normalized matrix nm (the
// feature store), weight vector w, and link head. w may be d×1 or its
// transpose 1×d, where d = nm.Cols(); it is copied, so later mutation by
// the caller does not affect the scorer. nm must be untransposed:
// predictions are per logical row of T.
func NewScorer(nm *core.NormalizedMatrix, w *la.Dense, head Head) (*Scorer, error) {
	return NewShardedScorer(nm, w, head, 0, 1)
}

// NewShardedScorer builds slice shard of an `of`-way hash-sharded fleet
// over nm. Arguments match NewScorer, plus the shard coordinates:
// 0 <= shard < of. The full partial products are computed once and the
// entity-side cache is then compacted to the owned rows, so the values a
// sharded fleet serves are bit-identical to a whole-store scorer's.
func NewShardedScorer(nm *core.NormalizedMatrix, w *la.Dense, head Head, shard, of int) (*Scorer, error) {
	if nm == nil {
		return nil, errors.New("serve: nil normalized matrix")
	}
	if nm.IsTransposed() {
		return nil, errors.New("serve: scorer requires an untransposed normalized matrix (rows are prediction units)")
	}
	return newScorer(nm, nil, w, head, shard, of)
}

// newScorer validates the model and ownership arguments, hoists the join
// structure of whichever source is set, and publishes the first generation.
func newScorer(nm *core.NormalizedMatrix, store *epoch.Store, w *la.Dense, head Head, shard, of int) (*Scorer, error) {
	if head != Linear && head != Logistic {
		return nil, fmt.Errorf("serve: unknown head %d", int(head))
	}
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("serve: shard %d of %d out of range", shard, of)
	}
	s := &Scorer{nm: nm, store: store, head: head, shard: shard, of: of, swDiv: 1}
	var is *la.Indicator
	var ks []*la.Indicator
	if store != nil {
		is, ks, s.rows, s.cols = store.IS(), store.Ks(), store.Rows(), store.Cols()
	} else {
		is, ks, s.rows, s.cols = nm.IS(), nm.Ks(), nm.Rows(), nm.Cols()
	}
	wCol, err := asWeightColumn(w, s.cols)
	if err != nil {
		return nil, err
	}
	if is != nil {
		s.isAssign = is.Assignments()
	} else if of > 1 {
		s.swDiv = of
	}
	s.kAssign = make([][]int32, len(ks))
	for t, k := range ks {
		s.kAssign[t] = k.Assignments()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		// Subscribe before the first build. A commit that lands from here
		// on waits in applyCommit for s.mu, and is then skipped if build
		// already pinned its epoch — so none is missed or applied twice.
		// Commits take the store's write lock before s.mu; taking them the
		// other way round is safe here alone, because no commit can reach
		// this scorer until Subscribe has returned the write lock.
		s.store.Subscribe(s.applyCommit).Release()
	}
	s.gen.Store(s.build(wCol))
	return s, nil
}

// asWeightColumn validates w against the feature width d and returns a d×1
// copy, accepting the transposed 1×d layout too.
func asWeightColumn(w *la.Dense, d int) (*la.Dense, error) {
	if w == nil {
		return nil, errors.New("serve: nil weight vector")
	}
	switch {
	case w.Cols() == 1 && w.Rows() == d:
		return w.Clone(), nil
	case w.Rows() == 1 && w.Cols() == d:
		return w.TDense(), nil
	default:
		return nil, fmt.Errorf("serve: weight shape %dx%d incompatible with %d features", w.Rows(), w.Cols(), d)
	}
}

// build evaluates the partial products for a d×1 weight column from
// scratch, at the newest epoch of a store: sw = S·wS compacted to the
// owned slice, and parts[t] = R_t·w_{R_t}. Every scorer computes the full
// products through the same arithmetic before slicing, so all fleet
// members hold bit-identical partials. Callers hold s.mu.
func (s *Scorer) build(wCol *la.Dense) *generation {
	g := &generation{w: wCol}
	var sm la.Mat
	var rs []la.Mat
	if s.store != nil {
		snap := s.store.Pin()
		defer snap.Release()
		g.version = snap.Version()
		sm = snap.S()
		rs = make([]la.Mat, snap.NumTables())
		for t := range rs {
			rs[t] = snap.R(t)
		}
	} else {
		sm, rs = s.nm.S(), s.nm.Rs()
	}
	off := 0
	if sm != nil {
		off = sm.Cols()
		wS := wCol.SliceRowsDense(0, off)
		g.wS = wS.Data()
		g.sw = sm.Mul(wS).Data()
		if s.swDiv > 1 {
			// The full product exists only transiently; the steady-state
			// footprint is the slice.
			owned := make([]float64, 0, (len(g.sw)-s.shard+s.of-1)/s.of)
			for j := s.shard; j < len(g.sw); j += s.of {
				owned = append(owned, g.sw[j])
			}
			g.sw = owned
		}
	}
	g.wR = make([][]float64, len(rs))
	g.parts = make([][]float64, len(rs))
	for t, r := range rs {
		wR := wCol.SliceRowsDense(off, off+r.Cols())
		g.wR[t] = wR.Data()
		g.parts[t] = r.Mul(wR).Data()
		off += r.Cols()
	}
	return g
}

// UpdateWeights atomically replaces the model, rebuilding the cached
// partials at the current epoch beside scoring, which is never stalled:
// requests in flight finish on the generation they loaded.
func (s *Scorer) UpdateWeights(w *la.Dense) error {
	wCol, err := asWeightColumn(w, s.cols)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.Store(s.build(wCol))
	return nil
}

// Rows reports the number of logical rows of T — the fleet-wide count
// even on a slice (ownership is a routing concern, not a shape change).
func (s *Scorer) Rows() int { return s.rows }

// validate checks that every id is a row this scorer serves.
func (s *Scorer) validate(ids []int) error {
	rows, shard, of := s.rows, s.shard, s.of
	for _, id := range ids {
		if id < 0 || id >= rows {
			return fmt.Errorf("%w: %d not in [0,%d)", ErrRowRange, id, rows)
		}
		if of > 1 && id%of != shard {
			return fmt.Errorf("%w: row %d belongs to shard %d, this is shard %d of %d", ErrNotOwned, id, id%of, shard, of)
		}
	}
	return nil
}

// ScoreRow serves a single prediction for logical row id at the current
// generation, without allocating.
func (s *Scorer) ScoreRow(id int) (float64, error) {
	ids := [1]int{id}
	var out [1]float64
	if err := s.validate(ids[:]); err != nil {
		return 0, err
	}
	g := s.gen.Load()
	gatherRange(0, 1, ids[:], out[:], s.isAssign, s.kAssign, g.sw, g.parts, s.head == Logistic, s.swDiv)
	return out[0], nil
}

// ScoreBatch serves predictions for a batch of logical row ids under one
// generation — loaded once, before the first row — fanning the gather
// across cores for large batches.
func (s *Scorer) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := s.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreBatchInto is the allocation-free form of ScoreBatch: scores are
// written into the caller-owned out slice (len(out) must equal
// len(ids)). Ids outside [0, Rows()) fail with ErrRowRange, rows of
// another slice with ErrNotOwned. The steady-state path performs zero
// heap allocations — pinned by BenchmarkRouterScore and the
// allocation-audit tests.
func (s *Scorer) ScoreBatchInto(ids []int, out []float64) error {
	if len(out) != len(ids) {
		return fmt.Errorf("%w: %d for %d ids", ErrOutputLen, len(out), len(ids))
	}
	if err := s.validate(ids); err != nil {
		return err
	}
	g := s.gen.Load()
	gatherInto(ids, out, s.isAssign, s.kAssign, g.sw, g.parts, s.head == Logistic, s.swDiv)
	return nil
}

// ScoreAll serves every row in order under one generation — the cached
// equivalent of ml.PredictLinear / ml.PredictLogistic over the store.
// Only a whole-store scorer can answer it; on a slice, which lacks the
// other rows' partials, it panics rather than return scores it cannot
// compute. Router.ScoreAll is the fleet form.
func (s *Scorer) ScoreAll() []float64 {
	if s.of > 1 {
		panic(fmt.Sprintf("serve: ScoreAll on shard %d of %d; use Router.ScoreAll", s.shard, s.of))
	}
	g := s.gen.Load()
	out := make([]float64, s.rows)
	gatherInto(nil, out, s.isAssign, s.kAssign, g.sw, g.parts, s.head == Logistic, s.swDiv)
	return out
}

// gatherInto runs the gather kernel over one generation's partials: per
// row, the entity partial (routed through isAssign when non-nil, or
// through the swDiv shard stride when > 1) plus one attribute partial
// per table, fanned across cores for large batches. ids == nil means the
// identity batch (all rows). swDiv > 1 is the hash-sharded layout: the
// sw cache holds only rows id ≡ shard (mod swDiv), stored at local index
// id/swDiv.
func gatherInto(ids []int, out []float64, isAssign []int32, kAssign [][]int32, sw []float64, parts [][]float64, logistic bool, swDiv int) {
	// Rough per-row cost: one add per table plus the head evaluation.
	work := len(out) * (len(parts) + 8)
	if la.ParallelChunks(len(out), work) <= 1 {
		// Serial fast path, called directly: passing a closure to
		// ParallelRows would heap-allocate it even when the loop runs
		// inline, and the steady-state request path must stay zero-alloc.
		gatherRange(0, len(out), ids, out, isAssign, kAssign, sw, parts, logistic, swDiv)
		return
	}
	la.ParallelRows(len(out), work, func(lo, hi int) {
		gatherRange(lo, hi, ids, out, isAssign, kAssign, sw, parts, logistic, swDiv)
	})
}

// gatherRange scores rows [lo, hi) of the batch — the shared inner body of
// both the serial and the fanned-out gather.
func gatherRange(lo, hi int, ids []int, out []float64, isAssign []int32, kAssign [][]int32, sw []float64, parts [][]float64, logistic bool, swDiv int) {
	for i := lo; i < hi; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		m := 0.0
		if sw != nil {
			si := id
			if isAssign != nil {
				si = int(isAssign[id])
			} else if swDiv > 1 {
				si = id / swDiv
			}
			m = sw[si]
		}
		for t, a := range kAssign {
			m += parts[t][a[id]]
		}
		if logistic {
			m = 1 / (1 + math.Exp(-m))
		}
		out[i] = m
	}
}
