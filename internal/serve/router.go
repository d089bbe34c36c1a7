// Router: the fleet seam. One process was fast (cached partials, 22
// ns/row); the Router makes N of them one scorer again — hash-sharded
// or replicated — behind the same BatchScorer contract the Batcher
// coalesces over, so the whole request path stacks: callers → Batcher
// (admission + coalescing) → Router (placement + fan-out/merge) →
// Replicas (cached-partial gather).

package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
)

// Placement selects how a Router spreads the partial-product cache
// across its replicas.
type Placement int

const (
	// Replicated gives every replica the full cache; each batch is
	// forwarded whole to one replica round-robin. Right for small models
	// (cache ≪ memory) where the win is lock spreading and core scaling.
	Replicated Placement = iota
	// HashSharded hash-partitions row ids across the fleet (owner of id =
	// id mod N); replica k holds the entity-side cache only for its
	// slice, and batches are split by owner and merged back in request
	// order. Right for big row-indexed caches that should exist once
	// across the fleet, not once per replica.
	HashSharded
)

// String names the placement for logs and Result notes.
func (p Placement) String() string {
	switch p {
	case Replicated:
		return "replicated"
	case HashSharded:
		return "hash-sharded"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// RouterStats counts the routing work a Router has performed. Snapshot
// via Router.Stats.
type RouterStats struct {
	// Batches is the number of routed batch calls.
	Batches uint64
	// SubBatches is the number of per-replica dispatches those batches
	// split into (equals Batches under Replicated placement).
	SubBatches uint64
	// Rows is the total number of row scores served.
	Rows uint64
	// WeightUpdates counts fleet-wide UpdateWeights barriers.
	WeightUpdates uint64
}

// Replica is one member of a serving fleet: the scoring surface the
// Router fans batches out to, plus the management surface fleet-wide
// operations (weight updates) apply through. Scorer — whole or slice,
// over either source — and Router itself satisfy it, so fleets compose;
// instrumentation wrappers only need to embed a Replica and override
// the calls they care about.
type Replica interface {
	BatchScorer
	IntoScorer
	// UpdateWeights atomically replaces this replica's model.
	UpdateWeights(w *la.Dense) error
}

var (
	_ Replica = (*Scorer)(nil)
	_ Replica = (*Router)(nil)
)

// Router fans scoring batches out across a fleet of replicas and merges
// the results back in request order. It implements BatchScorer (and
// Replica — routers compose), so it drops into the Batcher seam exactly
// where a single Scorer used to sit.
//
// Consistency contract: a routed batch observes exactly one weight
// version across every replica it touches. UpdateWeights is a fleet-wide
// barrier — it excludes in-flight batches, updates every replica, then
// readmits — so even a hash-sharded batch split across N replicas never
// mixes weight versions. Over an epoch.Store, commits reach every replica
// synchronously inside Store.Commit and each replica scores its
// (sub-)batch against one generation: a Replicated fleet forwards the
// batch whole, so it observes one (weights, epoch) pair; a HashSharded
// batch that straddles a commit may score rows of different slices one
// epoch apart, each row at an epoch that was committed.
type Router struct {
	replicas  []Replica
	placement Placement
	rows      int

	// mu is the fleet generation barrier: scoring holds it shared,
	// UpdateWeights exclusively.
	mu sync.RWMutex
	rr atomic.Uint64 // round-robin cursor for Replicated reads

	scratch sync.Pool // *routeScratch, reused across ScoreBatchInto calls

	batches, subBatches, rowsScored, updates atomic.Uint64
}

// routeScratch holds the per-call partition state for hash-sharded
// fan-out; pooling it keeps the steady-state path allocation-free.
type routeScratch struct {
	ids [][]int // per-replica sub-batch ids
	pos [][]int // per-replica positions into the caller's out slice
	sub []float64
}

// NewRouter builds a router over an explicit replica fleet. All replicas
// must agree on Rows. Under HashSharded placement, replica k must accept
// the rows with id ≡ k (mod len(replicas)): a true Scorer slice (of >
// 1) is checked for exactly those coordinates, a whole-store scorer
// accepts every row and is always valid, and wrappers are trusted. A true
// slice cannot serve a Replicated fleet, which sends any row anywhere.
func NewRouter(replicas []Replica, placement Placement) (*Router, error) {
	if len(replicas) == 0 {
		return nil, errors.New("serve: router needs at least one replica")
	}
	if placement != Replicated && placement != HashSharded {
		return nil, fmt.Errorf("serve: unknown placement %d", int(placement))
	}
	rows := replicas[0].Rows()
	for i, r := range replicas {
		if r == nil {
			return nil, fmt.Errorf("serve: nil replica %d", i)
		}
		if r.Rows() != rows {
			return nil, fmt.Errorf("serve: replica %d serves %d rows, replica 0 serves %d", i, r.Rows(), rows)
		}
		if sh, ok := r.(*Scorer); ok && sh.of > 1 {
			if placement != HashSharded || sh.shard != i || sh.of != len(replicas) {
				return nil, fmt.Errorf("serve: replica %d is shard %d of %d, want shard %d of %d under %s placement",
					i, sh.shard, sh.of, i, len(replicas), HashSharded)
			}
		}
	}
	rt := &Router{replicas: replicas, placement: placement, rows: rows}
	n := len(replicas)
	rt.scratch.New = func() any {
		return &routeScratch{ids: make([][]int, n), pos: make([][]int, n)}
	}
	return rt, nil
}

// NewScorerFleet builds an n-replica fleet over an immutable feature
// store: n slices under HashSharded placement (the entity-side cache
// exists once across the fleet), or n whole-store scorers under
// Replicated placement. n = 1 degenerates to a single-scorer router
// either way.
func NewScorerFleet(nm *core.NormalizedMatrix, w *la.Dense, head Head, n int, placement Placement) (*Router, error) {
	return newFleet(n, placement, func(shard, of int) (*Scorer, error) {
		return NewShardedScorer(nm, w, head, shard, of)
	})
}

// NewEpochFleet builds an n-replica fleet of whole-store scorers over
// one versioned store, under Replicated placement: each replica
// subscribes to the store and patches its own cached partials inside
// Store.Commit, so when Commit returns every replica already serves the
// new epoch. Batches forward whole to one replica, whose generation
// guarantees exactly one (weights, epoch) pair per batch. For a sharded
// epoch fleet, hand NewShardedEpochScorer slices to NewRouter.
func NewEpochFleet(store *epoch.Store, w *la.Dense, head Head, n int) (*Router, error) {
	return newFleet(n, Replicated, func(shard, of int) (*Scorer, error) {
		return NewShardedEpochScorer(store, w, head, shard, of)
	})
}

// newFleet builds n scorers with mk — slices i of n under HashSharded
// placement, whole-store scorers (0 of 1) under Replicated — and routes
// over them.
func newFleet(n int, placement Placement, mk func(shard, of int) (*Scorer, error)) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: fleet needs at least one replica, got %d", n)
	}
	replicas := make([]Replica, n)
	for i := range replicas {
		shard, of := 0, 1
		if placement == HashSharded {
			shard, of = i, n
		}
		r, err := mk(shard, of)
		if err != nil {
			return nil, err
		}
		replicas[i] = r
	}
	return NewRouter(replicas, placement)
}

// Rows reports the fleet-wide row count.
func (rt *Router) Rows() int { return rt.rows }

// NumReplicas reports the fleet width.
func (rt *Router) NumReplicas() int { return len(rt.replicas) }

// Placement reports the configured cache placement.
func (rt *Router) Placement() Placement { return rt.placement }

// Replica returns fleet member i (instrumentation and tests; the request
// path never needs it).
func (rt *Router) Replica(i int) Replica { return rt.replicas[i] }

// Stats returns a snapshot of the routing counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Batches:       rt.batches.Load(),
		SubBatches:    rt.subBatches.Load(),
		Rows:          rt.rowsScored.Load(),
		WeightUpdates: rt.updates.Load(),
	}
}

// ScoreBatch routes one batch across the fleet and returns the scores in
// request order.
func (rt *Router) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := rt.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreBatchInto routes one batch into the caller-owned out slice
// (len(out) == len(ids)) without allocating: partition state is pooled,
// sub-batches run sequentially on the calling goroutine (the gather
// kernel fans wide batches across cores itself, and the Batcher's worker
// pool supplies request-level parallelism), and results are merged back
// in request order. The whole call holds the fleet barrier shared, so
// the batch observes exactly one weight version.
func (rt *Router) ScoreBatchInto(ids []int, out []float64) error {
	if len(out) != len(ids) {
		return fmt.Errorf("%w: %d for %d ids", ErrOutputLen, len(out), len(ids))
	}
	for _, id := range ids {
		if id < 0 || id >= rt.rows {
			return fmt.Errorf("%w: %d not in [0,%d)", ErrRowRange, id, rt.rows)
		}
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	rt.batches.Add(1)
	rt.rowsScored.Add(uint64(len(ids)))

	if rt.placement == Replicated {
		rt.subBatches.Add(1)
		r := rt.replicas[rt.rr.Add(1)%uint64(len(rt.replicas))]
		return r.ScoreBatchInto(ids, out)
	}

	n := len(rt.replicas)
	sc := rt.scratch.Get().(*routeScratch)
	defer rt.scratch.Put(sc)
	for i := 0; i < n; i++ {
		sc.ids[i] = sc.ids[i][:0]
		sc.pos[i] = sc.pos[i][:0]
	}
	for i, id := range ids {
		o := id % n
		sc.ids[o] = append(sc.ids[o], id)
		sc.pos[o] = append(sc.pos[o], i)
	}
	for r := 0; r < n; r++ {
		sub := sc.ids[r]
		if len(sub) == 0 {
			continue
		}
		if cap(sc.sub) < len(sub) {
			sc.sub = make([]float64, len(sub))
		}
		subOut := sc.sub[:len(sub)]
		if err := rt.replicas[r].ScoreBatchInto(sub, subOut); err != nil {
			return err
		}
		for j, p := range sc.pos[r] {
			out[p] = subOut[j]
		}
		rt.subBatches.Add(1)
	}
	return nil
}

// ScoreAll serves every row in order through the fleet, under one weight
// version.
func (rt *Router) ScoreAll() []float64 {
	ids := make([]int, rt.rows)
	for i := range ids {
		ids[i] = i
	}
	out := make([]float64, rt.rows)
	// The error cannot fire: ids are in range by construction and
	// replica errors require out-of-range or foreign rows.
	if err := rt.ScoreBatchInto(ids, out); err != nil {
		panic(fmt.Sprintf("serve: ScoreAll routing failed: %v", err))
	}
	return out
}

// UpdateWeights replaces the model fleet-wide behind an exclusive
// barrier: in-flight batches finish on the old version, every replica
// swaps, then scoring readmits — no batch, even one split across
// replicas, observes a mix. Weight-shape validation happens on the first
// replica before any replica mutates, so an invalid update leaves the
// fleet untouched.
func (rt *Router) UpdateWeights(w *la.Dense) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, r := range rt.replicas {
		if err := r.UpdateWeights(w); err != nil {
			if i > 0 {
				return fmt.Errorf("serve: fleet weight update failed at replica %d (fleet mixed — retry): %w", i, err)
			}
			return err
		}
	}
	rt.updates.Add(1)
	return nil
}
