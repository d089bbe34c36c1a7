package repro

import (
	"repro/internal/epoch"
	"repro/internal/serve"
)

// Serving layer (internal/serve): cached attribute-table partial products
// (T·w = S·wS + Σ K_i·(R_i·w_{R_i}), precomputed per model) behind one
// Scorer type, a Router that places batches across a fleet of them, and a
// Batcher that coalesces callers behind a bounded admission queue. The
// facade names what the examples and README use; everything else —
// routers over explicit replicas, sharded epoch slices, stats — is in
// internal/serve, described in docs/ARCHITECTURE.md.

// BatchOptions tunes the Batcher's batch size, concurrent combiners and
// admission queue.
type BatchOptions = serve.BatchOptions

// Scorer link functions.
const (
	LinearHead   = serve.Linear
	LogisticHead = serve.Logistic
)

// Fleet cache placements.
const (
	ReplicatedFleet  = serve.Replicated
	HashShardedFleet = serve.HashSharded
)

// ErrScoreOverloaded reports a request rejected by a full admission
// queue.
var ErrScoreOverloaded = serve.ErrOverloaded

// Serving-layer entry points: a scorer over an immutable normalized
// matrix, a routed fleet of them, the coalescing frontend, and the
// versioned store (internal/epoch) with the scorer that tracks its
// commits.
var (
	NewScorer      = serve.NewScorer
	NewScorerFleet = serve.NewScorerFleet
	NewBatcher     = serve.NewBatcher
	NewEpochStore  = epoch.NewStore
	NewEpochScorer = serve.NewEpochScorer
)
