package serve

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
)

func placements() []Placement { return []Placement{Replicated, HashSharded} }

// TestRouterDifferential is the fleet gate: for every schema kind,
// storage class, head, placement, and fleet width, routed scoring —
// ScoreAll, random batches with duplicates, single rows, and the full
// Batcher path — must match a single Scorer within 1e-12, before and
// after a fleet-wide weight update.
func TestRouterDifferential(t *testing.T) {
	for name, gen := range schemaGens() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + len(name))))
			for trial := 0; trial < 3; trial++ {
				nm := gen(rng)
				for _, head := range []Head{Linear, Logistic} {
					w1 := randWeights(rng, nm.Cols())
					w2 := randWeights(rng, nm.Cols())
					s1, err := NewScorer(nm, w1, head)
					if err != nil {
						t.Fatal(err)
					}
					s2, err := NewScorer(nm, w2, head)
					if err != nil {
						t.Fatal(err)
					}
					want1, want2 := s1.ScoreAll(), s2.ScoreAll()
					for _, pl := range placements() {
						for _, n := range []int{1, 2, 3} {
							rt, err := NewScorerFleet(nm, w1, head, n, pl)
							if err != nil {
								t.Fatal(err)
							}
							checkFleet(t, rng, rt, want1)
							if err := rt.UpdateWeights(w2); err != nil {
								t.Fatal(err)
							}
							checkFleet(t, rng, rt, want2)
							// A bad update must fail without touching the fleet.
							if err := rt.UpdateWeights(randWeights(rng, nm.Cols()+1)); err == nil {
								t.Fatal("fleet accepted mis-shaped weights")
							}
							checkFleet(t, rng, rt, want2)
						}
					}
				}
			}
		})
	}
}

// checkFleet drives one router through every scoring surface and compares
// against the expected full score vector.
func checkFleet(t *testing.T, rng *rand.Rand, rt *Router, want []float64) {
	t.Helper()
	got := rt.ScoreAll()
	for i := range want {
		if math.Abs(got[i]-want[i]) > diffTol {
			t.Fatalf("%s/%d ScoreAll row %d: %g want %g", rt.Placement(), rt.NumReplicas(), i, got[i], want[i])
		}
	}
	ids := make([]int, 1+rng.Intn(24))
	for j := range ids {
		ids[j] = rng.Intn(rt.Rows()) // duplicates allowed
	}
	vs, err := rt.ScoreBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for j, id := range ids {
		if math.Abs(vs[j]-want[id]) > diffTol {
			t.Fatalf("%s/%d batch row %d: %g want %g", rt.Placement(), rt.NumReplicas(), id, vs[j], want[id])
		}
	}
	id := rng.Intn(rt.Rows())
	one := [1]float64{}
	if err := rt.ScoreBatchInto([]int{id}, one[:]); err != nil {
		t.Fatal(err)
	}
	if v := one[0]; math.Abs(v-want[id]) > diffTol {
		t.Fatalf("%s/%d one-row batch [%d]: %g want %g", rt.Placement(), rt.NumReplicas(), id, v, want[id])
	}

	b := NewBatcher(rt, BatchOptions{MaxBatch: 8, Workers: 2})
	defer b.Close()
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				id := r.Intn(rt.Rows())
				v, err := b.Score(id)
				if err != nil || math.Abs(v-want[id]) > diffTol {
					failures.Add(1)
				}
			}
		}(int64(g + 7))
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%s/%d: %d batched scores wrong", rt.Placement(), rt.NumReplicas(), n)
	}
}

// TestShardedScorerShardRange: a slice index outside [0, of), or a fleet
// of no slices, is refused at construction.
func TestShardedScorerShardRange(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	nm := randPKFK(rng, false)
	w := randWeights(rng, nm.Cols())
	for _, c := range []struct {
		shard, of int
		ok        bool
	}{
		{-1, 2, false},
		{2, 2, false},
		{3, 2, false},
		{0, 0, false},
		{1, 2, true},
	} {
		_, err := NewShardedScorer(nm, w, Linear, c.shard, c.of)
		if (err == nil) != c.ok {
			t.Errorf("shard %d of %d: err %v, want ok %v", c.shard, c.of, err, c.ok)
		}
	}
}

// TestShardedScorerOwnership pins the slice contract: foreign rows fail
// with ErrNotOwned, out-of-range ids with ErrRowRange, mismatched buffers
// with ErrOutputLen — and the sliced entity cache exists exactly once
// across the fleet.
func TestShardedScorerOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const nS, nR, of = 31, 7, 3
	nm, err := core.NewPKFK(randMat(rng, nS, 4, false), randIndicator(rng, nS, nR), randMat(rng, nR, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	w := randWeights(rng, nm.Cols())
	cacheRows := 0
	for shard := 0; shard < of; shard++ {
		s, err := NewShardedScorer(nm, w, Linear, shard, of)
		if err != nil {
			t.Fatal(err)
		}
		if s.Rows() != nS {
			t.Fatalf("shard %d Rows() = %d, want %d", shard, s.Rows(), nS)
		}
		if cr, max := s.CacheRows(), (nS+of-1)/of; cr > max {
			t.Fatalf("shard %d holds %d cache rows, want ≤ %d (not sliced?)", shard, cr, max)
		}
		cacheRows += s.CacheRows()
		for id := 0; id < nS; id++ {
			if got, want := s.Owns(id), id%of == shard; got != want {
				t.Fatalf("shard %d Owns(%d) = %v", shard, id, got)
			}
		}
		foreign := (shard + 1) % of
		if _, err := s.ScoreRow(foreign); !errors.Is(err, ErrNotOwned) {
			t.Fatalf("shard %d scored foreign row: %v", shard, err)
		}
		if _, err := s.ScoreRow(nS); !errors.Is(err, ErrRowRange) {
			t.Fatalf("out-of-range: %v", err)
		}
		if err := s.ScoreBatchInto([]int{shard}, make([]float64, 2)); !errors.Is(err, ErrOutputLen) {
			t.Fatalf("mismatched out accepted: %v", err)
		}
	}
	// The row-indexed cache is partitioned, not replicated: the shards
	// together hold exactly one copy.
	if cacheRows != nS {
		t.Fatalf("fleet holds %d entity cache rows, want %d exactly once", cacheRows, nS)
	}
}

// TestRouterValidation covers fleet construction errors: empty fleets,
// mismatched shard coordinates, and unknown placements.
func TestRouterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	nm := randPKFK(rng, false)
	w := randWeights(rng, nm.Cols())
	if _, err := NewRouter(nil, Replicated); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewScorerFleet(nm, w, Linear, 0, Replicated); err == nil {
		t.Fatal("zero-width fleet accepted")
	}
	if _, err := NewScorerFleet(nm, w, Linear, 2, Placement(99)); err == nil {
		t.Fatal("unknown placement accepted")
	}
	// Shard coordinates must line up with the fleet positions.
	a, err := NewShardedScorer(nm, w, Linear, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardedScorer(nm, w, Linear, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter([]Replica{a, b}, HashSharded); err == nil {
		t.Fatal("swapped shard coordinates accepted")
	}
	if rt, err := NewRouter([]Replica{b, a}, HashSharded); err != nil || rt.NumReplicas() != 2 {
		t.Fatalf("correct fleet rejected: %v", err)
	}
}

// TestRouterWeightBarrier hammers a hash-sharded fleet with concurrent
// fleet-wide weight updates while scoring batches that span shards. Every
// batch must observe exactly one weight version across all replicas it
// touched — a (w1 row, w2 row) mix inside one batch is the bug the
// router's barrier exists to prevent. Run under -race.
func TestRouterWeightBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nm := randStar(rng, false)
	w1 := randWeights(rng, nm.Cols())
	w2 := randWeights(rng, nm.Cols())
	s1, _ := NewScorer(nm, w1, Logistic)
	s2, _ := NewScorer(nm, w2, Logistic)
	want1, want2 := s1.ScoreAll(), s2.ScoreAll()
	rt, err := NewScorerFleet(nm, w1, Logistic, 2, HashSharded)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // update storm
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := w1
			if i%2 == 0 {
				w = w2
			}
			if err := rt.UpdateWeights(w); err != nil {
				t.Errorf("UpdateWeights: %v", err)
				return
			}
		}
	}()
	var torn atomic.Int32
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(seed))
			ids := make([]int, 8)
			out := make([]float64, 8)
			for i := 0; i < 400; i++ {
				for j := range ids {
					// Even and odd ids force the batch across both shards.
					ids[j] = (2*r.Intn(rt.Rows()/2) + j) % rt.Rows()
				}
				if err := rt.ScoreBatchInto(ids, out); err != nil {
					t.Errorf("ScoreBatchInto: %v", err)
					return
				}
				is1, is2 := true, true
				for j, id := range ids {
					if math.Abs(out[j]-want1[id]) > diffTol {
						is1 = false
					}
					if math.Abs(out[j]-want2[id]) > diffTol {
						is2 = false
					}
				}
				if !is1 && !is2 {
					torn.Add(1)
				}
			}
		}(int64(g + 50))
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d batches observed a torn weight version across shards", n)
	}
	if st := rt.Stats(); st.WeightUpdates == 0 || st.Batches == 0 {
		t.Fatalf("storm did not exercise the barrier: %+v", st)
	}
}

// TestEpochFleetCommitStorm drives a replicated EpochScorer fleet through
// a commit storm while scoring through both the Router and a Batcher on
// top of it. Per-batch consistency (duplicate ids must score identically
// inside one batch), fleet-wide epoch propagation (every replica lands on
// the store's final version), and the final differential against a fresh
// scorer are all checked. Run under -race.
func TestEpochFleetCommitStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	nm := randPKFK(rng, false)
	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	w := randWeights(rng, nm.Cols())
	rt, err := NewEpochFleet(st, w, Linear, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Placement() != Replicated {
		t.Fatalf("epoch fleet placement %v, want replicated", rt.Placement())
	}
	b := NewBatcher(rt, BatchOptions{MaxBatch: 16, Workers: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: commit storm
		defer wg.Done()
		defer close(stop)
		r := rand.New(rand.NewSource(99))
		for round := 0; round < 40; round++ {
			if st.EntityCols() > 0 {
				row := r.Intn(nm.S().Rows())
				v := make([]float64, st.EntityCols())
				for j := range v {
					v[j] = r.NormFloat64()
				}
				if err := st.UpsertEntity(row, v); err != nil {
					t.Error(err)
					return
				}
			}
			tb := r.Intn(st.NumTables())
			row := r.Intn(nm.Rs()[tb].Rows())
			v := make([]float64, nm.Rs()[tb].Cols())
			for j := range v {
				v[j] = r.NormFloat64()
			}
			if err := st.UpsertAttr(tb, row, v); err != nil {
				t.Error(err)
				return
			}
			if _, err := st.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ids := make([]int, 6)
			out := make([]float64, 6)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Duplicate ids inside one batch: a batch that mixes
				// epochs would score them differently mid-storm.
				id := r.Intn(rt.Rows())
				for j := range ids {
					ids[j] = id
				}
				if err := rt.ScoreBatchInto(ids, out); err != nil {
					t.Errorf("routed batch: %v", err)
					return
				}
				for j := 1; j < len(out); j++ {
					if out[j] != out[0] {
						t.Errorf("batch mixed epochs: row %d scored %g and %g", id, out[0], out[j])
						return
					}
				}
				if _, err := b.Score(r.Intn(rt.Rows())); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("batched score: %v", err)
					return
				}
			}
		}(int64(g + 77))
	}
	wg.Wait()
	b.Close()

	// Every replica observed every commit, synchronously.
	for i := 0; i < rt.NumReplicas(); i++ {
		es := rt.Replica(i).(*EpochScorer)
		if es.Version() != st.Version() {
			t.Fatalf("replica %d at epoch %d, store at %d", i, es.Version(), st.Version())
		}
	}
	// Final differential: the routed fleet at the final epoch must match a
	// scorer rebuilt from scratch.
	snap := st.Pin()
	defer snap.Release()
	cur, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewScorer(cur, w, Linear)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rt.ScoreAll(), fresh.ScoreAll()
	for i := range want {
		if math.Abs(got[i]-want[i]) > diffTol {
			t.Fatalf("post-storm row %d: routed %g fresh %g", i, got[i], want[i])
		}
	}
}

// TestRouterComposes pins that a Router is itself a Replica, so fleets
// nest behind the same seam (e.g. a replicated router over sharded
// routers).
func TestRouterComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	nm := randStar(rng, true)
	w := randWeights(rng, nm.Cols())
	single, err := NewScorer(nm, w, Linear)
	if err != nil {
		t.Fatal(err)
	}
	inner1, err := NewScorerFleet(nm, w, Linear, 2, HashSharded)
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewScorerFleet(nm, w, Linear, 3, HashSharded)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewRouter([]Replica{inner1, inner2}, Replicated)
	if err != nil {
		t.Fatal(err)
	}
	want := single.ScoreAll()
	got := outer.ScoreAll()
	for i := range want {
		if math.Abs(got[i]-want[i]) > diffTol {
			t.Fatalf("nested fleet row %d: %g want %g", i, got[i], want[i])
		}
	}
}
