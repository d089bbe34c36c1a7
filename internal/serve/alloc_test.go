package serve

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
)

// TestSteadyStateZeroAlloc is the allocation audit: once warm, the
// ScoreBatchInto request path — single scorer, sharded replica, and both
// router placements — must not touch the heap. Pool-backed scratch is
// warmed by a few calls first so AllocsPerRun measures the steady state,
// not pool growth.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the allocation audit runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(51))
	nm := randStar(rng, false)
	w := randWeights(rng, nm.Cols())
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = rng.Intn(nm.Rows())
	}
	out := make([]float64, len(ids))

	check := func(name string, score func() error) {
		t.Helper()
		for i := 0; i < 4; i++ { // warm pools and caches
			if err := score(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if a := testing.AllocsPerRun(100, func() {
			if err := score(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}); a != 0 {
			t.Errorf("%s: %v allocs per ScoreBatchInto, want 0", name, a)
		}
	}

	single, err := NewScorer(nm, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	check("Scorer", func() error { return single.ScoreBatchInto(ids, out) })

	for _, pl := range placements() {
		rt, err := NewScorerFleet(nm, w, Logistic, 3, pl)
		if err != nil {
			t.Fatal(err)
		}
		check("Router/"+pl.String(), func() error { return rt.ScoreBatchInto(ids, out) })
	}

	sh, err := NewShardedScorer(nm, w, Logistic, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, 0, len(ids))
	for _, id := range ids {
		if sh.Owns(id) {
			owned = append(owned, id)
		}
	}
	ownedOut := make([]float64, len(owned))
	check("ShardedScorer", func() error { return sh.ScoreBatchInto(owned, ownedOut) })
}

// TestScoreRowZeroAlloc extends the audit to the single-row path: for
// every partial source × ownership combination, ScoreRow must not touch
// the heap.
func TestScoreRowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the allocation audit runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(52))
	nm := randStar(rng, false)
	w := randWeights(rng, nm.Cols())
	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	for _, own := range []struct{ shard, of int }{{0, 1}, {1, 3}} {
		static, err := NewShardedScorer(nm, w, Logistic, own.shard, own.of)
		if err != nil {
			t.Fatal(err)
		}
		versioned, err := NewShardedEpochScorer(st, w, Logistic, own.shard, own.of)
		if err != nil {
			t.Fatal(err)
		}
		for name, sc := range map[string]*Scorer{"matrix": static, "store": versioned} {
			id := own.shard + own.of*rng.Intn(nm.Rows()/own.of)
			if a := testing.AllocsPerRun(100, func() {
				if _, err := sc.ScoreRow(id); err != nil {
					t.Errorf("%s %d/%d: %v", name, own.shard, own.of, err)
				}
			}); a != 0 {
				t.Errorf("%s source, shard %d of %d: %v allocs per ScoreRow, want 0", name, own.shard, own.of, a)
			}
		}
	}
}
