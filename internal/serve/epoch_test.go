package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
)

// mutateStore applies one random round of upserts to st, built from nm,
// and commits it.
func mutateStore(t *testing.T, rng *rand.Rand, st *epoch.Store, nm *core.NormalizedMatrix) {
	t.Helper()
	if st.EntityCols() > 0 {
		for i := 0; i < 1+rng.Intn(3); i++ {
			row := rng.Intn(nm.S().Rows())
			v := make([]float64, st.EntityCols())
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if err := st.UpsertEntity(row, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for tb := 0; tb < st.NumTables(); tb++ {
		row := rng.Intn(nm.Rs()[tb].Rows())
		v := make([]float64, nm.Rs()[tb].Cols())
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := st.UpsertAttr(tb, row, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochScorerPatchMatchesRebuild is the tentpole differential: after
// every commit, the incrementally patched partial products must score
// within 1e-12 of a scorer rebuilt from scratch at the same epoch —
// across schema shapes, storage classes, and heads.
func TestEpochScorerPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		name string
		mk   func(*rand.Rand, bool) *core.NormalizedMatrix
	}{
		{"pkfk", randPKFK},
		{"star", randStar},
		{"mn", randMN},
	}
	for _, sh := range shapes {
		for _, sparse := range []bool{false, true} {
			for _, head := range []Head{Linear, Logistic} {
				nm := sh.mk(rng, sparse)
				st, err := epoch.NewStore(nm)
				if err != nil {
					t.Fatal(err)
				}
				w := randWeights(rng, nm.Cols())
				es, err := NewEpochScorer(st, w, head)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 5; round++ {
					mutateStore(t, rng, st, nm)
					got := es.ScoreAll()

					snap := st.Pin()
					cur, err := snap.NormalizedMatrix()
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := NewScorer(cur, w, head)
					if err != nil {
						t.Fatal(err)
					}
					want := fresh.ScoreAll()
					snap.Release()
					for i := range want {
						if math.Abs(got[i]-want[i]) > diffTol {
							t.Fatalf("%s sparse=%v head=%v round %d row %d: patched %g rebuilt %g",
								sh.name, sparse, head, round, i, got[i], want[i])
						}
					}
				}
				if ps := es.PatchStats(); ps.Commits != 5 {
					t.Fatalf("%s: patched %d commits, want 5", sh.name, ps.Commits)
				}
				if st.LiveEpochs() != 1 {
					t.Fatalf("%s: live epochs %d, want 1", sh.name, st.LiveEpochs())
				}
			}
		}
	}
}

// TestEpochScorerUpdateWeights checks the full-recompute path agrees
// with a fresh scorer at the new weights, and that patching continues
// correctly across the weight swap.
func TestEpochScorerUpdateWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nm := randStar(rng, false)
	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEpochScorer(st, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	mutateStore(t, rng, st, nm)
	w2 := randWeights(rng, nm.Cols())
	if err := es.UpdateWeights(w2); err != nil {
		t.Fatal(err)
	}
	mutateStore(t, rng, st, nm) // patch on top of the recomputed partials

	snap := st.Pin()
	defer snap.Release()
	cur, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewScorer(cur, w2, Linear)
	if err != nil {
		t.Fatal(err)
	}
	got, want := es.ScoreAll(), fresh.ScoreAll()
	for i := range want {
		if math.Abs(got[i]-want[i]) > diffTol {
			t.Fatalf("row %d: %g vs %g", i, got[i], want[i])
		}
	}
	if la.MaxAbsDiff(es.Weights(), w2) != 0 {
		t.Fatal("Weights() does not reflect the update")
	}
}

// markerRows is the attribute table height of a markerStore.
const markerRows = 8

// markerStore builds a store whose every score equals one scalar marker:
// no entity features, one 1-wide attribute table with all rows equal.
// Upserting every attribute row to a new marker and committing moves all
// scores at once, so any batch that mixes epochs or weight versions is
// detectable from its values alone.
func markerStore(t *testing.T, marker float64) (*epoch.Store, *EpochScorer) {
	t.Helper()
	nS, nR := 64, markerRows
	assign := make([]int, nS)
	for i := range assign {
		assign[i] = i % nR
	}
	r := la.NewDense(nR, 1)
	for i := 0; i < nR; i++ {
		r.Set(i, 0, marker)
	}
	nm, err := core.NewPKFK(nil, la.NewIndicator(assign, nR), r)
	if err != nil {
		t.Fatal(err)
	}
	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	w := la.NewDense(1, 1)
	w.Set(0, 0, 1)
	es, err := NewEpochScorer(st, w, Linear)
	if err != nil {
		t.Fatal(err)
	}
	return st, es
}

// TestEpochScorerBatchObservesOneGeneration is the consistency
// contract under fire: batches scored during a commit storm and
// concurrent weight swaps must be internally uniform — every row of a
// batch sees exactly one (weights, epoch) pair, never a mix.
func TestEpochScorerBatchObservesOneGeneration(t *testing.T) {
	st, es := markerStore(t, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: marker 1, 2, 3, ... one commit per step.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := 2.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < markerRows; i++ {
				st.UpsertAttr(0, i, []float64{m})
			}
			st.Commit()
			m++
		}
	}()
	// Weight swapper: alternates the scale between 1 and 1000, so a
	// mixed-weight batch is as visible as a mixed-epoch one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		scales := []float64{1, 1000}
		w := la.NewDense(1, 1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.Set(0, 0, scales[i%2])
			es.UpdateWeights(w)
		}
	}()

	ids := make([]int, es.Rows())
	for i := range ids {
		ids[i] = i
	}
	for round := 0; round < 300; round++ {
		out, err := es.ScoreBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(out); i++ {
			if out[i] != out[0] {
				close(stop)
				t.Fatalf("round %d: mixed generation in one batch: out[0]=%g out[%d]=%g", round, out[0], i, out[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if st.LiveEpochs() != 1 {
		t.Fatalf("live epochs %d, want 1", st.LiveEpochs())
	}
}

// TestEpochScorerWithBatcher drives the coalescing Batcher over an
// EpochScorer during a commit storm: every result must equal some
// published marker (no torn reads), and the batcher keeps serving
// across epochs without reconstruction.
func TestEpochScorerWithBatcher(t *testing.T) {
	st, es := markerStore(t, 1)
	b := NewBatcher(es, BatchOptions{MaxBatch: 16, Workers: 4})
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := 2.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < markerRows; i++ {
				st.UpsertAttr(0, i, []float64{m})
			}
			st.Commit()
			m++
		}
	}()

	var cwg sync.WaitGroup
	for g := 0; g < 8; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			for i := 0; i < 200; i++ {
				v, err := b.Score((g*31 + i) % es.Rows())
				if err != nil {
					t.Error(err)
					return
				}
				// Every score is a whole marker ≥ 1 — a torn read would
				// surface as a non-integer or out-of-range value.
				if v < 1 || v != math.Trunc(v) {
					t.Errorf("torn score %g", v)
					return
				}
			}
		}(g)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
}
