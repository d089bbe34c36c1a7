package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
)

// TestConcurrentWriterScorerTrainerStress runs the full HTAP triangle at
// once under the race detector: a writer storms upserts and commits, a
// pool of clients scores through the coalescing Batcher, and a trainer
// streams a pinned snapshot into chunked storage and fits a model — all
// on one store. Asserts: the trainer's result is bitwise identical to
// training on a frozen copy of its pinned epoch (both in memory and out
// of core), the final patched scorer agrees with a from-scratch rebuild
// within 1e-12, and every ledger — live epochs, chunk accounting —
// returns to baseline.
func TestConcurrentWriterScorerTrainerStress(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nS, nR, dS, dR := 80, 10, 3, 4
	nm, err := core.NewPKFK(randMat(rng, nS, dS, false), randIndicator(rng, nS, nR), randMat(rng, nR, dR, false))
	if err != nil {
		t.Fatal(err)
	}
	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	w := randWeights(rng, nm.Cols())
	es, err := NewEpochScorer(st, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(es, BatchOptions{MaxBatch: 32, Workers: 4})
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: continuous upserts, committing every few rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(14))
		row := func(n int) []float64 {
			v := make([]float64, n)
			for j := range v {
				v[j] = wrng.NormFloat64()
			}
			return v
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.UpsertEntity(wrng.Intn(nS), row(dS))
			st.UpsertAttr(0, wrng.Intn(nR), row(dR))
			if i%3 == 0 {
				st.Commit()
			}
		}
	}()

	// Scoring clients through the Batcher.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Score((g*17 + i) % nS); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Trainer: pin an epoch mid-storm, freeze a copy, train over both
	// views in memory and out of core, and demand bitwise equality.
	snap := st.Pin()
	var frozenS la.Mat = snap.S().Scale(1).(la.Mat)
	frozenR := snap.R(0).Scale(1).(la.Mat)
	y := la.NewDense(nS, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*(i%2))
	}

	snapNM, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	frozenNM, err := core.New(frozenS, st.IS(), st.Ks(), []la.Mat{frozenR})
	if err != nil {
		t.Fatal(err)
	}
	opt := ml.Options{Iters: 5, StepSize: 1e-3}
	wSnap, err := ml.LogisticRegressionGD(snapNM, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wFrozen, err := ml.LogisticRegressionGD(frozenNM, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wSnap, wFrozen) != 0 {
		t.Fatal("pinned in-memory training drifted from frozen copy under storm")
	}

	csb, err := chunk.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := chunk.NewShardedStoreBackends([]chunk.Backend{csb}, chunk.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	nt, err := chunk.FromNormalized(cs, snapNM.S(), snapNM.IS(), snapNM.Ks(), snapNM.Rs(), 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ml.LogRegScan(nt.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 3, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := chunk.FromDense(cs, frozenS.Dense(), 16)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := chunk.BuildIntVector(cs, st.Ks()[0].Assignments(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chunk.NewStarTable(sm, []chunk.AttrTable{{FK: fk, R: frozenR}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.LogRegScan(ref.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 3, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got, want) != 0 {
		t.Fatal("pinned chunked training drifted from frozen copy under storm")
	}
	snap.Release()

	// Hand the trained model to the live scorer mid-storm.
	if err := es.UpdateWeights(wSnap); err != nil {
		t.Fatal(err)
	}

	close(stop)
	wg.Wait()
	// Quiesce: one final commit of anything still staged, then compare
	// the patched scorer against a from-scratch rebuild at that epoch.
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	final := st.Pin()
	curNM, err := final.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewScorer(curNM, es.Weights(), Logistic)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, wantAll := es.ScoreAll(), fresh.ScoreAll()
	for i := range wantAll {
		if math.Abs(gotAll[i]-wantAll[i]) > diffTol {
			t.Fatalf("row %d after storm: patched %g rebuilt %g", i, gotAll[i], wantAll[i])
		}
	}
	final.Release()

	if st.LiveEpochs() != 1 {
		t.Fatalf("live epochs %d, want 1", st.LiveEpochs())
	}
	if err := nt.Free(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Free(); err != nil {
		t.Fatal(err)
	}
	if cs.LiveChunks() != 0 || cs.BytesOnDisk() != 0 {
		t.Fatalf("chunk accounting not at baseline: %d chunks, %d bytes", cs.LiveChunks(), cs.BytesOnDisk())
	}
}
