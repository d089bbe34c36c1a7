package epoch

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

func testChunkStore(t *testing.T) *chunk.Store {
	t.Helper()
	csb, err := chunk.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := chunk.NewShardedStoreBackends([]chunk.Backend{csb}, chunk.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return cs
}

func labels(rng *rand.Rand, n int) *la.Dense {
	y := la.NewDense(n, 1)
	for i := range y.Data() {
		if rng.Intn(2) == 0 {
			y.Data()[i] = 1
		} else {
			y.Data()[i] = -1
		}
	}
	return y
}

// frozenCopy deep-copies a snapshot's tables, preserving storage class,
// as the immutable reference the pinned views must match bitwise.
func frozenCopy(snap *Snapshot) (la.Mat, []la.Mat) {
	var s la.Mat
	if snap.S() != nil {
		s = snap.S().Scale(1).(la.Mat)
	}
	rs := make([]la.Mat, snap.NumTables())
	for t := range rs {
		rs[t] = snap.R(t).Scale(1).(la.Mat)
	}
	return s, rs
}

// spillSnapshot streams a pinned snapshot into cs as a chunked table: the
// entity table row by row through its epoch view, the attribute tables
// kept in memory as views.
func spillSnapshot(t *testing.T, snap *Snapshot, cs *chunk.Store, chunkRows int) *chunk.NormalizedTable {
	t.Helper()
	nm, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	nt, err := chunk.FromNormalized(cs, nm.S(), nm.IS(), nm.Ks(), nm.Rs(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

// TestBuildChunkedDifferential streams a patched snapshot into chunked
// storage, trains out-of-core, and pins the result bitwise against the
// same training over a frozen copy of the epoch — then checks the chunk
// store's accounting returns to baseline.
func TestBuildChunkedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sparse := range []bool{false, true} {
		st := pkfkStore(t, rng, sparse)
		for k := 0; k < 3; k++ {
			for i := k; i < st.EntityRows(); i += 3 {
				if err := st.UpsertEntity(i, randRow(rng, st.EntityCols())); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.UpsertAttr(0, k, randRow(rng, st.AttrCols(0))); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Pin()
		frozenS, frozenRs := frozenCopy(snap)
		y := labels(rng, st.Rows())

		cs := testChunkStore(t)
		nt := spillSnapshot(t, snap, cs, 16)
		got, err := ml.LogRegScan(nt.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 5, StepSize: 1e-3})
		if err != nil {
			t.Fatal(err)
		}

		// Frozen reference: same chunking over deep copies of the epoch.
		sm, err := chunk.FromDense(cs, frozenS.Dense(), 16)
		if err != nil {
			t.Fatal(err)
		}
		fk, err := chunk.BuildIntVector(cs, st.Ks()[0].Assignments(), 16)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := chunk.NewStarTable(sm, []chunk.AttrTable{{FK: fk, R: frozenRs[0]}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ml.LogRegScan(ref.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 5, StepSize: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("sparse=%v: chunked training over snapshot differs from frozen copy", sparse)
		}

		snap.Release()
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
}

// TestPinnedTrainingUnderConcurrentCommits is the HTAP core guarantee:
// training over a pinned snapshot — in memory and streamed out of core —
// is bitwise identical to training over a frozen copy of that epoch,
// while a writer storms upserts and commits the whole time.
func TestPinnedTrainingUnderConcurrentCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := pkfkStore(t, rng, false)
	if err := st.UpsertAttr(0, 0, randRow(rng, st.AttrCols(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := st.Pin()
	frozenS, frozenRs := frozenCopy(snap)
	y := labels(rng, st.Rows())

	// Writer storm: continuous upserts + commits until told to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(10))
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.UpsertEntity(wrng.Intn(st.EntityRows()), randRow(wrng, st.EntityCols()))
			st.UpsertAttr(0, wrng.Intn(st.AttrRows(0)), randRow(wrng, st.AttrCols(0)))
			st.Commit()
		}
	}()

	// In-memory training over the pinned snapshot vs the frozen copy.
	nm, err := snap.NormalizedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	frozenNM, err := core.New(frozenS, st.IS(), st.Ks(), frozenRs)
	if err != nil {
		t.Fatal(err)
	}
	opt := ml.Options{Iters: 6, StepSize: 1e-3}
	wSnap, err := ml.LogisticRegressionGD(nm, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wFrozen, err := ml.LogisticRegressionGD(frozenNM, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wSnap, wFrozen) != 0 {
		t.Fatal("in-memory training over pinned snapshot drifted from frozen copy under concurrent commits")
	}

	// Out-of-core: stream the pinned snapshot while commits continue.
	cs := testChunkStore(t)
	nt := spillSnapshot(t, snap, cs, 16)
	got, err := ml.LogRegScan(nt.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 4, StepSize: 1e-3})
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
	ref, err := chunk.NewStarTable(sm, []chunk.AttrTable{{FK: fk, R: frozenRs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.LogRegScan(ref.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 4, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got, want) != 0 {
		t.Fatal("chunked training over pinned snapshot drifted from frozen copy under concurrent commits")
	}

	close(stop)
	wg.Wait()
	snap.Release()
	if st.LiveEpochs() != 1 {
		t.Fatalf("live epochs %d after release, want 1", st.LiveEpochs())
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
