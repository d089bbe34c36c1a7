package chunk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// plainBackend hides a directory backend's readInto, so a store over it
// reads every chunk into a new buffer: the run without recycling.
type plainBackend struct{ Backend }

// recycleStore is a 2-shard store. With recycle, its directory shards read
// into recycled buffers, and every buffer handed back is filled with NaN
// first, so a chunk still in use when its buffer is recycled shows.
func recycleStore(t *testing.T, recycle bool) (*Store, *atomic.Int64) {
	t.Helper()
	var bs []Backend
	for range 2 {
		b, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !recycle {
			b = plainBackend{b}
		}
		bs = append(bs, b)
	}
	s, err := NewShardedStoreBackends(bs, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	poisoned := new(atomic.Int64) // onRecycle runs on the pipeline's workers
	s.onRecycle = func(buf []byte) {
		for i := 0; i+8 <= len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(math.NaN()))
		}
		poisoned.Add(1)
	}
	return s, poisoned
}

// recycledRun is what every recycling pass computes over one table.
type recycledRun struct {
	w, centroids, assign, gram *la.Dense
	objective                  float64
}

// runRecycled runs LogReg, k-means (with its final assignment pass) and
// Gram over t, through the scan contract.
func runRecycled(t *testing.T, op la.Operand, y *la.Dense, gram func() (*la.Dense, error)) recycledRun {
	t.Helper()
	var r recycledRun
	var err error
	if r.w, err = ml.LogRegScan(op, y, la.NewDense(op.Cols(), 1), ml.Options{Iters: 4, StepSize: 0.1}); err != nil {
		t.Fatal(err)
	}
	fit, err := ml.KMeansScan(op, 4, ml.Options{Iters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.centroids, r.objective = fit.Centroids, fit.Objective
	if a, ok := fit.Assign.(*Matrix); ok {
		if r.assign, err = a.Dense(); err != nil {
			t.Fatal(err)
		}
	} else if _, r.assign, err = fit.Assign.Chunk(0); err != nil {
		t.Fatal(err)
	}
	if err := fit.Assign.Free(); err != nil {
		t.Fatal(err)
	}
	if r.gram, err = gram(); err != nil {
		t.Fatal(err)
	}
	return r
}

func sameRun(t *testing.T, what string, got, want recycledRun) {
	t.Helper()
	bitsEqual(t, what+": LogReg weights", got.w, want.w)
	bitsEqual(t, what+": k-means centroids", got.centroids, want.centroids)
	bitsEqual(t, what+": k-means assignment", got.assign, want.assign)
	bitsEqual(t, what+": k-means objective", la.ColVector([]float64{got.objective}), la.ColVector([]float64{want.objective}))
	bitsEqual(t, what+": Gram", got.gram, want.gram)
}

// TestRecycledReadsSafe: the passes that recycle their chunks' read buffers
// (the scan's map, a registered op's local apply) compute exactly what they
// compute on new buffers, although every recycled buffer is overwritten
// with NaN; a chunk a caller keeps (Matrix.Chunk, a Stream map) is never
// recycled; and recycling changes neither the I/O counters nor the chunk
// ledger.
func TestRecycledReadsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n, d = 230, 6
	x := randDense(rng, n, d)
	y := la.NewDense(n, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(2*rng.Intn(2) - 1)
	}
	inMem := runRecycled(t, la.InMemory(x), y,
		func() (*la.Dense, error) { return x.CrossProd(), nil })

	for _, ex := range []Exec{Serial, {Workers: 2}} {
		// One chunk: every pass reads it into the buffer the previous pass
		// recycled, and the results are la.InMemory's, bit for bit.
		s, poisoned := recycleStore(t, true)
		m, err := FromDense(s, x, n)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "one chunk, recycled", runRecycled(t, MatOperand(ex, m), y,
			func() (*la.Dense, error) { return m.CrossProdExec(ex) }), inMem)
		if poisoned.Load() == 0 {
			t.Fatal("no read buffer was recycled")
		}

		// Many chunks over both shards: recycled ≡ new buffers, with the
		// same I/O counters, and chunks held across later passes intact.
		runs := map[bool]recycledRun{}
		stats := map[bool]IOStats{}
		for _, recycle := range []bool{false, true} {
			s, poisoned := recycleStore(t, recycle)
			base := s.LiveChunks()
			m, err := FromDense(s, x, 17)
			if err != nil {
				t.Fatal(err)
			}
			_, held, err := m.Chunk(1)
			if err != nil {
				t.Fatal(err)
			}
			rowsOf := func(ci int) *la.Dense { return x.SliceRowsDense(ci*17, (ci+1)*17) }
			var kept *la.Dense
			if err := m.Stream(ex, func(ci, _ int, c la.Mat) (any, error) {
				if ci == 2 {
					kept = c.(*la.Dense)
				}
				return nil, nil
			}, nil); err != nil {
				t.Fatal(err)
			}
			same, err := materialize(ex, m)
			if err != nil {
				t.Fatal(err)
			}
			runs[recycle] = runRecycled(t, MatOperand(ex, m), y,
				func() (*la.Dense, error) { return m.CrossProdExec(ex) })
			bitsEqual(t, "a chunk from Matrix.Chunk, held across the passes", held, rowsOf(1))
			bitsEqual(t, "a chunk kept from a Stream map, held across the passes", kept, rowsOf(2))
			spilled, err := same.Dense()
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "Materialize spilling its chunks", spilled, x)
			if err := same.Free(); err != nil {
				t.Fatal(err)
			}
			stats[recycle] = s.IOStats()
			if recycle {
				if poisoned.Load() == 0 {
					t.Fatal("no read buffer was recycled")
				}
				if _, window := ex.depth(); len(s.free) > window {
					t.Fatalf("free list holds %d buffers, more than the in-flight window %d", len(s.free), window)
				}
			}
			if err := m.Free(); err != nil {
				t.Fatal(err)
			}
			if got := s.LiveChunks(); got != base {
				t.Fatalf("LiveChunks = %d after freeing everything, want %d", got, base)
			}
		}
		sameRun(t, "2 shards, recycled vs new buffers", runs[true], runs[false])
		if stats[true] != stats[false] {
			t.Fatalf("IOStats with recycling %+v, without %+v", stats[true], stats[false])
		}
	}
}
