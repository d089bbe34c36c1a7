package serve

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
)

// stormRound stages one random round of upserts — an entity row or two and
// one row per attribute table — each preceded by a non-finite upsert of the
// same row, which the store must refuse, and commits it. st was built
// from nm.
func stormRound(t *testing.T, rng *rand.Rand, st *epoch.Store, nm *core.NormalizedMatrix) *epoch.Commit {
	t.Helper()
	row := func(n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	poisoned := func(n int) []float64 {
		v := row(n)
		v[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		return v
	}
	staged := 0
	if dS := st.EntityCols(); dS > 0 {
		for i := 0; i < 1+rng.Intn(2); i++ {
			r := rng.Intn(nm.S().Rows())
			if err := st.UpsertEntity(r, poisoned(dS)); !errors.Is(err, epoch.ErrNonFinite) {
				t.Fatalf("non-finite entity upsert: got %v", err)
			}
			if err := st.UpsertEntity(r, row(dS)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for tb := 0; tb < st.NumTables(); tb++ {
		r := rng.Intn(nm.Rs()[tb].Rows())
		if err := st.UpsertAttr(tb, r, poisoned(nm.Rs()[tb].Cols())); !errors.Is(err, epoch.ErrNonFinite) {
			t.Fatalf("non-finite attr upsert: got %v", err)
		}
		if err := st.UpsertAttr(tb, r, row(nm.Rs()[tb].Cols())); err != nil {
			t.Fatal(err)
		}
		staged++
	}
	c, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if c.RowsChanged() < staged {
		t.Fatalf("commit changed %d rows, staged at least %d", c.RowsChanged(), staged)
	}
	return c
}

// TestShardedEpochDifferential is the gate for the combination the
// unified scorer makes reachable: n sharded epoch slices behind a
// HashSharded router must score within 1e-12 of one whole-store epoch
// scorer after every commit of a storm interleaved with UpdateWeights —
// and of a from-scratch rebuild at the end, although the storm keeps
// offering non-finite rows — while concurrent readers hammer the fleet
// (run under -race). The ledgers are pinned too: each slice patches only
// the entity rows it owns, the sliced entity cache exists once across the
// fleet (M:N: whole on every slice), and no epoch stays pinned.
func TestShardedEpochDifferential(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(*rand.Rand, bool) *core.NormalizedMatrix
	}{{"pkfk", randPKFK}, {"star", randStar}, {"mn", randMN}}
	rng := rand.New(rand.NewSource(61))
	for _, sh := range shapes {
		for _, head := range []Head{Linear, Logistic} {
			for _, n := range []int{2, 3} {
				nm := sh.mk(rng, n == 3)
				st, err := epoch.NewStore(nm)
				if err != nil {
					t.Fatal(err)
				}
				w := randWeights(rng, nm.Cols())
				single, err := NewEpochScorer(st, w, head)
				if err != nil {
					t.Fatal(err)
				}
				slices := make([]*Scorer, n)
				replicas := make([]Replica, n)
				for i := range slices {
					if slices[i], err = NewShardedEpochScorer(st, w, head, i, n); err != nil {
						t.Fatal(err)
					}
					replicas[i] = slices[i]
				}
				rt, err := NewRouter(replicas, HashSharded)
				if err != nil {
					t.Fatal(err)
				}

				stop := make(chan struct{})
				var stopOnce sync.Once
				halt := func() { stopOnce.Do(func() { close(stop) }) }
				var readers sync.WaitGroup
				for g := 0; g < 3; g++ {
					readers.Add(1)
					go func(seed int64) {
						defer readers.Done()
						r := rand.New(rand.NewSource(seed))
						ids := make([]int, 7)
						out := make([]float64, len(ids))
						for {
							select {
							case <-stop:
								return
							default:
							}
							for j := range ids {
								ids[j] = r.Intn(rt.Rows())
							}
							if err := rt.ScoreBatchInto(ids, out); err != nil {
								t.Errorf("routed batch: %v", err)
								return
							}
							for j, v := range out {
								if math.IsNaN(v) || math.IsInf(v, 0) {
									t.Errorf("row %d scored %g mid-storm", ids[j], v)
									return
								}
							}
						}
					}(int64(g + 90))
				}

				check := func(round int, want []float64) {
					t.Helper()
					got := rt.ScoreAll()
					for i := range want {
						if math.Abs(got[i]-want[i]) > diffTol {
							halt()
							t.Fatalf("%s/%v/%d round %d row %d: sharded %g, want %g", sh.name, head, n, round, i, got[i], want[i])
						}
					}
				}
				entRows, attrRows := 0, 0
				for round := 0; round < 8; round++ {
					c := stormRound(t, rng, st, nm)
					if c.Entity != nil {
						entRows += len(c.Entity.Rows)
					}
					attrRows += c.RowsChanged()
					if round%3 == 1 {
						w = randWeights(rng, nm.Cols())
						if err := single.UpdateWeights(w); err != nil {
							t.Fatal(err)
						}
						if err := rt.UpdateWeights(w); err != nil {
							t.Fatal(err)
						}
					}
					check(round, single.ScoreAll())
				}
				attrRows -= entRows
				halt()
				readers.Wait()

				snap := st.Pin()
				cur, err := snap.NormalizedMatrix()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewScorer(cur, w, head)
				if err != nil {
					t.Fatal(err)
				}
				check(-1, fresh.ScoreAll())
				snap.Release()

				cacheRows, patched := 0, uint64(0)
				for i, s := range slices {
					if s.Version() != st.Version() {
						t.Fatalf("slice %d at epoch %d, store at %d", i, s.Version(), st.Version())
					}
					if sh.name == "mn" && s.CacheRows() != nm.S().Rows() {
						t.Fatalf("M:N slice %d holds %d entity partials, want all %d", i, s.CacheRows(), nm.S().Rows())
					}
					cacheRows += s.CacheRows()
					patched += s.PatchStats().Rows
				}
				wantCache, wantPatched := nm.S().Rows(), entRows+n*attrRows
				if sh.name == "mn" {
					wantCache, wantPatched = n*nm.S().Rows(), n*(entRows+attrRows)
				}
				if cacheRows != wantCache {
					t.Fatalf("%s/%d: fleet holds %d entity partials, want %d", sh.name, n, cacheRows, wantCache)
				}
				if patched != uint64(wantPatched) {
					t.Fatalf("%s/%d: fleet patched %d rows, want %d (entity rows only where owned)", sh.name, n, patched, wantPatched)
				}
				if st.LiveEpochs() != 1 {
					t.Fatalf("%s/%d: live epochs %d, want 1", sh.name, n, st.LiveEpochs())
				}
			}
		}
	}
}

// gatedMat is a base table whose Mul can be held open, to park a partial
// rebuild in the middle of its work.
type gatedMat struct {
	la.Mat
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedMat) Mul(x *la.Dense) *la.Dense {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Mat.Mul(x)
}

// TestScoringDoesNotBlockOnUpdateWeights holds an UpdateWeights rebuild
// open and requires readers to keep completing — on the old model —
// until it is released: the read path is one atomic load, and the writer
// mutex is never on it. Over an epoch store the rebuild used to hold the
// scorer's lock exclusively for its whole O(nnz) duration.
func TestScoringDoesNotBlockOnUpdateWeights(t *testing.T) {
	for _, source := range []string{"matrix", "store"} {
		t.Run(source, func(t *testing.T) {
			rng := rand.New(rand.NewSource(62))
			const nS, nR = 40, 6
			gate := &gatedMat{Mat: randMat(rng, nR, 3, false), entered: make(chan struct{}, 1), release: make(chan struct{})}
			nm, err := core.NewPKFK(randMat(rng, nS, 2, false), randIndicator(rng, nS, nR), gate)
			if err != nil {
				t.Fatal(err)
			}
			w1, w2 := randWeights(rng, nm.Cols()), randWeights(rng, nm.Cols())
			var sc *Scorer
			if source == "store" {
				st, err := epoch.NewStore(nm)
				if err != nil {
					t.Fatal(err)
				}
				sc, err = NewEpochScorer(st, w1, Linear)
				if err != nil {
					t.Fatal(err)
				}
			} else if sc, err = NewScorer(nm, w1, Linear); err != nil {
				t.Fatal(err)
			}
			old := sc.ScoreAll()

			gate.armed.Store(true)
			var once sync.Once
			open := func() { once.Do(func() { gate.armed.Store(false); close(gate.release) }) }
			defer open()
			updated := make(chan error, 1)
			go func() { updated <- sc.UpdateWeights(w2) }()
			<-gate.entered // the rebuild is parked inside R·wR, holding the writer mutex

			read := make(chan error, 1)
			go func() {
				ids := allIDs(nS)
				for i := 0; i < 50; i++ {
					got, err := sc.ScoreBatch(ids)
					if err != nil {
						read <- err
						return
					}
					v, err := sc.ScoreRow(i % nS)
					if err != nil {
						read <- err
						return
					}
					if v != old[i%nS] || got[nS-1] != old[nS-1] {
						read <- errors.New("reader observed a model other than the old one during the rebuild")
						return
					}
				}
				read <- nil
			}()
			select {
			case err := <-read:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("scoring blocked behind a held UpdateWeights rebuild")
			}

			open()
			if err := <-updated; err != nil {
				t.Fatal(err)
			}
			if la.MaxAbsDiff(sc.Weights(), w2) != 0 {
				t.Fatal("released UpdateWeights did not publish the new model")
			}
		})
	}
}

// TestOwnershipDecisions pins the three places where a slice and a
// whole-store scorer now share one type: ScoreAll never answers for rows
// a slice does not hold, a whole-store scorer stays a valid member of a
// HashSharded router, and a true slice is refused where it cannot serve.
func TestOwnershipDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	nm := randStar(rng, false)
	w := randWeights(rng, nm.Cols())
	whole, err := NewScorer(nm, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.ScoreAll()

	slices := make([]Replica, 2)
	for i := range slices {
		s, err := NewShardedScorer(nm, w, Logistic, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		slices[i] = s
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ScoreAll on slice %d of 2 returned instead of panicking", i)
				}
			}()
			s.ScoreAll()
		}()
	}
	if _, err := NewRouter(slices, Replicated); err == nil {
		t.Fatal("true slices accepted under Replicated placement")
	}

	// Whole-store scorers accept every row, so any position of a
	// HashSharded router suits them; the fleet form of ScoreAll works.
	other, err := NewScorer(nm, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter([]Replica{whole, other}, HashSharded)
	if err != nil {
		t.Fatalf("whole-store scorers rejected from a HashSharded router: %v", err)
	}
	for i, v := range rt.ScoreAll() {
		if v != want[i] {
			t.Fatalf("row %d: %g via router, %g direct", i, v, want[i])
		}
	}
}
