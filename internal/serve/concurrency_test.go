package serve

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
)

// TestConcurrentScorer hammers one Scorer from many goroutines mixing
// ScoreRow, ScoreBatch, ScoreAll, and UpdateWeights. Run under -race this
// checks the snapshot discipline; the value assertion checks that every
// observed score corresponds to exactly one of the two weight versions
// (never a torn mix of old and new partials).
func TestConcurrentScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nm := randStar(rng, false)
	w1 := randWeights(rng, nm.Cols())
	w2 := randWeights(rng, nm.Cols())
	sc, err := NewScorer(nm, w1, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	md := nm.Dense()
	want1 := ml.PredictLogistic(md, w1)
	want2 := ml.PredictLogistic(md, w2)
	matches := func(id int, v float64) bool {
		return math.Abs(v-want1.At(id, 0)) <= diffTol || math.Abs(v-want2.At(id, 0)) <= diffTol
	}

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				switch r.Intn(4) {
				case 0:
					id := r.Intn(nm.Rows())
					v, err := sc.ScoreRow(id)
					if err != nil || !matches(id, v) {
						failures.Add(1)
					}
				case 1:
					ids := make([]int, 1+r.Intn(16))
					for j := range ids {
						ids[j] = r.Intn(nm.Rows())
					}
					vs, err := sc.ScoreBatch(ids)
					if err != nil {
						failures.Add(1)
						continue
					}
					for j, id := range ids {
						if !matches(id, vs[j]) {
							failures.Add(1)
						}
					}
				case 2:
					vs := sc.ScoreAll()
					for id, v := range vs {
						if !matches(id, v) {
							failures.Add(1)
						}
					}
				default:
					w := w1
					if r.Intn(2) == 0 {
						w = w2
					}
					if err := sc.UpdateWeights(w); err != nil {
						failures.Add(1)
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d scores did not match either weight version", n)
	}
}

// TestBatcherCorrectness checks that coalesced scoring returns exactly the
// direct ScoreRow results under heavy concurrency.
func TestBatcherCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nm := randPKFK(rng, true)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Logistic)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(sc, BatchOptions{MaxBatch: 8, Workers: 4})
	defer b.Close()

	want := make([]float64, nm.Rows())
	for i := range want {
		v, err := sc.ScoreRow(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	const workers = 16
	const perWorker = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				id := r.Intn(nm.Rows())
				v, err := b.Score(id)
				if err != nil {
					errs <- err
					return
				}
				if v != want[id] {
					errs <- &mismatchError{id: id, got: v, want: want[id]}
					return
				}
			}
		}(int64(g + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	id        int
	got, want float64
}

func (e *mismatchError) Error() string {
	return "batched score mismatch"
}

// TestBatcherClose checks shutdown semantics: in-flight requests are
// answered, later requests fail fast with ErrClosed, and Close is
// idempotent and race-free against concurrent Score calls.
func TestBatcherClose(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nm := randPKFK(rng, false)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(sc, BatchOptions{MaxBatch: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if _, err := b.Score(r.Intn(nm.Rows())); err != nil {
					if err == ErrOverloaded {
						continue // admission control shedding load, not shutdown
					}
					if err != ErrBatcherClosed {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
			}
		}(int64(g))
	}
	time.Sleep(time.Millisecond)
	b.Close()
	b.Close() // idempotent
	wg.Wait()
	if _, err := b.Score(0); err != ErrBatcherClosed {
		t.Fatalf("Score after Close = %v, want ErrClosed", err)
	}
	if _, err := b.Score(-1); err != ErrRowRange {
		t.Fatalf("out-of-range after Close = %v, want ErrRowRange", err)
	}
}

// TestBatcherCoalesces verifies that concurrent callers share gather
// passes once the backend becomes the bottleneck. The counting backend
// sleeps per batch, so while one batch executes the remaining callers
// queue up and must be drained into a few wide batches — independent of
// scheduler interleaving.
func TestBatcherCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	nm := randPKFK(rng, false)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingScorer{Scorer: sc, perBatch: 2 * time.Millisecond}
	b := NewBatcher(cs, BatchOptions{MaxBatch: 64, Workers: 1})
	defer b.Close()
	const n = 64
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			start.Wait()
			if _, err := b.Score(id % nm.Rows()); err != nil {
				t.Errorf("score: %v", err)
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	// With a 2ms backend and Workers=1, arrivals during the first batch
	// all fold into the next few batches; 64 individual calls would take
	// 128ms and fail long before this threshold.
	if calls := cs.calls.Load(); calls > n/4 {
		t.Fatalf("micro-batching ineffective: %d ScoreBatch calls for %d concurrent requests", calls, n)
	}
}

// countingScorer wraps a Scorer to count batch executions, simulating a
// slow backend so queueing pressure is deterministic.
type countingScorer struct {
	*Scorer
	perBatch time.Duration
	calls    atomic.Int32
}

func (c *countingScorer) ScoreBatch(ids []int) ([]float64, error) {
	c.calls.Add(1)
	time.Sleep(c.perBatch)
	return c.Scorer.ScoreBatch(ids)
}

// ScoreBatchInto must be overridden too: the embedded *Scorer promotes it,
// so the Batcher's IntoScorer probe would otherwise route around the
// counting/sleep instrumentation.
func (c *countingScorer) ScoreBatchInto(ids []int, out []float64) error {
	c.calls.Add(1)
	time.Sleep(c.perBatch)
	return c.Scorer.ScoreBatchInto(ids, out)
}
