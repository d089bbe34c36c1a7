package serve

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestBatcherNoGoroutines: the Batcher owns no goroutines. Callers score
// their own batches, so NewBatcher, Score and Close start none.
func TestBatcherNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nm := randPKFK(rng, false)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	b := NewBatcher(sc, BatchOptions{})
	for i := 0; i < 100; i++ {
		if _, err := b.Score(i % nm.Rows()); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with a live batcher, %d before it", n, before)
	}
	b.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before NewBatcher", n, before)
	}
}

// stepScorer hands each gather pass's ids to the test and then blocks
// until the test releases the pass, so the test decides every step of
// the combining protocol without timing assumptions.
type stepScorer struct {
	rows    int
	passes  chan []int
	release chan struct{}
}

func (s *stepScorer) Rows() int { return s.rows }

func (s *stepScorer) ScoreBatch(ids []int) ([]float64, error) {
	s.passes <- slices.Clone(ids)
	<-s.release
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(id)
	}
	return out, nil
}

// TestBatcherCombinerHandsOff walks the handoff rule with one combiner
// slot. Caller 0 combines alone; callers 1, 2 and 3 queue in that order
// behind it. Releasing caller 0's pass must return caller 0 at once —
// that pass answered it — while the oldest waiter, caller 1, runs the
// next pass with its own request first and caller 2 behind it (MaxBatch
// 2). Caller 1 then hands the slot to caller 3. Every admitted request
// is answered with its own score.
func TestBatcherCombinerHandsOff(t *testing.T) {
	sc := &stepScorer{rows: 8, passes: make(chan []int), release: make(chan struct{})}
	b := NewBatcher(sc, BatchOptions{MaxBatch: 2, Workers: 1, QueueDepth: 3})
	defer b.Close()

	type answer struct {
		score float64
		err   error
	}
	const callers = 4
	var done [callers]chan answer
	for id := range done {
		done[id] = make(chan answer, 1)
	}
	const timeout = 10 * time.Second
	nextPass := func(want ...int) {
		t.Helper()
		select {
		case got := <-sc.passes:
			if !slices.Equal(got, want) {
				t.Fatalf("pass scored ids %v, want %v", got, want)
			}
		case <-time.After(timeout):
			t.Fatalf("no gather pass for ids %v", want)
		}
	}
	answered := func(id int) {
		t.Helper()
		select {
		case a := <-done[id]:
			if a.err != nil || a.score != float64(id) {
				t.Fatalf("caller %d answered (%v, %v)", id, a.score, a.err)
			}
		case <-time.After(timeout):
			t.Fatalf("caller %d was not answered", id)
		}
	}
	pending := func(id int) {
		t.Helper()
		if len(done[id]) != 0 {
			t.Fatalf("caller %d answered before its pass ran", id)
		}
	}
	score := func(id int) {
		go func() {
			v, err := b.Score(id)
			done[id] <- answer{v, err}
		}()
	}

	score(0)
	nextPass(0)
	for id := 1; id < callers; id++ { // queue 1, 2, 3 in order
		score(id)
		for st := b.Stats(); st.Accepted+st.Rejected < uint64(id+1); st = b.Stats() {
			runtime.Gosched()
		}
	}
	if st := b.Stats(); st.PeakQueue != 3 || st.Batches != 0 {
		t.Fatalf("stats %+v before any pass ended, want PeakQueue 3, Batches 0", st)
	}

	sc.release <- struct{}{}
	answered(0) // while the next pass is still held: caller 0 is not its combiner
	pending(1)
	pending(2)
	nextPass(1, 2)
	pending(3)

	sc.release <- struct{}{}
	answered(1)
	answered(2)
	nextPass(3)
	sc.release <- struct{}{}
	answered(3)

	if st := b.Stats(); st.Accepted != callers || st.Scored != callers || st.Batches != 3 {
		t.Fatalf("stats %+v, want %d accepted and scored in 3 passes", st, callers)
	}
}

// TestBatcherScoreZeroAlloc: a steady Score from one goroutine over a
// hash-sharded Router scores on the caller's goroutine from pooled
// buffers and does not touch the heap.
func TestBatcherScoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the allocation audit runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(62))
	nm := randStar(rng, false)
	rt, err := NewScorerFleet(nm, randWeights(rng, nm.Cols()), Logistic, 3, HashSharded)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(rt, BatchOptions{})
	defer b.Close()
	id := 0
	score := func() {
		if _, err := b.Score(id % nm.Rows()); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i < 4; i++ { // warm the pools
		score()
	}
	if a := testing.AllocsPerRun(100, score); a != 0 {
		t.Fatalf("%v allocs per Batcher.Score, want 0", a)
	}
}

// BenchmarkBatcherScore is the Batcher's layer figure: concurrent
// single-row Score calls over a 4-way hash-sharded fleet, in ns and
// allocations per request.
func BenchmarkBatcherScore(b *testing.B) {
	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: 100_000, DS: 10, NR: 5_000, DR: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewScorerFleet(nm, randWeights(rand.New(rand.NewSource(2)), nm.Cols()), Logistic, 4, HashSharded)
	if err != nil {
		b.Fatal(err)
	}
	bt := NewBatcher(rt, BatchOptions{})
	defer bt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := rand.Intn(nm.Rows())
		for pb.Next() {
			if _, err := bt.Score(id); err != nil {
				b.Error(err)
				return
			}
			id = (id + 7919) % nm.Rows()
		}
	})
}
