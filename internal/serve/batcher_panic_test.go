package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// panicScorer panics on the first panics calls to ScoreBatch, then
// behaves normally.
type panicScorer struct {
	rows   int
	mu     sync.Mutex
	panics int
	calls  int
}

func (p *panicScorer) Rows() int { return p.rows }

func (p *panicScorer) ScoreBatch(ids []int) ([]float64, error) {
	p.mu.Lock()
	p.calls++
	boom := p.panics > 0
	if boom {
		p.panics--
	}
	p.mu.Unlock()
	if boom {
		panic("scorer exploded")
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(id)
	}
	return out, nil
}

// shortScorer returns fewer scores than ids without an error.
type shortScorer struct{ rows int }

func (s *shortScorer) Rows() int { return s.rows }

func (s *shortScorer) ScoreBatch(ids []int) ([]float64, error) {
	return make([]float64, len(ids)/2), nil
}

// TestBatcherRecoversFromScorerPanic: every caller coalesced into the
// panicking batch receives an error (instead of blocking forever or the
// process dying), and the batcher keeps serving afterwards with its full
// worker pool.
func TestBatcherRecoversFromScorerPanic(t *testing.T) {
	const workers = 2
	sc := &panicScorer{rows: 64, panics: workers + 1}
	b := NewBatcher(sc, BatchOptions{Workers: workers})
	defer b.Close()

	// Drive enough concurrent traffic that every worker slot sees at
	// least one panicking batch.
	const callers = 16
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := b.Score(id % sc.rows)
			errs <- err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Score callers blocked after scorer panic — batch never answered")
	}
	close(errs)
	sawPanicErr := false
	for err := range errs {
		if err != nil {
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawPanicErr = true
		}
	}
	if !sawPanicErr {
		t.Fatal("no caller observed the panic error")
	}

	// Burn off any scheduled panics the coalesced batches didn't consume.
	for i := 0; i < workers+1; i++ {
		b.Score(0)
	}

	// The pool must not have leaked slots: more concurrent batches than
	// Workers still complete.
	for round := 0; round < 3; round++ {
		var wg2 sync.WaitGroup
		for i := 0; i < workers*4; i++ {
			wg2.Add(1)
			go func(id int) {
				defer wg2.Done()
				got, err := b.Score(id)
				if err != nil {
					t.Errorf("post-panic Score: %v", err)
				} else if got != float64(id) {
					t.Errorf("post-panic Score(%d) = %v", id, got)
				}
			}(i % sc.rows)
		}
		done2 := make(chan struct{})
		go func() { wg2.Wait(); close(done2) }()
		select {
		case <-done2:
		case <-time.After(10 * time.Second):
			t.Fatal("batcher wedged after panic recovery — leaked worker slot?")
		}
	}
}

// TestBatcherRejectsShortScoreSlice: a backend that silently returns too
// few scores yields an error for the whole batch, not an index panic.
func TestBatcherRejectsShortScoreSlice(t *testing.T) {
	b := NewBatcher(&shortScorer{rows: 8}, BatchOptions{})
	defer b.Close()
	if _, err := b.Score(3); err == nil {
		t.Fatal("Score accepted a short score slice")
	} else if errors.Is(err, ErrRowRange) {
		t.Fatalf("wrong error: %v", err)
	}
}
