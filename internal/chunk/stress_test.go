package chunk

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreAccountingConcurrentStress hammers the store's accounting
// surface — alloc/recordWrite (via FromDense + spilled Mul products),
// release (Free), ShardStats, BytesOnDisk, LiveChunks — from many
// goroutines while parallel spill passes are active. Run under -race it
// pins the Store's locking; afterwards the accounting must unwind to
// exactly zero.
func TestStoreAccountingConcurrentStress(t *testing.T) {
	s, _ := testShardedStore(t, 3, LeastBytes)
	base := randDense(rand.New(rand.NewSource(81)), 120, 6)
	m, err := FromDense(s, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := randDense(rand.New(rand.NewSource(82)), 6, 4)

	errs := make(chan error, 16)
	var writers sync.WaitGroup
	// Active spill passes: chunked products allocated, written, and freed.
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5; i++ {
				p, err := mulExec(MatOperand(Exec{Workers: 2, Prefetch: 2}, m), x)
				if err != nil {
					errs <- err
					return
				}
				if err := p.Free(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Builders: concurrent alloc + recordWrite + release on fresh matrices.
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 8; i++ {
				d, err := FromDense(s, randDense(rng, 30, 1+g), 5)
				if err != nil {
					errs <- err
					return
				}
				if err := d.Free(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Readers of the accounting surface, racing the writers above until
	// every writer has finished.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range s.ShardStats() {
					if st.Bytes < 0 || st.Chunks < 0 {
						errs <- fmt.Errorf("negative shard accounting: %+v", st)
						return
					}
				}
				if got := s.BytesOnDisk(); got < 0 {
					errs <- fmt.Errorf("negative BytesOnDisk %d", got)
					return
				}
				if got := s.LiveChunks(); got < m.NumChunks() {
					errs <- fmt.Errorf("LiveChunks %d below the %d pinned input chunks", got, m.NumChunks())
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveChunks(); got != 0 {
		t.Fatalf("stress left %d live chunks", got)
	}
	if got := s.BytesOnDisk(); got != 0 {
		t.Fatalf("stress left %d bytes accounted", got)
	}
	for i, st := range s.ShardStats() {
		if st.Chunks != 0 || st.Bytes != 0 {
			t.Fatalf("shard %d accounting did not unwind: %+v", i, st)
		}
	}
}

// failWriteBackend wraps a Backend and fails every WriteChunk after the
// first ok of them (the zero value fails them all), for exercising the
// write-side error paths.
type failWriteBackend struct {
	Backend
	ok atomic.Int64
}

var errInjectedWrite = errors.New("injected write failure")

func (b *failWriteBackend) WriteChunk(key string, data []byte) error {
	if b.ok.Add(-1) < 0 {
		return errInjectedWrite
	}
	return b.Backend.WriteChunk(key, data)
}

// TestSpillWriterEnqueueVsErrorRace races concurrent enqueues against the
// writer goroutine recording its first error: whatever interleaving the
// scheduler picks, the injected write failure must surface by finish —
// either on an enqueue or from the queue drain — and never deadlock a
// producer blocked on a full queue.
func TestSpillWriterEnqueueVsErrorRace(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	out := randDense(rng, 4, 3)
	for round := 0; round < 30; round++ {
		inner, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewShardedStoreBackends([]Backend{&failWriteBackend{Backend: inner}}, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		const n = 12
		sp, err := newOutputSpiller(s, n, Exec{Workers: 4, Prefetch: 2}, false)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for ci := 0; ci < n; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				// An enqueue may or may not observe the error first; the
				// guarantee under test is that finish always does.
				sp.emit(ci, out)
			}(ci)
		}
		wg.Wait()
		if _, err := sp.finish(nil); !errors.Is(err, errInjectedWrite) {
			t.Fatalf("round %d: finish = %v, want the injected write failure", round, err)
		}
		if got := s.LiveChunks(); got != 0 {
			t.Fatalf("round %d: failed spill left %d chunks tracked", round, got)
		}
	}
}
