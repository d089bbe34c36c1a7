package chunk

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/la"
)

// Exec configures how a streaming pass executes: by its worker count
// alone. Workers 1 is the strictly sequential read-compute-read loop (the
// pre-parallel engine, kept as the baseline the benchmarks compare
// against); W > 1 workers are fed by a reader running 2W chunks ahead
// (depth). The zero value is Parallel().
type Exec struct {
	// Workers is the number of goroutines computing over chunks
	// concurrently (<=0 means GOMAXPROCS).
	Workers int
}

// Serial is the strictly sequential execution: one chunk is read,
// computed, and committed before the next is touched.
var Serial = Exec{Workers: 1}

// Parallel returns the default parallel execution: GOMAXPROCS compute
// workers fed by a reader that keeps up to 2×Workers decoded chunks
// ahead, so I/O and compute overlap and independent chunks proceed
// concurrently.
func Parallel() Exec { return Exec{Workers: runtime.GOMAXPROCS(0)} }

// normalized resolves Workers <= 0 to GOMAXPROCS, so Exec{} ≡ Parallel().
func (ex Exec) normalized() Exec {
	if ex.Workers <= 0 {
		ex.Workers = runtime.GOMAXPROCS(0)
	}
	return ex
}

// depth is what the worker count sets: how many decoded chunks the reader
// may buffer ahead of the workers (none for the serial loop, 2W for W > 1)
// and the pass's in-flight window, Workers+lookahead+1 — the chunks held
// between read and ordered commit, the bound AutoRows sizes chunks for and
// every per-pass free list keeps to.
func (ex Exec) depth() (lookahead, window int) {
	w := ex.normalized().Workers
	if w > 1 {
		lookahead = 2 * w
	}
	return lookahead, w + lookahead + 1
}

// writeJob is one finished output chunk awaiting spill by the write-behind
// stage.
type writeJob struct {
	path string
	d    *la.Dense
}

// spillWriter is the dedicated write-behind stage: compute workers enqueue
// finished output chunks onto a bounded queue and a single writer goroutine
// spills them to disk, overlapping output I/O with compute the same way the
// reader running ahead overlaps input I/O. enqueue blocks when the queue is
// full, which bounds in-memory output-chunk residency at the queue depth.
// After the first write error the writer keeps draining (so blocked
// producers always make progress) but drops the jobs; the error surfaces on
// every later enqueue and on close. A sharded store runs one spillWriter
// per shard, so spills to different disks proceed concurrently.
type spillWriter struct {
	jobs chan writeJob
	done chan struct{}
	mu   sync.Mutex
	err  error
}

// newSpillWriter starts a shard's writer. Given Build's free list, it puts
// each dequeued chunk back once written when reuse holds, else a nil.
func newSpillWriter(store *Store, free chan<- *la.Dense, reuse bool) *spillWriter {
	w := &spillWriter{jobs: make(chan writeJob, spillQueueDepth), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for j := range w.jobs {
			if w.firstErr() == nil {
				if err := store.writeChunkFile(j.path, encodeDenseChunk(j.d)); err != nil {
					w.setErr(err)
				}
			}
			if free != nil {
				if !reuse {
					j.d = nil
				}
				free <- j.d
			}
		}
	}()
	return w
}

func (w *spillWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *spillWriter) setErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

func (w *spillWriter) enqueue(path string, d *la.Dense) error {
	if err := w.firstErr(); err != nil {
		return err
	}
	w.jobs <- writeJob{path: path, d: d}
	return nil
}

// close waits for the queue to drain and reports the first write error.
func (w *spillWriter) close() error {
	close(w.jobs)
	<-w.done
	return w.firstErr()
}

// outputSpiller pairs freshly allocated output chunk paths with the
// writers that spill mapped chunks to them: asynchronous (write-behind)
// whenever the execution is pipelined or the spill is Build's, strictly
// synchronous for a Serial pass so the reference path stays
// read-compute-write. Under a sharded
// store the spiller runs one write-behind queue per shard, so output
// chunks placed on different disks are written concurrently. Output bytes
// are identical either way — only the overlap changes.
type outputSpiller struct {
	store   *Store
	paths   []string
	shards  []int          // shard of each output path, parallel to paths
	writers []*spillWriter // indexed by shard; all nil → synchronous writes
	free    chan *la.Dense // Build's buffers back from their writes (nil: still held); cap is the window
	made    int            // buffers next has allocated
}

// spillQueueDepth bounds each shard's write-behind queue. A small constant
// keeps output-chunk residency tight — during a spill pass at most Workers
// outputs are being computed plus spillQueueDepth+1 per shard
// queued/being written — while still decoupling the writers from bursty
// chunk completion.
const spillQueueDepth = 2

// newOutputSpiller allocates n output chunks. With recycle (Build, whose
// gen runs on the caller, so its writes are behind even for one worker)
// written chunks' buffers come back through next, at most ex's window of
// them.
func newOutputSpiller(store *Store, n int, ex Exec, recycle bool) (*outputSpiller, error) {
	paths, err := store.alloc(n)
	if err != nil {
		return nil, err
	}
	sp := &outputSpiller{store: store, paths: paths, shards: make([]int, n)}
	for i, p := range paths {
		si := store.shardIndex(p)
		if si < 0 {
			// The freshly allocated path is already untracked — something
			// released it out from under us. Surface the inconsistency
			// instead of index-panicking in emit mid-pass.
			store.release(paths)
			return nil, fmt.Errorf("chunk: output chunk %s released before the spill pass started", p)
		}
		sp.shards[i] = si
	}
	if lookahead, window := ex.depth(); lookahead > 0 || recycle {
		if recycle {
			sp.free = make(chan *la.Dense, window)
		}
		sp.writers = make([]*spillWriter, store.NumShards())
		for i, si := range sp.shards {
			if sp.writers[si] == nil {
				// A directory keeps nothing of a written blob; a
				// RemoteBackend's request body can outlive Client.Do.
				b, _ := store.backendFor(paths[i])
				_, reuse := b.(*dirBackend)
				sp.writers[si] = newSpillWriter(store, sp.free, reuse)
			}
		}
	}
	return sp, nil
}

// next returns a zeroed rows×cols buffer for Build: one a write gave back,
// a new one while fewer than the window exist, else the next to come back.
func (sp *outputSpiller) next(rows, cols int) *la.Dense {
	var d *la.Dense
	select {
	case d = <-sp.free:
	default:
		if sp.made < cap(sp.free) {
			sp.made++
		} else {
			d = <-sp.free
		}
	}
	if d == nil || cap(d.Data()) < rows*cols {
		return la.NewDense(rows, cols)
	}
	d = la.NewDenseData(rows, cols, d.Data()[:rows*cols])
	clear(d.Data())
	return d
}

// emit spills chunk ci's output, possibly asynchronously through the
// write-behind queue of the shard it was placed on. Safe for concurrent
// use from pipeline workers. A released or foreign output path surfaces as
// an error (writeChunkFile resolves the backend through the store's
// tracking; the shard index is re-checked here for the async queues)
// rather than an index panic.
func (sp *outputSpiller) emit(ci int, out *la.Dense) error {
	if sp.writers == nil {
		return sp.store.writeChunkFile(sp.paths[ci], encodeDenseChunk(out))
	}
	si := sp.shards[ci]
	if si < 0 || si >= len(sp.writers) || sp.writers[si] == nil {
		return fmt.Errorf("chunk: output chunk %s is not tracked by this store (freed or foreign)", sp.paths[ci])
	}
	return sp.writers[si].enqueue(sp.paths[ci], out)
}

// finish drains every shard's write-behind queue and combines their first
// error with the pipeline's. On any failure every output chunk written so
// far is released and finish returns nil paths.
func (sp *outputSpiller) finish(err error) ([]string, error) {
	for _, w := range sp.writers {
		if w == nil {
			continue
		}
		if werr := w.close(); err == nil {
			err = werr
		}
	}
	if err != nil {
		sp.store.release(sp.paths)
		return nil, err
	}
	return sp.paths, nil
}

// pipeRes is one mapped chunk result traveling from a worker to the
// ordered committer.
type pipeRes struct {
	ci  int
	v   any
	err error
}

// loaded is one decoded chunk traveling from the reader to a worker.
type loaded[T any] struct {
	ci  int
	c   T
	err error
}

// runPipeline streams chunks [0,n) through mapFn and commits the results
// strictly in chunk order:
//
//	reader ──bounded chan──▶ workers ──chan──▶ ordered commit
//
// read(ci) decodes chunk ci from disk; it runs on a single background
// reader goroutine that visits chunks in ascending ci, the order the
// committer retires them. A matrix's chunks sit on consecutive shards
// (Store.alloc), so that order already spreads a multi-shard pass's reads
// across every shard.
// mapFn runs on ex.Workers goroutines and must not touch shared state.
// commit runs on the calling goroutine, in ascending ci order regardless
// of which worker finishes first — reductions committed this way are
// bit-identical to the serial pass. The first error cancels the pipeline
// and is returned once every goroutine it started has exited; a read
// in progress is waited for, so whatever can block it must be ended by the
// failing mapFn or commit.
func runPipeline[T any](n int, ex Exec,
	read func(ci int) (T, error),
	mapFn func(ci int, c T) (any, error),
	commit func(ci int, v any) error) error {
	if n == 0 {
		return nil
	}
	ex = ex.normalized()
	lookahead, inflight := ex.depth()
	if lookahead == 0 {
		// Strictly serial reference path.
		for ci := 0; ci < n; ci++ {
			c, err := read(ci)
			if err != nil {
				return err
			}
			v, err := mapFn(ci, c)
			if err != nil {
				return err
			}
			if commit != nil {
				if err := commit(ci, v); err != nil {
					return err
				}
			}
		}
		return nil
	}

	done := make(chan struct{})
	var cancelOnce sync.Once
	cancel := func() { cancelOnce.Do(func() { close(done) }) }
	readerDone := make(chan struct{})
	defer func() {
		cancel()
		<-readerDone
	}()

	// Admission tickets bound the chunks in flight between read and
	// ordered commit. Without them a single straggler chunk would let
	// the committer park every later result in `pending` with no
	// backpressure — unbounded memory in exactly the larger-than-RAM
	// regime this engine exists for. The ticket is acquired before the
	// read and released after the commit, so decoded-chunk residency is
	// capped at the window regardless of worker skew. Releasing at commit
	// (in ci order) cannot deadlock: the straggler holds a ticket, so its
	// result always has room to reach the committer.
	tickets := make(chan struct{}, inflight)

	feed := make(chan loaded[T], lookahead)
	go func() {
		defer close(readerDone)
		defer close(feed)
		for ci := 0; ci < n; ci++ {
			select {
			case tickets <- struct{}{}:
			case <-done:
				return
			}
			c, err := read(ci)
			select {
			case feed <- loaded[T]{ci: ci, c: c, err: err}:
				if err != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()

	workers := ex.Workers
	if workers > n {
		workers = n
	}
	results := make(chan pipeRes, inflight)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lc := range feed {
				select {
				case <-done:
					return
				default:
				}
				if lc.err != nil {
					select {
					case results <- pipeRes{ci: lc.ci, err: lc.err}:
					case <-done:
					}
					return
				}
				v, err := mapFn(lc.ci, lc.c)
				select {
				case results <- pipeRes{ci: lc.ci, v: v, err: err}:
				case <-done:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]any, workers)
	next := 0
	var firstErr error
	for r := range results {
		if firstErr != nil {
			continue // drain so the workers can exit
		}
		if r.err != nil {
			firstErr = r.err
			cancel()
			continue
		}
		pending[r.ci] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if commit != nil {
				if err := commit(next, v); err != nil {
					firstErr = err
					cancel()
					break
				}
			}
			<-tickets // chunk fully retired; admit the next read
			next++
		}
	}
	return firstErr
}
