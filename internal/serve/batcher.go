package serve

import (
	"fmt"
	"runtime"
	"sync"
)

// BatchOptions tunes the flat-combining Batcher.
type BatchOptions struct {
	// MaxBatch is the largest number of requests scored in one gather
	// pass (default 256).
	MaxBatch int
	// Workers bounds how many callers combine at once, which is how many
	// batches execute concurrently (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// combiner (default Workers × MaxBatch). When the queue is full, Score
	// fails fast with ErrOverloaded instead of blocking — the admission
	// edge of the serving stack.
	QueueDepth int
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = o.Workers * o.MaxBatch
	}
	return o
}

// BatchScorer is the backend contract the Batcher coalesces over; *Scorer
// implements it, and wrappers (instrumentation, sharding) can too.
type BatchScorer interface {
	Rows() int
	ScoreBatch(ids []int) ([]float64, error)
}

// IntoScorer is the optional allocation-free capability the Batcher
// probes its backend for: when present, coalesced batches are scored
// into pooled buffers instead of allocating a fresh score slice per
// batch.
type IntoScorer interface {
	// ScoreBatchInto scores ids into the caller-owned out slice
	// (len(out) == len(ids)) without allocating — the steady-state
	// request path.
	ScoreBatchInto(ids []int, out []float64) error
}

// BatcherStats counts the admission and execution work a Batcher has
// performed. Snapshot via Batcher.Stats.
type BatcherStats struct {
	// Accepted is the number of requests admitted.
	Accepted uint64
	// Rejected is the number of requests refused with ErrOverloaded
	// because the queue was full.
	Rejected uint64
	// Batches is the number of gather passes executed.
	Batches uint64
	// Scored is the number of admitted requests answered (equals Accepted
	// once the batcher is idle or closed). A request is counted before its
	// caller wakes, so a caller holding its answer always sees it here.
	Scored uint64
	// PeakQueue is the deepest the admission queue has been.
	PeakQueue int
}

// Batcher coalesces concurrent single-row scoring calls into shared batch
// gather passes behind a bounded admission queue, by flat combining: it
// owns no goroutines, and callers score the batches themselves. A caller
// that arrives while fewer than Workers callers are combining scores its
// own request at once. Otherwise it queues, and a combiner ending its pass
// hands its slot to the oldest waiter, which then scores itself and up to
// MaxBatch−1 requests queued behind it in one pass. A combiner returns
// after the one pass that answers its own request. A lone request thus
// never waits for company, and under load batches grow from queue
// pressure alone.
//
// Overload semantics: at most QueueDepth requests wait for a combiner; a
// request arriving at a full queue fails fast with ErrOverloaded instead
// of queuing unboundedly, so latency under saturation stays bounded and
// the caller — not the queue — decides whether to retry. After Close,
// Score fails fast with ErrBatcherClosed; requests admitted before Close
// are always answered. When the backend also implements IntoScorer, the
// steady-state request path is allocation-free: response channels, batch
// buffers, and score buffers are pooled.
type Batcher struct {
	sc   BatchScorer
	into IntoScorer // non-nil when sc supports allocation-free scoring
	opt  BatchOptions

	// mu guards everything below it. The queue is empty whenever fewer
	// than Workers callers combine, so a caller that combines at once
	// jumps no one.
	mu        sync.Mutex
	queue     []batchReq // ring buffer of waiting requests, QueueDepth long
	head, n   int
	combining int
	closed    bool
	idle      sync.Cond // broadcast when the last combiner leaves a closed batcher
	stats     BatcherStats

	resps sync.Pool // chan batchResp (cap 1), reused across Score calls
	jobs  sync.Pool // *batchJob, reused across gather passes
}

type batchReq struct {
	id  int
	out chan batchResp
}

// batchResp answers a waiting caller: its score or error, or — when job
// is set — the combiner slot, with the pass the caller is to run.
type batchResp struct {
	score float64
	err   error
	job   *batchJob
}

// batchJob is one gather pass; reqs[0] is the combiner's own request.
// Pooling it (with its id and score buffers) keeps the steady-state path
// off the allocator.
type batchJob struct {
	reqs []batchReq
	ids  []int
	out  []float64
}

// NewBatcher returns a flat-combining frontend over sc. It starts no
// goroutines.
func NewBatcher(sc BatchScorer, opt BatchOptions) *Batcher {
	opt = opt.withDefaults()
	b := &Batcher{sc: sc, opt: opt, queue: make([]batchReq, opt.QueueDepth)}
	b.into, _ = sc.(IntoScorer)
	b.idle.L = &b.mu
	b.resps.New = func() any { return make(chan batchResp, 1) }
	b.jobs.New = func() any {
		return &batchJob{
			reqs: make([]batchReq, 0, opt.MaxBatch),
			ids:  make([]int, 0, opt.MaxBatch),
			out:  make([]float64, 0, opt.MaxBatch),
		}
	}
	return b
}

// Score serves one prediction, transparently sharing a gather pass with
// concurrent callers. It blocks until the result is ready — bounded by
// the queue depth: when the admission queue is full it fails immediately
// with ErrOverloaded, and after Close it fails immediately with
// ErrBatcherClosed.
func (b *Batcher) Score(id int) (float64, error) {
	if id < 0 || id >= b.sc.Rows() {
		return 0, ErrRowRange
	}
	b.mu.Lock()
	switch {
	case b.closed:
		b.mu.Unlock()
		return 0, ErrBatcherClosed
	case b.combining < b.opt.Workers:
		b.combining++
		b.stats.Accepted++
		b.mu.Unlock()
		job := b.jobs.Get().(*batchJob)
		job.reqs = append(job.reqs, batchReq{id: id})
		return b.combine(job)
	case b.n == len(b.queue):
		b.stats.Rejected++
		b.mu.Unlock()
		return 0, ErrOverloaded
	}
	out := b.resps.Get().(chan batchResp)
	b.queue[(b.head+b.n)%len(b.queue)] = batchReq{id: id, out: out}
	b.n++
	b.stats.Accepted++
	b.stats.PeakQueue = max(b.stats.PeakQueue, b.n)
	b.mu.Unlock()

	r := <-out
	b.resps.Put(out)
	if r.job != nil {
		return b.combine(r.job)
	}
	return r.score, r.err
}

// Close stops admitting and returns once every already-admitted request
// has been scored. Later Score calls return ErrBatcherClosed. Close is
// idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	for b.combining > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// Stats returns a snapshot of the admission and execution counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// combine runs one gather pass as its combiner and returns the
// combiner's own answer. Each admitted request gets exactly one response
// — on success, backend error, or backend panic — which is what lets
// Score reuse pooled response channels safely. The pass is counted
// before any caller wakes; then, if requests are waiting, the slot passes
// to the oldest of them together with its pass, else it is freed.
func (b *Batcher) combine(job *batchJob) (float64, error) {
	job.ids = job.ids[:0]
	for _, r := range job.reqs {
		job.ids = append(job.ids, r.id)
	}
	scores, err := b.scoreBatch(job)
	if err == nil && len(scores) != len(job.ids) {
		err = fmt.Errorf("serve: ScoreBatch returned %d scores for %d ids", len(scores), len(job.ids))
	}

	b.mu.Lock()
	b.stats.Batches++
	b.stats.Scored += uint64(len(job.reqs))
	var next *batchJob
	if b.n > 0 {
		next = b.jobs.Get().(*batchJob)
		for ; b.n > 0 && len(next.reqs) < b.opt.MaxBatch; b.n-- {
			next.reqs = append(next.reqs, b.queue[b.head])
			b.queue[b.head] = batchReq{}
			b.head = (b.head + 1) % len(b.queue)
		}
	} else if b.combining--; b.combining == 0 && b.closed {
		b.idle.Broadcast()
	}
	b.mu.Unlock()

	for i, r := range job.reqs[1:] {
		if err != nil {
			r.out <- batchResp{err: err}
		} else {
			r.out <- batchResp{score: scores[i+1]}
		}
	}
	if next != nil {
		next.reqs[0].out <- batchResp{job: next}
	}
	var own float64
	if err == nil {
		own = scores[0]
	}
	clear(job.reqs)
	job.reqs = job.reqs[:0]
	b.jobs.Put(job)
	return own, err
}

// scoreBatch calls the backend — through the allocation-free IntoScorer
// path into the job's pooled score buffer when available — converting a
// panic into an error: without the recover, a panicking backend would
// unwind the combiner past its answers and its slot, so every caller in
// the batch blocks forever while the panic takes down the process. With
// it, all callers get the error and the batcher keeps serving.
func (b *Batcher) scoreBatch(job *batchJob) (scores []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			scores, err = nil, fmt.Errorf("serve: ScoreBatch panicked: %v", r)
		}
	}()
	if b.into != nil {
		if cap(job.out) < len(job.ids) {
			job.out = make([]float64, len(job.ids))
		}
		job.out = job.out[:len(job.ids)]
		if err := b.into.ScoreBatchInto(job.ids, job.out); err != nil {
			return nil, err
		}
		return job.out, nil
	}
	return b.sc.ScoreBatch(job.ids)
}
