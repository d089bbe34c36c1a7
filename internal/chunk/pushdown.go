package chunk

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/la"
)

// errCanceled marks a pushdown producer stopped by the committer's
// cancellation; it never surfaces to callers.
var errCanceled = errors.New("chunk: pushdown pass canceled")

// opSource is one chunked operand viewed as op input: its store, chunk
// keys, wire kind, and the passive read path the pushdown runner falls
// back to.
type opSource struct {
	store  *Store
	keys   []string
	kind   string
	cols   int
	rowsAt func(ci int) int
	read   func(ci int) (la.Mat, error)
}

// pushRes is one chunk's op result traveling from a producer (local
// pipeline or remote group relay) to the merging committer.
type pushRes struct {
	ci  int
	v   any
	err error
}

// runOp streams every chunk through the op and commits the partials in
// ascending chunk order. Without ex.Pushdown (or without any exec-capable
// shard) this is exactly the local chunk pipeline. With it, chunks held by
// exec-capable shards are mapped in place by the shard's worker — one
// /exec stream per shard, partials relayed in that shard's ascending chunk
// order — while local chunks run through the usual worker pipeline; the
// committer merges the per-source streams in ascending global chunk order,
// so the reduction visits partials in the same order as the all-local run
// and the result is bit-identical. Any exec failure (no endpoint, unknown
// op, cut stream, corrupt partial) degrades that shard's remaining chunks
// to the passive ReadChunk + local-map path; a partial is dropped only by
// erroring the whole pass, never silently.
func (src opSource) runOp(ex Exec, op Op, commit func(ci int, v any) error) error {
	st, err := prepareOp(op, src.cols)
	if err != nil {
		return err
	}
	ex = ex.normalized()
	n := len(src.keys)
	apply := func(ci int, c la.Mat) (any, error) { return st.apply(c) }

	// Zone-map shortcut: chunks proven all-zero whose op can build its
	// partial from the chunk shape alone never enter any pipeline — no
	// read, no decode, no synthesis. Their precomputed partials are merged
	// into the ordered commit below at their global positions, so the
	// reduction still visits every chunk's partial in ascending order and
	// the result stays bit-identical (an AllZero zone map admits only +0.0
	// bit patterns, for which the identity partial is exactly what apply
	// would have produced).
	var pre map[int]any
	if zp, ok := st.(zeroPartialer); ok {
		for ci := 0; ci < n; ci++ {
			if src.store.allZeroChunk(src.keys[ci]) {
				if pre == nil {
					pre = make(map[int]any)
				}
				pre[ci] = zp.zeroPartial(src.rowsAt(ci), src.cols)
				src.store.noteSkip(src.keys[ci])
			}
		}
	}

	if !ex.Pushdown {
		if pre == nil {
			return runPipelineOrder(n, ex, src.store.readOrder(src.keys, ex), src.read, apply, commit)
		}
		return src.runSkipping(ex, st, pre, commit)
	}

	// Partition the chunks by executing shard; chunks on passive shards
	// (or untracked keys, which surface their error on read) stay local.
	// Zone-proven all-zero chunks never ship: precomputed partials are
	// excluded entirely, and ops without the shape-only shortcut route
	// their all-zero chunks to the local group, where the read path
	// synthesizes the zero chunk without touching the backend.
	groups := make(map[int][]int)
	execs := make(map[int]ExecBackend)
	var local []int
	for ci := 0; ci < n; ci++ {
		if _, ok := pre[ci]; ok {
			continue
		}
		si, eb := src.store.execBackendFor(src.keys[ci])
		if eb == nil || src.store.allZeroChunk(src.keys[ci]) {
			local = append(local, ci)
			continue
		}
		groups[si] = append(groups[si], ci)
		execs[si] = eb
	}
	if len(groups) == 0 {
		if pre == nil {
			return runPipelineOrder(n, ex, src.store.readOrder(src.keys, ex), src.read, apply, commit)
		}
		return src.runSkipping(ex, st, pre, commit)
	}

	done := make(chan struct{})
	var cancelOnce sync.Once
	cancel := func() { cancelOnce.Do(func() { close(done) }) }
	defer cancel()

	// owner[ci] is the channel chunk ci's result arrives on. Each producer
	// delivers its results in its own ascending chunk order, so the
	// committer below — walking global chunk order and reading each chunk's
	// owner — always finds the next result at the head of some stream.
	owner := make([]chan pushRes, n)
	for si, cis := range groups {
		ch := make(chan pushRes, 4)
		for _, ci := range cis {
			owner[ci] = ch
		}
		go src.runRemoteGroup(st, op, execs[si], cis, ch, done)
	}
	if len(local) > 0 {
		ch := make(chan pushRes, 4)
		for _, ci := range local {
			owner[ci] = ch
		}
		go func() {
			err := runPipeline(len(local), ex,
				func(i int) (la.Mat, error) { return src.read(local[i]) },
				func(i int, c la.Mat) (any, error) { return st.apply(c) },
				func(i int, v any) error {
					if !sendRes(ch, done, pushRes{ci: local[i], v: v}) {
						return errCanceled
					}
					return nil
				})
			if err != nil && !errors.Is(err, errCanceled) {
				sendRes(ch, done, pushRes{ci: -1, err: err})
			}
		}()
	}

	for ci := 0; ci < n; ci++ {
		if v, ok := pre[ci]; ok {
			if err := commit(ci, v); err != nil {
				return err
			}
			continue
		}
		r := <-owner[ci]
		if r.err != nil {
			return r.err
		}
		if r.ci != ci {
			return fmt.Errorf("chunk: pushdown merge out of order: got chunk %d, want %d", r.ci, ci)
		}
		if err := commit(ci, r.v); err != nil {
			return err
		}
	}
	return nil
}

// runSkipping runs the local pipeline over only the chunks the zone-map
// shortcut could not precompute, interleaving the precomputed identity
// partials into the ordered commit at their global chunk positions: commit
// still sees every chunk index exactly once, in ascending order.
func (src opSource) runSkipping(ex Exec, st opState, pre map[int]any, commit func(ci int, v any) error) error {
	n := len(src.keys)
	pend := make([]int, 0, n-len(pre))
	keys := make([]string, 0, n-len(pre))
	for ci := 0; ci < n; ci++ {
		if _, ok := pre[ci]; !ok {
			pend = append(pend, ci)
			keys = append(keys, src.keys[ci])
		}
	}
	next := 0 // next global chunk index to commit
	flush := func(upto int) error {
		for ; next < upto; next++ {
			if v, ok := pre[next]; ok {
				if err := commit(next, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := runPipelineOrder(len(pend), ex, src.store.readOrder(keys, ex),
		func(i int) (la.Mat, error) { return src.read(pend[i]) },
		func(i int, c la.Mat) (any, error) { return st.apply(c) },
		func(i int, v any) error {
			if err := flush(pend[i]); err != nil {
				return err
			}
			next = pend[i] + 1
			return commit(pend[i], v)
		})
	if err != nil {
		return err
	}
	return flush(n)
}

// sendRes delivers a result unless the pass was canceled.
func sendRes(ch chan<- pushRes, done <-chan struct{}, r pushRes) bool {
	select {
	case ch <- r:
		return true
	case <-done:
		return false
	}
}

// runRemoteGroup maps one shard's chunks in place via its /exec stream,
// relaying decoded partials in the group's ascending chunk order. Any
// failure — the endpoint missing, the stream cut mid-partial, a corrupt
// frame — drops this chunk and the rest of the group to the passive
// ReadChunk + local-map path; only a failure of that path too errors the
// pass.
func (src opSource) runRemoteGroup(st opState, op Op, eb ExecBackend, cis []int, out chan<- pushRes, done <-chan struct{}) {
	fallback := func(ci int) bool {
		c, err := src.read(ci)
		if err == nil {
			var v any
			if v, err = st.apply(c); err == nil {
				return sendRes(out, done, pushRes{ci: ci, v: v})
			}
		}
		sendRes(out, done, pushRes{ci: ci, err: err})
		return false
	}
	chunks := make([]ExecChunk, len(cis))
	for i, ci := range cis {
		chunks[i] = ExecChunk{Key: src.keys[ci], Rows: src.rowsAt(ci)}
	}
	ps, err := eb.ExecOp(op, src.kind, src.cols, chunks)
	if err != nil {
		for _, ci := range cis {
			if !fallback(ci) {
				return
			}
		}
		return
	}
	defer ps.Close()
	for i, ci := range cis {
		raw, err := ps.Next()
		if err == nil {
			var v any
			if v, err = st.decodePartial(raw); err == nil {
				if !sendRes(out, done, pushRes{ci: ci, v: v}) {
					return
				}
				continue
			}
		}
		// Stream dead or partial corrupt: the rest of the group falls
		// back to the passive path.
		ps.Close()
		for _, rest := range cis[i:] {
			if !fallback(rest) {
				return
			}
		}
		return
	}
}
