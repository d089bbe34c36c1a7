package chunk

import (
	"errors"
	"fmt"
	"sync"
)

// errCanceled marks a pushdown producer stopped by the committer's
// cancellation; it never surfaces to callers.
var errCanceled = errors.New("chunk: pushdown pass canceled")

// streamSlack is how many results a producer may deliver ahead of the
// committer, so it keeps working while the committer drains another
// stream; more would only hold more partials in memory.
const streamSlack = 4

// pushRes is one chunk's op result traveling from a producer (local
// pipeline or remote group relay) to the merging committer.
type pushRes struct {
	ci  int
	v   any
	err error
}

// runOp streams every chunk through the op and commits the partials in
// ascending chunk order. Where each chunk is mapped is the store's
// placement, not an option: chunks held by exec-capable shards and not
// proven all-zero are mapped in place by the shard's worker — one /exec
// stream per shard, partials relayed in that shard's ascending chunk order
// — and every other chunk goes through the same pipeline Stream uses,
// whose read path synthesizes the zone-proven zero chunks. The committer
// merges the per-source streams in ascending global chunk order, so the
// reduction visits partials in the same order as an all-local run and the
// result is bit-identical. Any exec failure (no endpoint, unknown op, cut
// stream, corrupt or mis-shaped partial) degrades that shard's remaining
// chunks to the passive read + local-map path; a partial is dropped only by
// erroring the whole pass, never silently.
func (m *chunked[C]) runOp(ex Exec, op Op, commit func(ci int, v any) error) error {
	st, err := prepareOp(op, m.cols)
	if err != nil {
		return err
	}
	apply := func(ci, lo int, c C) (any, error) { return st.apply(c) }
	groups, local := m.store.execPlacement(m.paths)
	if len(groups) == 0 {
		return m.pipeline(ex, nil, true, apply, commit)
	}

	done := make(chan struct{})
	var cancelOnce sync.Once
	cancel := func() { cancelOnce.Do(func() { close(done) }) }
	defer cancel()

	// owner[ci] is the channel chunk ci's result arrives on. Each producer
	// delivers its results in its own ascending chunk order, so the
	// committer below — walking global chunk order and reading each chunk's
	// owner — always finds the next result at the head of some stream.
	owner := make([]chan pushRes, len(m.paths))
	for _, g := range groups {
		ch := make(chan pushRes, streamSlack)
		for _, ci := range g.cis {
			owner[ci] = ch
		}
		go m.runRemoteGroup(st, op, g, ch, done)
	}
	if len(local) > 0 {
		ch := make(chan pushRes, streamSlack)
		for _, ci := range local {
			owner[ci] = ch
		}
		go func() {
			err := m.pipeline(ex, local, true, apply, func(ci int, v any) error {
				if !sendRes(ch, done, pushRes{ci: ci, v: v}) {
					return errCanceled
				}
				return nil
			})
			if err != nil && !errors.Is(err, errCanceled) {
				sendRes(ch, done, pushRes{ci: -1, err: err})
			}
		}()
	}

	for ci, ch := range owner {
		r := <-ch
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
// relaying decoded partials in the group's ascending chunk order and
// counting each accepted one as executed on that shard. Any failure — the
// endpoint missing, the stream cut mid-partial, a corrupt or mis-shaped
// partial — drops this chunk and the rest of the group to the passive
// read + local-map path; only a failure of that path too errors the pass.
func (m *chunked[C]) runRemoteGroup(st opState, op Op, g execGroup, out chan<- pushRes, done <-chan struct{}) {
	fallback := func(cis []int) {
		for _, ci := range cis {
			c, err := m.readAt(ci, false)
			var v any
			if err == nil {
				v, err = st.apply(c)
			}
			if !sendRes(out, done, pushRes{ci: ci, v: v, err: err}) || err != nil {
				return
			}
		}
	}
	chunks := make([]ExecChunk, len(g.cis))
	for i, ci := range g.cis {
		lo, hi := m.chunkBounds(ci)
		chunks[i] = ExecChunk{Key: m.paths[ci], Rows: hi - lo}
	}
	ps, err := g.eb.ExecOp(op, m.kind, m.cols, chunks)
	if err != nil {
		fallback(g.cis)
		return
	}
	defer ps.Close()
	for i, ci := range g.cis {
		raw, err := ps.Next()
		var v any
		if err == nil {
			v, err = st.decodePartial(raw)
		}
		if err != nil {
			// Stream dead or partial unusable: the rest of the group falls
			// back to the passive path.
			ps.Close()
			fallback(g.cis[i:])
			return
		}
		m.store.noteExecuted(g.shard)
		if !sendRes(out, done, pushRes{ci: ci, v: v}) {
			return
		}
	}
}
