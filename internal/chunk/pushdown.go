package chunk

import "context"

// StreamOp implements Mat: it runs a registered op over every chunk inside
// the one chunk pipeline and commits the partials in ascending chunk order.
// Where a chunk is mapped is the store's placement, not an option: before
// the first read StreamOp opens one /exec stream per exec-capable shard
// over that shard's chunks, so the shards compute concurrently, and the
// pipeline's reader takes such a chunk's decoded partial from its shard's
// stream in place of reading the chunk; every other chunk is read and
// mapped locally. The reader visits a shard's chunks in ascending order
// (Store.readOrder keeps it), the order its stream delivers them, and a
// partial holds an admission ticket as a chunk does, so a pushed-down pass
// keeps the pipeline's residency bound. The committer reduces in global
// chunk order either way, so results are bit-identical with an all-local
// run. Any exec failure (no endpoint, unknown op, cut stream, corrupt or
// mis-shaped partial) sends that shard's remaining chunks down the local
// path; a partial is dropped only by erroring the whole pass, never
// silently. Every stream is closed by the time StreamOp returns.
func (m *chunked[C]) StreamOp(ex Exec, op Op, commit func(ci int, v any) error) error {
	if m.freed {
		return ErrFreed
	}
	st, err := prepareOp(op, m.cols)
	if err != nil {
		return err
	}
	// Canceling ctx ends the streams' requests, and with them a Next the
	// reader may be blocked in, so a failing pass returns without waiting
	// on a stalled shard.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type stream struct {
		shard int
		ps    *PartialStream // nil once it failed; only the reader touches it
	}
	src := make([]*stream, len(m.paths)) // chunk ci's shard stream, nil: read locally
	for _, g := range m.store.execPlacement(m.paths) {
		chunks := make([]ExecChunk, len(g.cis))
		for i, ci := range g.cis {
			lo, hi := m.chunkBounds(ci)
			chunks[i] = ExecChunk{Key: m.paths[ci], Rows: hi - lo}
		}
		ps, err := g.eb.ExecOp(ctx, op, m.kind, m.cols, chunks)
		if err != nil {
			continue
		}
		defer ps.Close() // after the pipeline, whose reader has exited by then
		s := &stream{shard: g.shard, ps: ps}
		for _, ci := range g.cis {
			src[ci] = s
		}
	}
	fail := func(err error) error {
		if err != nil {
			cancel()
		}
		return err
	}
	type item struct {
		c     C
		p     scanPart
		local bool
	}
	nx := ex.normalized()
	window := nx.Workers + nx.Prefetch + 1
	return runPipelineOrder(len(m.paths), ex, m.store.readOrder(m.paths, ex),
		func(ci int) (item, error) {
			if s := src[ci]; s != nil && s.ps != nil {
				raw, err := s.ps.Next()
				var p scanPart
				if err == nil {
					p, err = st.decodePartial(raw)
				}
				if err == nil {
					m.store.noteExecuted(s.shard)
					return item{p: p}, nil
				}
				s.ps.Close()
				s.ps = nil
				if ctx.Err() != nil {
					return item{}, err
				}
			}
			c, err := m.readAt(ci, true)
			return item{c: c, local: true}, err
		},
		func(ci int, it item) (any, error) {
			if !it.local {
				return it.p, nil
			}
			p, err := st.apply(it.c)
			m.store.recycle(it.c, window)
			return p, fail(err)
		},
		func(ci int, v any) error { return fail(commit(ci, v)) })
}
