package main

import (
	"sync/atomic"

	"repro/internal/serve"
)

// spanEvery is how many routed batches pass between two that leave spans
// in the trace. The serving path answers hundreds of thousands of batches
// a second; the decorators time every one of them into running sums (which
// the per-layer metrics are computed from) and keep spans for a sample.
const spanEvery = 512

// routeTotals are the running sums of one decorated fleet.
type routeTotals struct {
	batches atomic.Int64 // calls from the Batcher into the Router
	rows    atomic.Int64
	routeNs atomic.Int64 // time inside those calls
	// rowNs is Σ len(batch) · duration(batch): divided by rows it is the
	// router time the average request sat through.
	rowNs     atomic.Int64
	replicaNs atomic.Int64 // time inside the Router's calls into replicas
}

// tracedRouter sits between the Batcher and the Router. For a sampled
// batch it opens a span and registers the batch's row ids with the tracer,
// so that the replica decorators underneath can name it as their parent.
type tracedRouter struct {
	serve.Replica // the Router
	tr            *tracer
	tot           *routeTotals
}

func (t *tracedRouter) ScoreBatchInto(ids []int, out []float64) error {
	sampled := t.tot.batches.Add(1)%spanEvery == 0
	id := 0
	if sampled {
		id = t.tr.beginRows("serve.router", ids)
	}
	start := t.tr.now()
	err := t.Replica.ScoreBatchInto(ids, out)
	dur := t.tr.now() - start
	if sampled {
		t.tr.endRows(id, ids)
	}
	t.tot.rows.Add(int64(len(ids)))
	t.tot.routeNs.Add(dur)
	t.tot.rowNs.Add(int64(len(ids)) * dur)
	return err
}

func (t *tracedRouter) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := t.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedReplica sits between the Router and one fleet member. Its span is
// filed under the router span its first row id is registered to, when
// there is one.
type tracedReplica struct {
	serve.Replica
	tr  *tracer
	tot *routeTotals
}

func (t *tracedReplica) ScoreBatchInto(ids []int, out []float64) error {
	start := t.tr.now()
	err := t.Replica.ScoreBatchInto(ids, out)
	end := t.tr.now()
	t.tot.replicaNs.Add(end - start)
	if len(ids) > 0 && t.tr.rowsInFlight.Load() > 0 {
		t.tr.addUnderRow(ids[0], "serve.replica", start, end)
	}
	return err
}

// beginRows opens a root span and maps every id in ids to it until
// endRows. Two sampled batches in flight at once could hold the same row
// id; the later registration then wins for that id, which can misfile one
// replica span and changes no sum.
func (t *tracer) beginRows(name string, ids []int) int {
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: start, Workload: t.workload, Rep: t.rep})
	for _, row := range ids {
		t.rowParent[row] = id
	}
	t.mu.Unlock()
	t.rowsInFlight.Add(1)
	return id
}

func (t *tracer) endRows(id int, ids []int) {
	end := t.now()
	t.rowsInFlight.Add(-1)
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	for _, row := range ids {
		if t.rowParent[row] == id {
			delete(t.rowParent, row)
		}
	}
	t.mu.Unlock()
}

// addUnderRow records a finished span under the span row is registered
// to; a row no sampled batch holds leaves no span.
func (t *tracer) addUnderRow(row int, name string, startNs, endNs int64) {
	t.mu.Lock()
	if parent, ok := t.rowParent[row]; ok {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
			StartNs: startNs, EndNs: endNs, Workload: t.workload, Rep: t.rep})
	}
	t.mu.Unlock()
}
