package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary. Parent is the id of the span that
// caused it (0 for a root); ids start at 1.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the traced pass ends. A nil *tracer
// records nothing, so the untraced pass runs the same code without the
// bookkeeping.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	rep   int
	spans []span
	// rowParent maps a row id in flight through a sampled call of the
	// outer serve decorator to that call's span, so the replica decorator
	// underneath — which the Router calls with a sub-batch of the same ids
	// and no context — can name its parent. rowsInFlight counts the calls
	// registered, so the common case of none costs no lock.
	rowParent    map[int]int
	rowsInFlight atomic.Int32
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), rowParent: make(map[int]int)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// setRep labels the spans that follow with repetition r.
func (t *tracer) setRep(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = r
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start, Workload: t.workload, Rep: t.rep})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	t.mu.Unlock()
}

// add records an already-timed span (used on hot paths that take their own
// timestamps).
func (t *tracer) add(parent int, name string, startNs, endNs int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: startNs, EndNs: endNs, Workload: t.workload, Rep: t.rep})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// coveredNs is the length of the union of the child intervals, clipped to
// [lo, hi): the part of a span its children account for, counted once
// where children overlap.
func coveredNs(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.StartNs, lo), min(c.EndNs, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanAgg is what the per-layer metrics read off a finished trace: per
// span name, how many there were, their summed duration and their summed
// self time (duration minus the union of the span's direct children).
type spanAgg struct {
	Count  int
	DurNs  int64
	SelfNs int64
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]spanAgg {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.DurNs += s.dur()
		a.SelfNs += s.dur() - coveredNs(s.StartNs, s.EndNs, children[s.ID])
		out[s.Name] = a
	}
	return out
}

func (a spanAgg) seconds() float64     { return float64(a.DurNs) / 1e9 }
func (a spanAgg) selfSeconds() float64 { return float64(a.SelfNs) / 1e9 }
