package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		want  float64
		label string
	}{
		{7, 0.5, "p50"}, {99, 0.5, "p50"}, // fewer than ten beyond p90: no tail, repeat the median
		{100, 0.90, "p90"}, {999, 0.90, "p90"},
		{1000, 0.99, "p99"}, {5_000_000, 0.99, "p99"}, // the ladder stops at p99
	} {
		if p, label := tailPercentile(c.n); p != c.want || label != c.label {
			t.Errorf("tailPercentile(%d) = %v %s; want %v %s", c.n, p, label, c.want, c.label)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got, label := tailOf(v); got != 990 || label != "p99" {
		t.Errorf("tailOf(1..1000) = %v %s, want 990 p99", got, label)
	}
	if got, label := tailOf(v[:7]); got != 997 || label != "p50" {
		t.Errorf("tailOf(1000..994) = %v %s, want the median 997", got, label)
	}
}

// TestSummaries: a sequential workload's rate is 1/median latency; a
// closed loop's figures are medians over its windows, so one stalled
// window moves none of them.
func TestSummaries(t *testing.T) {
	seq := summarizeSequential([]float64{2e6, 1e6, 4e6})
	if seq.P50Us != 2e6 || seq.PerS != 0.5 || seq.TailUs != 2e6 || seq.TailLabel != "p50" || seq.Windows != 3 {
		t.Errorf("sequential summary = %+v", seq)
	}
	ws := []window{
		{done: 1000, latUs: []float64{3, 3, 3}},
		{done: 10, latUs: []float64{900, 900, 900}}, // a stall
		{done: 1100, latUs: []float64{4, 4, 4}},
	}
	s := summarizeWindows(ws, 0.5)
	if s.PerS != 2000 || s.P50Us != 4 || s.Samples != 9 || s.Windows != 3 {
		t.Errorf("window summary = %+v, want the middle window's figures", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.99, 50}, {1, 50}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the driver applies to the ten runs of a set.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3, ok := quartiles(v)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; Python gives 2.75, 8.25", q1, q3, ok)
	}
	if s, _ := spreadShare(v); math.Abs(s-1) > 1e-15 {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must not be ok")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "algo", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "op", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "op", StartNs: 30, EndNs: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "op", StartNs: 80, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "leaf", StartNs: 35, EndNs: 45},
	}
	agg := aggregate(spans)
	// Children cover [10,60) and [80,100): 70 of the parent's 100.
	if a := agg["algo"]; a.SelfNs != 30 || a.DurNs != 100 || a.Count != 1 {
		t.Errorf("algo = %+v, want self 30 of 100", a)
	}
	// Span 3 loses its grandchild's 10; spans 2 and 4 have no children.
	if a := agg["op"]; a.Count != 3 || a.DurNs != 100 || a.SelfNs != 90 {
		t.Errorf("op = %+v, want 3 spans, 100 ns, 90 self", a)
	}
	if got := coveredNs(0, 100, nil); got != 0 {
		t.Errorf("no children cover %d ns", got)
	}
}

// TestDueTimeLatency: a writer on a 5 ms schedule that stalls for 12 ms in
// tick 1 charges the ticks queued behind it, although each of them, timed
// from its own start, took 1 ms.
func TestDueTimeLatency(t *testing.T) {
	const ms = int64(1e6)
	period := 5 * ms
	now := int64(0)
	service := []int64{1 * ms, 12 * ms, 1 * ms, 1 * ms, 1 * ms}
	var fromDue, fromStart []int64
	for k, s := range service {
		due := dueTime(0, period, k)
		if now < due {
			now = due
		}
		start := now
		now += s
		fromDue = append(fromDue, dueLatency(due, now))
		fromStart = append(fromStart, now-start)
	}
	want := []int64{1 * ms, 12 * ms, 8 * ms, 4 * ms, 1 * ms}
	if fmt.Sprint(fromDue) != fmt.Sprint(want) {
		t.Errorf("latency from due time = %v, want %v", fromDue, want)
	}
	if fromStart[2] != 1*ms {
		t.Errorf("latency from start hides the stall: got %v", fromStart)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  verdict
	}{
		{"slower latency", []float64{120, 121, 119, 120, 120}, true, worse},
		{"faster latency", []float64{80, 81, 79, 80, 80}, true, better},
		{"same", []float64{104, 105, 103, 104, 104}, true, within},
		{"lower throughput", []float64{80, 81, 79, 80, 80}, false, worse},
		{"noisy", []float64{60, 140, 100, 90, 120}, true, unresolved},
	} {
		if v, _, _ := judge(steady, c.b, c.lower, 0.10); v != c.want {
			t.Errorf("%s: %s, want %s", c.name, v, c.want)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var buf bytes.Buffer
		for i := 0; i < 5; i++ {
			rec := record{Environment: environment{Workload: "serve-steady"}}
			rec.Metrics = map[string]metricValue{}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metricValue{100 + float64(i)*0.1, d.Unit}
			}
			rec.Metrics["op_p50_us"] = metricValue{p50 + float64(i)*0.01, "us"}
			b, _ := json.Marshal(rec)
			buf.Write(b)
			buf.WriteByte('\n')
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("A.json", 3.0), write("B.json", 4.0)
	var out bytes.Buffer
	anyWorse, err := compareFiles(&out, "../BENCHMARK.json", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !anyWorse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 33%% slower p50 must be reported worse:\n%s", out.String())
	}
	out.Reset()
	if anyWorse, err = compareFiles(&out, "../BENCHMARK.json", a, a); err != nil || anyWorse {
		t.Errorf("a file compared with itself: worse=%v err=%v\n%s", anyWorse, err, out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchema holds the metric tables in metrics.go and the workload list
// in main.go against BENCHMARK.json, which is what the driver reads.
func TestSchema(t *testing.T) {
	decl, err := readDeclarations("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []declaredMetric, bounded bool) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in metrics.go, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if i >= len(got) {
				continue
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v in BENCHMARK.json, %v in metrics.go", kind, i, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd, true)
	check("per_layer", perLayer, decl.PerLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	if !declared(endToEnd, "setup_s") {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d registered", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v does not match %q", i, w, workloads[i].name)
		}
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}

func metricNames(rec record) []string {
	var names []string
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs all five workloads at tiny shapes with every output check
// on, untraced and traced, and holds the names each run emits against the
// declared sets. It keeps the harness compiling and correct without a
// timing run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := execute(wl.new(true), 1, 0.2, trace, true, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			want := declaredNames(endToEnd)
			if trace {
				want = declaredNames(perLayer)
			}
			if got := metricNames(rec); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s trace=%v emits %v, declared %v", wl.name, trace, got, want)
			}
			for n, v := range rec.Metrics {
				if !nameRE.MatchString(n) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %q = %v", wl.name, n, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, n, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", wl.name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "spill-*")); len(left) != 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
}

// inputDigest hashes the inputs a workload generated in setup.
func inputDigest(t *testing.T, w workload) uint64 {
	h := fnv.New64a()
	floats := func(v []float64) {
		var b [8]byte
		for _, x := range v {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	matrix := func(nm *core.NormalizedMatrix) {
		floats(nm.S().Dense().Data())
		for i, r := range nm.Rs() {
			floats(r.Dense().Data())
			for _, k := range nm.Ks()[i].Assignments() {
				floats([]float64{float64(k)})
			}
		}
	}
	dense := func(d *la.Dense) { floats(d.Data()) }
	switch w := w.(type) {
	case *trainInmem:
		matrix(w.nm)
		dense(w.y)
	case *trainOOC:
		matrix(w.nm)
		dense(w.y)
	case *serveWL:
		matrix(w.nm)
		dense(w.w)
	case *e2eCSV:
		h.Write(w.orders)
		h.Write(w.customers)
		h.Write(w.carries)
	default:
		t.Fatalf("no digest for %T", w)
	}
	return h.Sum64()
}

// exactCounters are the per-layer metrics that count work rather than time
// it: the same seed must reproduce them exactly.
var exactCounters = func() []string {
	names := []string{"chunk.chunks_read", "chunk.bytes_read", "chunk.chunks_skipped", "chunk.bytes_on_disk", "table.rows", "plan.factorized", "plan.chunk_rows"}
	for _, a := range algos {
		names = append(names, "ml."+a+"_iters")
	}
	for _, o := range coreOps {
		names = append(names, "core."+o+"_calls")
	}
	return names
}()

// TestSeedDiscipline: -seed is the only source of randomness. The same
// seed generates byte-identical inputs and identical exact counters; a
// different seed generates different inputs and still passes every check.
func TestSeedDiscipline(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		digest := func(seed int64) uint64 {
			w := wl.new(true)
			r := &run{seed: seed, smoke: true, dir: dir, layer: map[string]float64{}}
			if err := w.setup(r); err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			d := inputDigest(t, w)
			if err := w.teardown(r); err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			return d
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 generated two different inputs", wl.name)
		}
		if a, b := digest(7), digest(8); a == b {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", wl.name)
		}

		a, err := execute(wl.new(true), 7, 0.1, true, true, dir)
		if err != nil {
			t.Fatalf("%s seed 7: %v", wl.name, err)
		}
		b, err := execute(wl.new(true), 7, 0.1, true, true, dir)
		if err != nil {
			t.Fatalf("%s seed 7 again: %v", wl.name, err)
		}
		for _, n := range exactCounters {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %s = %v then %v under the same seed", wl.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
		if _, err := execute(wl.new(true), 8, 0.1, true, true, dir); err != nil {
			t.Errorf("%s seed 8: %v", wl.name, err)
		}
	}
}
