package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs. The harness drives
// every workload through the same steps: set-up (timed, repeated), an
// untraced measured pass, and — in a traced run — a second pass with the
// bench-side decorators installed, followed by the layer probes.
type workload interface {
	name() string
	// params are the shapes and settings in force, for the environment block.
	params() any
	// setup generates the inputs from r.seed and builds everything the
	// timed region needs. It may be called again after teardown.
	setup(r *run) error
	// measure warms up, then measures for about d. With tr == nil nothing
	// is decorated; with a tracer the pass records spans and, when it
	// ends, the per-layer metrics read off them. Both passes check their
	// outputs and return an error on a wrong answer.
	measure(r *run, tr *tracer, d time.Duration) (opStats, error)
	// probes measures the layers from outside the timed region (roofline,
	// planner cost, direct scoring, ...). Traced runs only.
	probes(r *run, tr *tracer) error
	teardown(r *run) error
}

// opStats is what a measured pass returns: the latency and throughput of
// the completed operations, and how many were attempted and failed.
type opStats struct {
	summary
	Attempted int
	Failed    int
	// PeakRSSMB is VmHWM when the timed region ended, before the output
	// checks allocate their references.
	PeakRSSMB float64
}

// run carries one invocation's inputs and collects its per-layer metrics.
type run struct {
	seed  int64
	smoke bool
	dir   string // scratch and output directory (bench/out)
	layer map[string]float64
	notes []string
}

// set records per-layer metric name. An undeclared name is a bug in the
// benchmark and stops it.
func (r *run) set(name string, v float64) {
	if !declared(perLayer, name) {
		panic("bench: undeclared per-layer metric " + name)
	}
	r.layer[name] = v
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as written to bench/out/: the result plus the
// environment block, the input -compare reads.
type record struct {
	Environment environment `json:"environment"`
	Trace       bool        `json:"trace"`
	Notes       []string    `json:"notes,omitempty"`
	result
}

// A run sets up at least minSetups times, and then again until it has done
// maxSetups or spent setupBudget on them: a set-up of a tenth of a second
// needs more repetitions than one of a second before its median repeats.
// setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// execute runs workload w once, as the driver invokes it.
func execute(w workload, seed int64, seconds float64, trace, smoke bool, outDir string) (record, error) {
	wall := time.Now()
	r := &run{seed: seed, smoke: smoke, dir: outDir, layer: make(map[string]float64)}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return record{}, err
	}
	rec := record{Environment: newEnvironment(w.name(), seed, seconds, w.params()), Trace: trace}
	d := time.Duration(seconds * float64(time.Second))

	// A traced or smoke run reports no setup_s and sets up once.
	reps := maxSetups
	if trace || smoke {
		reps = 1
	}
	var setups []float64
	var spent time.Duration
	for i := 0; i < reps && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			if err := w.teardown(r); err != nil {
				return rec, fmt.Errorf("teardown: %w", err)
			}
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return rec, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(t0)
		spent += el
		setups = append(setups, el.Seconds())
	}

	metrics := make(map[string]metricValue)
	var st opStats
	var tr *tracer
	var err error
	if !trace {
		if st, err = w.measure(r, nil, d); err != nil {
			return rec, fmt.Errorf("measure: %w", err)
		}
		r.notef("one operation = %s; figures are medians over %d measurement windows, %d timed operations in all; op_tail_us is the %s",
			opOf(w.name()), st.Windows, st.Samples, st.TailLabel)
		vals := map[string]float64{
			"setup_s": median(setups), "op_p50_us": st.P50Us, "op_tail_us": st.TailUs,
			"ops_per_s": st.PerS, "peak_rss_mb": st.PeakRSSMB,
		}
		for _, def := range endToEnd {
			v, ok := vals[def.Name]
			if !ok {
				panic("bench: end-to-end metric not measured: " + def.Name)
			}
			metrics[def.Name] = metricValue{v, def.Unit}
		}
	} else {
		// Half the time untraced, half traced: the per-layer figures come
		// from the second pass, the tracing overhead from the two medians.
		if st, err = w.measure(r, nil, d/2); err != nil {
			return rec, fmt.Errorf("measure (untraced): %w", err)
		}
		tr = newTracer(w.name())
		traced, err := w.measure(r, tr, d/2)
		if err != nil {
			return rec, fmt.Errorf("measure (traced): %w", err)
		}
		if st.P50Us > 0 {
			r.set("bench.trace_overhead_share", traced.P50Us/st.P50Us-1)
		}
		r.set("bench.latency_samples", float64(traced.Samples))
		st.Attempted += traced.Attempted
		st.Failed += traced.Failed
		r.set("bench.fail_share", float64(st.Failed)/float64(max(st.Attempted, 1)))
		if err := w.probes(r, tr); err != nil {
			return rec, fmt.Errorf("probes: %w", err)
		}
		for _, def := range perLayer {
			metrics[def.Name] = metricValue{r.layer[def.Name], def.Unit}
		}
	}
	if err := w.teardown(r); err != nil {
		return rec, fmt.Errorf("teardown: %w", err)
	}

	rec.Notes = r.notes
	rec.result = result{Correct: true, Attempted: st.Attempted, Failed: st.Failed, Metrics: metrics}
	rec.Environment.WallS = time.Since(wall).Seconds()
	if trace {
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.name()+".json"), rec.Environment, tr.snapshot()); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// repeatFor runs a sequential workload's operation back to back for about
// d — at least twice, stopping when another run would overshoot d by more
// than half — and returns each run's latency in microseconds. Only op is
// timed; after runs untimed with the repetition's index (output checks).
// Every operation starts from a collected heap, so that neither its time
// nor the process's peak memory depends on garbage the previous one left.
func repeatFor(tr *tracer, d time.Duration, op func() error, after func(rep int) error) ([]float64, error) {
	var latUs []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		tr.setRep(rep)
		runtime.GC()
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		last := time.Since(t0)
		latUs = append(latUs, float64(last.Nanoseconds())/1e3)
		if err := after(rep); err != nil {
			return nil, err
		}
		if rep >= 1 && time.Since(start)+last/2 >= d {
			return latUs, nil
		}
	}
}

// writeTrace writes the spans of a traced pass with the environment block.
func writeTrace(path string, env environment, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Environment environment `json:"environment"`
		Spans       []span      `json:"spans"`
	}{env, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecord stores one run under dir, named by workload, seed and mode.
func writeRecord(dir string, rec record) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	mode := 0
	if rec.Trace {
		mode = 1
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", rec.Environment.Workload, rec.Environment.Seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printRecord prints the environment, every metric by name with its unit,
// and — as the last line — the result object.
func printRecord(w io.Writer, rec record) error {
	e := rec.Environment
	fmt.Fprintf(w, "# workload %s seed %d trace %v\n", e.Workload, e.Seed, rec.Trace)
	fmt.Fprintf(w, "# cpu %q nproc %d GOMAXPROCS %d clients %d llc %d B %s commit %s\n",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.Clients, e.LLCBytes, e.GoVersion, e.Commit)
	if p, err := json.Marshal(e.Params); err == nil {
		fmt.Fprintf(w, "# params %s\n", p)
	}
	fmt.Fprintf(w, "# measured %.1f s, whole run %.1f s; %s\n", e.Seconds, e.WallS, e.Note)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %18.6f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", rec.Attempted, rec.Failed)
	b, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
