// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and the appendix) at configurable scale. Each experiment
// returns a Result whose rows mirror the series the paper plots: the
// materialized runtime (M), the factorized runtime (F), and their ratio.
//
// Absolute numbers differ from the paper (different hardware, R/BLAS
// replaced by the Go substrate); the shapes — who wins, how speed-ups grow
// with tuple ratio and feature ratio, where the low-ratio crossover region
// lies — are the reproduction target.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Result is one regenerated table or figure. The JSON field names are the
// machine-readable benchmark format `morpheus-bench -json` emits (and CI
// archives as bench.json), so keep them stable.
type Result struct {
	ID     string     `json:"id"` // e.g. "fig3", "table7"
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  string     `json:"notes,omitempty"`
	// I/O accounting, filled by the out-of-core experiments from the chunk
	// store's IOStats at the end of the run: bytes actually read from spill
	// backends, bytes that traveled a remote shard's wire, chunks (and their
	// stored bytes) the zone-map shortcut skipped without reading, and the
	// spill codec in effect (empty = raw chunks).
	BytesRead     int64  `json:"bytes_read,omitempty"`
	BytesOnWire   int64  `json:"bytes_on_wire,omitempty"`
	ChunksSkipped int    `json:"chunks_skipped,omitempty"`
	BytesSkipped  int64  `json:"bytes_skipped,omitempty"`
	Codec         string `json:"codec,omitempty"`
	// Serving-latency summary, filled by the serve-slo experiment from its
	// primary closed-loop run: request latency percentiles in microseconds
	// and the number of requests the admission queue rejected across the
	// overload segments. Zero/absent for experiments without a latency SLO.
	P50us    float64 `json:"p50_us,omitempty"`
	P99us    float64 `json:"p99_us,omitempty"`
	P999us   float64 `json:"p999_us,omitempty"`
	Rejected uint64  `json:"rejected,omitempty"`
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for j, h := range r.Header {
		widths[j] = len(h)
	}
	for _, row := range r.Rows {
		for j, c := range row {
			if j < len(widths) && len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", r.Notes)
	}
	return sb.String()
}

// Config scales the experiment workloads. Scale=1 is the laptop-friendly
// default; larger values move dimensions toward the paper's (at
// proportionally larger runtimes).
type Config struct {
	Scale float64
	Seed  int64
	// TmpDir hosts the out-of-core chunk stores (Tables 9, 10).
	TmpDir string
	// ShardDirs, when set, spreads every out-of-core chunk store across
	// these directories (point them at different disks) with size-aware
	// placement; it takes precedence over TmpDir.
	ShardDirs []string
	// RemoteShards lists morpheus-chunkd base URLs to shard the chunk
	// stores across, alongside any ShardDirs: one store can mix local
	// disks and remote chunk servers.
	RemoteShards []string
	// Workers bounds the out-of-core engine's chunk parallelism
	// (0 = GOMAXPROCS).
	Workers int
	// Pushdown ships op-based per-chunk maps to exec-capable remote
	// shards (RemoteShards pointing at morpheus-chunkd workers) instead
	// of streaming their chunks back; results are asserted identical
	// either way.
	Pushdown bool
	// MemBudgetMB bounds the out-of-core engine's decoded-chunk memory;
	// chunk heights are derived from it via chunk.AutoRows instead of
	// being hard-coded (0 = 256 MB).
	MemBudgetMB int
	// Codec names a registered chunk codec (chunk.CodecByName); every spill
	// backend is wrapped so chunks are compressed at rest and on the wire.
	// Empty means raw chunks.
	Codec string
	// ZoneMap wraps every spill backend with the zone-map annotator, so
	// streaming reductions skip chunks proven all-zero at spill time.
	// Composition order is fixed: compression inside, zone maps outside.
	ZoneMap bool
	// MutateRows sets how many rows each commit of the serve-mutate
	// experiment upserts between scoring windows (0 = a scale-derived
	// default).
	MutateRows int
	// Replicas sets the serving-fleet width for the serve-slo experiment
	// (0 = 4).
	Replicas int
	// SLORate targets an open-loop arrival rate in requests/sec for the
	// serve-slo experiment (0 = derived from the measured closed-loop
	// throughput, capped to keep the generator itself cheap).
	SLORate float64
	// SLOConc is the closed-loop concurrency of the serve-slo load
	// generator (0 = 8).
	SLOConc int
	// SLODur is the measurement window per serve-slo segment (0 = 250ms).
	SLODur time.Duration
}

// DefaultConfig returns Scale=1, Seed=1.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 1} }

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		return 1
	}
	return v
}

// Runner is an experiment entry point.
type Runner func(Config) (Result, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg)
}

// timeIt measures fn, repeating short runs and keeping the minimum so that
// sub-20ms operator timings are not dominated by scheduler/GC noise.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	best := time.Since(start)
	if best >= 20*time.Millisecond {
		return best
	}
	reps := int(20*time.Millisecond/(best+time.Microsecond)) + 1
	if reps > 15 {
		reps = 15
	}
	for i := 0; i < reps; i++ {
		s := time.Now()
		fn()
		if d := time.Since(s); d < best {
			best = d
		}
	}
	return best
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func ratio(m, f time.Duration) string {
	if f <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(m)/float64(f))
}
