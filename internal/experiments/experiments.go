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
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/la"
)

// Result is one regenerated table or figure. The JSON field names are the
// machine-readable format `morpheus-bench -json` emits, so keep them stable.
type Result struct {
	ID     string     `json:"id"` // e.g. "fig3", "table7"
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  string     `json:"notes,omitempty"`
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
	// these directories (point them at different disks) with round-robin
	// placement; it takes precedence over TmpDir.
	ShardDirs []string
	// RemoteShards lists morpheus-chunkd base URLs to shard the chunk
	// stores across, alongside any ShardDirs: one store can mix local
	// disks and remote chunk servers.
	RemoteShards []string
	// Workers bounds the out-of-core engine's chunk parallelism
	// (0 = GOMAXPROCS).
	Workers int
	// MemBudgetMB bounds the out-of-core engine's decoded-chunk memory;
	// chunk heights are derived from it via chunk.AutoRows instead of
	// being hard-coded (0 = 256 MB).
	MemBudgetMB int
	// Codec names a registered chunk codec (chunk.CodecByName); every spill
	// backend is wrapped so chunks are compressed at rest and on the wire.
	// Empty means raw chunks.
	Codec string
}

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

// Run executes one experiment by ID. Scale must be a positive finite
// number: the real-data runners divide by it.
func Run(id string, cfg Config) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if !(cfg.Scale > 0) || math.IsInf(cfg.Scale, 1) {
		return Result{}, fmt.Errorf("experiments: scale must be a positive finite number, got %v", cfg.Scale)
	}
	return r(cfg)
}

// timeIt measures fn, repeating short runs and keeping the minimum so that
// sub-20ms operator timings are not dominated by scheduler/GC noise. The
// first error fn returns ends the measurement and is returned.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	best := time.Since(start)
	if best >= 20*time.Millisecond {
		return best, nil
	}
	reps := int(20*time.Millisecond/(best+time.Microsecond)) + 1
	if reps > 15 {
		reps = 15
	}
	for i := 0; i < reps; i++ {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(s); d < best {
			best = d
		}
	}
	return best, nil
}

// timeOp is timeIt for an operator that cannot fail.
func timeOp(fn func()) time.Duration {
	d, _ := timeIt(func() error { fn(); return nil })
	return d
}

// timePair times run over the materialized and then the factorized form of
// one table — the M and F columns of every paper row.
func timePair(m, f la.Matrix, run func(la.Matrix) error) (mT, fT time.Duration, err error) {
	if mT, err = timeIt(func() error { return run(m) }); err != nil {
		return 0, 0, err
	}
	fT, err = timeIt(func() error { return run(f) })
	return mT, fT, err
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func ratio(m, f time.Duration) string {
	if f <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(m)/float64(f))
}
