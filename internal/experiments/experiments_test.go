package experiments

import (
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/la"
)

func TestRegistryComplete(t *testing.T) {
	// The registry is exactly the paper's evaluation: every table/figure is
	// registered, and nothing else is — system measurements belong to
	// bench/, so an extra ID fails here.
	want := []string{
		"cpablate", "fig10", "fig11", "fig12", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "mnml", "rule", "table10", "table12",
		"table7", "table8", "table9",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered experiments = %v, want exactly %v", got, want)
	}
}

func TestRunUnknown(t *testing.T) {
	for _, id := range []string{"nope", "chunkpar", "serve-slo"} {
		if _, err := Run(id, Config{Scale: 1, Seed: 1}); err == nil {
			t.Fatalf("unknown experiment %q accepted", id)
		}
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Run("table7", Config{Scale: scale, Seed: 1}); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
}

// TestRealDataShrinkClamps: a Scale so small that realDataScale/Scale
// overflows int still shrinks the datasets (to one row) instead of
// wrapping round to the full Table 6 sizes.
func TestRealDataShrinkClamps(t *testing.T) {
	for scale, want := range map[float64]int{1e-18: math.MaxInt32, 5e-324: math.MaxInt32, 0.02: 5000, 100: 1, 1e300: 1} {
		if got := realDataShrink(Config{Scale: scale}); got != want {
			t.Errorf("Scale %g shrinks %dx, want %dx", scale, got, want)
		}
	}
	for _, id := range []string{"table7", "table12"} {
		if _, err := Run(id, Config{Scale: 1e-18, Seed: 1}); err != nil {
			t.Errorf("%s at Scale 1e-18: %v", id, err)
		}
	}
}

// TestTimeItStopsOnError: a failing measurement is returned, not repeated.
func TestTimeItStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, failAt := range []int{1, 3} { // first run, then a repetition
		calls := 0
		_, err := timeIt(func() error {
			if calls++; calls == failAt {
				return boom
			}
			return nil
		})
		if err != boom || calls != failAt {
			t.Fatalf("failAt %d: err = %v after %d calls, want boom after %d", failAt, err, calls, failAt)
		}
	}
}

// tinyCfg shrinks workloads so experiment plumbing is testable in CI time.
func tinyCfg() Config { return Config{Scale: 0.02, Seed: 1} }

func TestTable8Runs(t *testing.T) {
	res, err := Run("table8", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("table8 rows = %d, want 4 (FR 1..4)", len(res.Rows))
	}
	if len(res.Header) != len(res.Rows[0]) {
		t.Fatal("header/row width mismatch")
	}
	out := res.Format()
	if !strings.Contains(out, "Orion") || !strings.Contains(out, "table8") {
		t.Fatal("Format output missing expected content")
	}
}

func TestTable9Runs(t *testing.T) {
	res, err := Run("table9", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("table9 rows = %d, want 4 FR points + one-hot CSR + star", len(res.Rows))
	}
}

// TestTable9HonorsShardDirs: every listed shard directory is created, holds
// chunks during the run, and is empty again after it.
func TestTable9HonorsShardDirs(t *testing.T) {
	cfg := tinyCfg()
	root := t.TempDir()
	cfg.ShardDirs = []string{root + "/a", root + "/b", root + "/c"}
	st, cleanup, err := chunkStore(cfg, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.FromDense(st, la.Ones(64, 4), 4); err != nil {
		t.Fatal(err)
	}
	for _, ss := range st.ShardStats() {
		if ss.Chunks == 0 {
			t.Fatalf("a listed shard directory holds no chunks: %+v", st.ShardStats())
		}
	}
	cleanup()
	if _, err := Run("table9", cfg); err != nil {
		t.Fatal(err)
	}
	for _, d := range cfg.ShardDirs {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatalf("shard directory not created: %v", err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s holds %d files after the run, want none", d, len(entries))
		}
	}
}

func TestTable10Runs(t *testing.T) {
	res, err := Run("table10", Config{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("table10 rows = %d", len(res.Rows))
	}
}

func TestRuleRuns(t *testing.T) {
	res, err := Run("rule", Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(pkfkTRValues)*len(pkfkFRValues) {
		t.Fatalf("rule rows = %d", len(res.Rows))
	}
}

func TestCPAblateRuns(t *testing.T) {
	res, err := Run("cpablate", Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("cpablate rows = %d", len(res.Rows))
	}
}

func TestFormatAlignment(t *testing.T) {
	r := Result{ID: "x", Title: "t", Header: []string{"a", "bbbb"}, Rows: [][]string{{"lllllll", "1"}}}
	out := r.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "lllllll") {
		t.Fatal("row not rendered")
	}
}

// TestAllFigureSweepsRun executes every figure sweep at miniature scale so
// the sweep plumbing (axes, dataset specs, operator dispatch) is covered
// by `go test`; the real measurements come from cmd/morpheus-bench.
func TestAllFigureSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow in -short mode")
	}
	cfg := Config{Scale: 0.01, Seed: 1}
	for _, id := range []string{"fig3", "fig4", "fig6", "fig8", "fig9", "fig10", "fig11", "mnml", "table7", "table12", "fig5"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Header) {
				t.Fatalf("%s: row width %d != header %d", id, len(row), len(res.Header))
			}
		}
	}
}
