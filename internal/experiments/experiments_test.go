package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table/figure of the paper's evaluation must be registered.
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "table7", "table8", "table9", "table10",
		"table12", "cpablate", "rule", "mnml",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("experiment %q not registered", w)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", DefaultConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
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

func TestChunkstarRuns(t *testing.T) {
	res, err := Run("chunkstar", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("chunkstar rows = %d, want star GLM + crossprod + kmeans + sparse GLM", len(res.Rows))
	}
}

func TestChunkshardRuns(t *testing.T) {
	res, err := Run("chunkshard", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("chunkshard rows = %d, want spill + T·x + glm + gnmf", len(res.Rows))
	}
	if !strings.Contains(res.Notes, "shards=2") {
		t.Fatalf("chunkshard notes missing shard count: %q", res.Notes)
	}
}

func TestChunkshardHonorsShardDirs(t *testing.T) {
	cfg := tinyCfg()
	root := t.TempDir()
	cfg.ShardDirs = []string{root + "/a", root + "/b", root + "/c"}
	res, err := Run("chunkshard", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "shards=3") {
		t.Fatalf("chunkshard ignored ShardDirs: %q", res.Notes)
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
