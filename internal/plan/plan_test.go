package plan

import (
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
)

// starOps builds the operands of a PK-FK star with both representations
// on hand: nS base rows joining nR attribute rows, dS+dR columns.
func starOps(nS, nR, dS, dR int) Operands {
	st := core.StatsFromDims(nS, dS+dR,
		core.TableDim{Rows: nS, Cols: dS},
		[]core.TableDim{{Rows: nR, Cols: dR}})
	return Operands{
		Rows: nS, Cols: dS + dR, AttrTables: 1, Stats: st,
		HasMaterialized: true, HasFactorized: true,
	}
}

// mnOps builds the operands of an M:N join with both representations on
// hand: |T'| output tuples over base tables nS×dS and nR×dR.
func mnOps(nOut, nS, nR, dS, dR int) Operands {
	st := core.StatsFromDims(nOut, dS+dR,
		core.TableDim{Rows: nS, Cols: dS},
		[]core.TableDim{{Rows: nR, Cols: dR}})
	return Operands{
		Rows: nOut, Cols: dS + dR, AttrTables: 1, MNJoin: true, Stats: st,
		HasMaterialized: true, HasFactorized: true,
	}
}

// TestTable9Crossover pins the representation axis against the paper's
// Table 9 PK-FK sweep: at tuple ratio 20, materialize at feature ratio
// 0.5 and factorize at 1, 2, and 4; at tuple ratio 1 always materialize.
func TestTable9Crossover(t *testing.T) {
	const nS, nR, dS = 20000, 1000, 60
	cases := []struct {
		name       string
		dR         int
		factorized bool
	}{
		{"FR=0.5", 30, false},
		{"FR=1", 60, true},
		{"FR=2", 120, true},
		{"FR=4", 240, true},
	}
	for _, tc := range cases {
		d := Plan(OpGLM, starOps(nS, nR, dS, tc.dR), Env{})
		if d.Strategy.Factorized != tc.factorized {
			t.Errorf("%s: factorized = %v, want %v (%s)", tc.name, d.Strategy.Factorized, tc.factorized, d.Rule)
		}
	}
	// Tuple ratio 1 (nR == nS): below τ, materialize at any feature ratio.
	if d := Plan(OpGLM, starOps(nS, nS, dS, 240), Env{}); d.Strategy.Factorized {
		t.Errorf("TR=1: factorized despite tuple ratio below τ (%s)", d.Rule)
	}
}

// TestTable10MNCrossover pins the M:N axis: factorize exactly when the
// join redundancy exceeds 1, regardless of the tuple-ratio thresholds.
func TestTable10MNCrossover(t *testing.T) {
	// |T'|·(dS+dR) = 200·80 vs base 100·40+100·40: redundancy 2.
	o := mnOps(200, 100, 100, 40, 40)
	if got := o.Stats.Redundancy; got != 2 {
		t.Fatalf("redundancy = %g, want 2", got)
	}
	if d := Plan(OpGLM, o, Env{}); !d.Strategy.Factorized {
		t.Errorf("redundancy 2: not factorized (%s)", d.Rule)
	}
	// |T'| = 100: redundancy 1, factorization saves nothing.
	if d := Plan(OpGLM, mnOps(100, 100, 100, 40, 40), Env{}); d.Strategy.Factorized {
		t.Errorf("redundancy 1: factorized (%s)", d.Rule)
	}
}

// TestAvailabilityForcing: the planner never selects a representation the
// caller does not hold, whatever the stats say.
func TestAvailabilityForcing(t *testing.T) {
	o := starOps(20000, 1000, 60, 240) // stats say factorize
	o.HasFactorized = false
	if d := Plan(OpGLM, o, Env{}); d.Strategy.Factorized {
		t.Errorf("factorized without a factorized operand (%s)", d.Rule)
	}
	o = starOps(20000, 20000, 60, 30) // stats say materialize
	o.HasMaterialized = false
	if d := Plan(OpGLM, o, Env{}); !d.Strategy.Factorized {
		t.Errorf("materialized without a materialized operand (%s)", d.Rule)
	}
}

// TestDegenerateStatsConservative: empty attribute tables and absent join
// structure fall back to materialized.
func TestDegenerateStatsConservative(t *testing.T) {
	o := starOps(1000, 0, 10, 10) // nR = 0: TupleRatio 0, NR 0
	if d := Plan(OpGLM, o, Env{}); d.Strategy.Factorized {
		t.Errorf("nR=0: factorized (%s)", d.Rule)
	}
	noJoin := Operands{Rows: 1000, Cols: 20, HasMaterialized: true, HasFactorized: true}
	if d := Plan(OpGLM, noJoin, Env{}); d.Strategy.Factorized {
		t.Errorf("q=0: factorized (%s)", d.Rule)
	}
}

// TestResidencyAxis: in-memory operands spill exactly when the working
// set exceeds the budget, with the chunk height AutoRowsChecked derives
// from the same facts; already-chunked operands keep their chunking.
func TestResidencyAxis(t *testing.T) {
	env := Env{MemBudgetBytes: 1 << 20, Workers: 2}
	o := Operands{Rows: 100000, Cols: 64, HasMaterialized: true} // 51.2 MB
	d := Plan(OpGLM, o, env)
	if !d.Strategy.Chunked {
		t.Fatalf("51 MB working set under 1 MiB budget not chunked (%v)", d.Rules)
	}
	want, err := chunk.AutoRowsChecked(1<<20, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy.ChunkRows != want {
		t.Errorf("chunk height %d, want AutoRows %d", d.Strategy.ChunkRows, want)
	}

	small := Operands{Rows: 100, Cols: 4, HasMaterialized: true}
	if d := Plan(OpGLM, small, env); d.Strategy.Chunked {
		t.Errorf("3 KB working set chunked under 1 MiB budget (%v)", d.Rules)
	}

	spilled := Operands{Rows: 100, Cols: 4, HasMaterialized: true, Chunked: true, NumChunks: 10, ChunkRows: 10}
	if d := Plan(OpGLM, spilled, env); !d.Strategy.Chunked || d.Strategy.ChunkRows != 10 {
		t.Errorf("already-spilled operand re-planned to %+v", d.Strategy)
	}
}

// TestExecutionAxis: serial when there is nothing to overlap, parallel
// otherwise.
func TestExecutionAxis(t *testing.T) {
	one := Operands{Rows: 10, Cols: 4, HasMaterialized: true, Chunked: true, NumChunks: 1, ChunkRows: 16}
	d := Plan(OpGLM, one, Env{Workers: 8})
	if d.Strategy.Exec() != chunk.Serial {
		t.Errorf("1 chunk: %+v, want serial", d.Strategy.Exec())
	}
	many := Operands{Rows: 160, Cols: 4, HasMaterialized: true, Chunked: true, NumChunks: 10, ChunkRows: 16}
	if d := Plan(OpGLM, many, Env{Workers: 1}); d.Strategy.Workers != 1 {
		t.Errorf("workers=1 env planned %d workers", d.Strategy.Workers)
	}
	d = Plan(OpGLM, many, Env{Workers: 4})
	if d.Strategy.Exec() != (chunk.Exec{Workers: 4}) {
		t.Errorf("10 chunks × 4 workers: got %+v", d.Strategy.Exec())
	}
}

// TestDecisionExplainable: every axis records the rule it fired, and the
// one-line rendering carries the headline rule.
func TestDecisionExplainable(t *testing.T) {
	o := starOps(20000, 1000, 60, 120)
	o.Chunked, o.NumChunks, o.ChunkRows = true, 20, 1000
	d := Plan(OpGLM, o, Env{Workers: 4})
	if len(d.Rules) < 3 {
		t.Fatalf("only %d rules recorded: %v", len(d.Rules), d.Rules)
	}
	if d.Rule == "" || !strings.Contains(d.String(), "factorized") {
		t.Errorf("decision not explainable: %q / %q", d.Rule, d.String())
	}
	for _, axis := range []string{"representation:", "residency:", "execution:"} {
		found := false
		for _, r := range d.Rules {
			if strings.HasPrefix(r, axis) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s rule in %v", axis, d.Rules)
		}
	}
}

// TestEveryDecisionIsExplained: whatever the operands and environment —
// the Table 9 and Table 10 sweeps on both sides of their crossovers,
// in-memory and chunked, absent representations, degenerate stats — a
// Decision names the headline rule and records one rule per axis. (The
// assertion the retired `morpheus-bench -plan` smoke carried.)
func TestEveryDecisionIsExplained(t *testing.T) {
	var sweep []Operands
	for _, dR := range []int{30, 60, 120, 240} {
		sweep = append(sweep, starOps(20000, 1000, 60, dR))
	}
	for _, nOut := range []int{30, 240, 4000} {
		sweep = append(sweep, mnOps(nOut, 40, 40, 4, 4))
	}
	sweep = append(sweep, Operands{}, Operands{Rows: 10, Cols: 2, HasMaterialized: true}, starOps(100, 0, 3, 3))
	envs := []Env{{}, {Workers: 1}, {Workers: 4}, {MemBudgetBytes: 1 << 10}}
	for _, op := range []Op{OpGLM, OpKMeans, OpGNMF, OpCrossProd} {
		for _, o := range sweep {
			for _, chunked := range []bool{false, true} {
				if chunked {
					o.Chunked, o.NumChunks, o.ChunkRows = true, 8, (o.Rows+7)/8
				}
				for _, env := range envs {
					d := Plan(op, o, env)
					if d.Rule == "" || len(d.Rules) < 3 || d.Op != op {
						t.Fatalf("unexplained decision for %s over %+v in %+v: %+v", op, o, env, d)
					}
				}
			}
		}
	}
}
