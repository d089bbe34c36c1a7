// Package plan is the statistics-free cost-based planner: one
// Plan(op, operands, env) seam every training run goes through, choosing
// three execution axes —
//
//	representation: factorized vs materialized (the paper's §3.7/§5.1 rule)
//	residency:      in-memory vs chunked, with the chunk height
//	execution:      serial vs the parallel pipeline, by worker count
//
// Placement is not an axis: where a chunk is mapped (on an exec-capable
// shard or locally) and the multi-shard read interleave are the chunk
// store's own observations, made per pass, so the planner neither decides
// nor records them.
//
// The planner reads only cheap structural facts already on hand — n, d,
// q, nnz, core.StatsFromDims (tuple ratio / feature ratio / redundancy)
// and the memory budget via chunk.AutoRowsChecked. No data is scanned, no
// histograms are built, no statistics infrastructure exists: greedy rules
// over structural facts (the janus-datalog "statistics-unnecessary" line)
// decide in microseconds, and every Decision records which rule fired on
// which facts, so a plan is always explainable and testable against the
// paper's Table 9/10 crossover sweeps.
//
// The planner-driven entry points (LogReg, KMeans, GNMF, Choose) only
// pick: plan, view the chosen representation as a scan operand under the
// plan's Exec, call internal/ml. Building the operand with an explicit
// Exec is the override, and the two are pinned bit-identical.
package plan

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
)

// Op names a planned operation.
type Op string

// Planned operations. The training ops choose all three axes; the
// operator op (crossprod) exists so streaming passes can ask the planner
// for an Exec too.
const (
	OpGLM       Op = "glm"
	OpKMeans    Op = "kmeans"
	OpGNMF      Op = "gnmf"
	OpCrossProd Op = "crossprod"
)

// Operands is the planner's view of the data: structural facts only,
// gathered by the *Operands builders. Zero-valued fields mean "fact not
// available" and keep the rules conservative.
type Operands struct {
	// Rows and Cols are the logical (join output) shape n×d.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// AttrTables is q, the number of joined attribute tables (0 = no join
	// structure, factorization impossible).
	AttrTables int `json:"attr_tables"`
	// NNZ counts stored nonzeros when known (sparse operands).
	NNZ int64 `json:"nnz,omitempty"`
	// Sparse marks operands whose materialized form is CSR.
	Sparse bool `json:"sparse,omitempty"`
	// MNJoin marks an M:N join (Table 10): redundancy, not the tuple
	// ratio, is the deciding fact.
	MNJoin bool `json:"mn_join,omitempty"`
	// Stats carries the §3.7 decision-rule facts derived from dimensions.
	Stats core.Stats `json:"stats"`
	// Chunked marks operands already spilled to a chunk store, with their
	// chunking.
	Chunked   bool `json:"chunked,omitempty"`
	NumChunks int  `json:"num_chunks,omitempty"`
	ChunkRows int  `json:"chunk_rows,omitempty"`
	// HasMaterialized/HasFactorized record which representations the
	// caller actually holds; the planner never selects an absent one.
	HasMaterialized bool `json:"has_materialized"`
	HasFactorized   bool `json:"has_factorized"`
	// BytesMaterialized/BytesFactorized estimate each representation's
	// working set (on-disk footprint for chunked operands); 0 = unknown.
	BytesMaterialized int64 `json:"bytes_materialized,omitempty"`
	BytesFactorized   int64 `json:"bytes_factorized,omitempty"`
}

// Env is the execution environment the planner reads: the facts that are
// properties of the machine rather than of the operands.
type Env struct {
	// MemBudgetBytes bounds decoded-chunk residency (0 = unbounded).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	// Workers bounds chunk parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// EnvFor gathers the environment facts for passes over a chunk store:
// the worker count and the memory budget. The store itself contributes no
// planning fact — placement is observed per pass by the store (see the
// package comment) — and is accepted only to keep the call sites stable.
func EnvFor(_ *chunk.Store, workers int, memBudgetBytes int64) Env {
	return Env{Workers: workers, MemBudgetBytes: memBudgetBytes}
}

func (e Env) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Strategy is the plan: one value per execution axis. Exec() converts the
// worker count into the chunk.Exec a scan operand is built under, so a
// Strategy can always be replayed through the override seam.
type Strategy struct {
	Factorized bool `json:"factorized"`
	Chunked    bool `json:"chunked"`
	// ChunkRows is the chunk height for chunked execution (existing
	// chunking, or AutoRowsChecked from the memory budget).
	ChunkRows int `json:"chunk_rows,omitempty"`
	Workers   int `json:"workers"`
}

// Exec returns the chunk execution configuration the strategy selects.
func (s Strategy) Exec() chunk.Exec { return chunk.Exec{Workers: s.Workers} }

// Decision is an explainable plan: the chosen strategy plus the facts
// consulted and the rule that fired on each axis, so a plan is explainable
// and a test can assert which rule produced it.
type Decision struct {
	// Label tags the decision with the workload it planned (set by
	// callers; empty from Plan itself).
	Label    string   `json:"label,omitempty"`
	Op       Op       `json:"op"`
	Strategy Strategy `json:"strategy"`
	// Rule is the headline representation rule that fired; Rules lists
	// every axis's rule with the facts it read.
	Rule     string   `json:"rule"`
	Rules    []string `json:"rules"`
	Operands Operands `json:"operands"`
	Env      Env      `json:"env"`
	// PlanMicros is the planning time in microseconds — the cost of
	// choosing, which the statistics-free design keeps at microseconds.
	PlanMicros float64 `json:"plan_us"`
}

// String renders the decision on one line: strategy, headline rule, and
// planning time.
func (d Decision) String() string {
	rep := "materialized"
	if d.Strategy.Factorized {
		rep = "factorized"
	}
	res := "in-memory"
	if d.Strategy.Chunked {
		res = fmt.Sprintf("chunked[%d rows]", d.Strategy.ChunkRows)
	}
	return fmt.Sprintf("%s: %s %s workers=%d — %s (%.1fµs)",
		d.Op, rep, res, d.Strategy.Workers, d.Rule, d.PlanMicros)
}

// Plan greedily picks a strategy for op over the given operands in the
// given environment. Each axis is decided by the first rule whose facts
// match, in a fixed order — representation, residency, execution — and
// the fired rules are recorded on the Decision. Planning reads only the
// facts in Operands/Env; it never touches data.
func Plan(op Op, o Operands, env Env) Decision {
	start := time.Now()
	d := Decision{Op: op, Operands: o, Env: env}
	rule := func(axis, format string, args ...any) string {
		r := fmt.Sprintf("%s: %s", axis, fmt.Sprintf(format, args...))
		d.Rules = append(d.Rules, r)
		return r
	}

	// Axis 1 — representation. The §3.7 Advisor rule (tuple ratio ≥ τ and
	// feature ratio ≥ ρ) for PK-FK/star joins; redundancy > 1 for M:N
	// joins, where |T'| rather than nS drives the blow-up (Table 10);
	// conservative materialized fallbacks for degenerate facts.
	adv := core.DefaultAdvisor()
	st := o.Stats
	switch {
	case !o.HasFactorized && !o.HasMaterialized:
		d.Rule = rule("representation", "materialized — no operands described; defaulting conservatively")
	case !o.HasFactorized:
		d.Rule = rule("representation", "materialized — only the materialized operand is available")
	case !o.HasMaterialized:
		d.Strategy.Factorized = true
		d.Rule = rule("representation", "factorized — only the factorized operand is available")
	case o.AttrTables == 0:
		d.Rule = rule("representation", "materialized — no join structure (q=0), nothing to factorize")
	case o.MNJoin:
		if st.Redundancy > 1 {
			d.Strategy.Factorized = true
			d.Rule = rule("representation", "factorized — M:N join redundancy %.2f > 1 (|T'|=%d vs base tables)", st.Redundancy, o.Rows)
		} else {
			d.Rule = rule("representation", "materialized — M:N join redundancy %.2f ≤ 1, factorization saves nothing", st.Redundancy)
		}
	case st.NR <= 0:
		d.Rule = rule("representation", "materialized — degenerate stats (nR=%d), conservative fallback", st.NR)
	case adv.ShouldFactorize(st):
		d.Strategy.Factorized = true
		d.Rule = rule("representation", "factorized — advisor: tuple ratio %.1f ≥ τ=%g and feature ratio %.2f ≥ ρ=%g", st.TupleRatio, adv.Tau, st.FeatureRatio, adv.Rho)
	default:
		d.Rule = rule("representation", "materialized — advisor: tuple ratio %.1f vs τ=%g, feature ratio %.2f vs ρ=%g", st.TupleRatio, adv.Tau, st.FeatureRatio, adv.Rho)
	}

	// Axis 2 — residency. Already-spilled operands stay chunked; otherwise
	// the chosen representation's working set is compared to the memory
	// budget and the chunk height derived via AutoRowsChecked.
	w := env.workers()
	workingSet := o.BytesMaterialized
	if d.Strategy.Factorized && o.BytesFactorized > 0 {
		workingSet = o.BytesFactorized
	}
	if workingSet == 0 {
		workingSet = int64(o.Rows) * int64(o.Cols) * 8
	}
	switch {
	case o.Chunked:
		d.Strategy.Chunked = true
		d.Strategy.ChunkRows = o.ChunkRows
		rule("residency", "chunked — operands already spilled (%d chunks × %d rows)", o.NumChunks, o.ChunkRows)
	case env.MemBudgetBytes > 0 && workingSet > env.MemBudgetBytes:
		d.Strategy.Chunked = true
		rows, err := chunk.AutoRowsChecked(env.MemBudgetBytes, o.Cols, w)
		d.Strategy.ChunkRows = rows
		if err != nil {
			rule("residency", "chunked — working set %d B exceeds budget %d B; budget cannot hold even 1-row chunks, clamped to %d rows", workingSet, env.MemBudgetBytes, rows)
		} else {
			rule("residency", "chunked — working set %d B exceeds budget %d B; AutoRows height %d", workingSet, env.MemBudgetBytes, rows)
		}
	default:
		rule("residency", "in-memory — working set %d B fits the budget", workingSet)
	}

	// Axis 3 — execution. Parallel by default; the serial reference loop
	// when there is no parallelism to harvest.
	nChunks := o.NumChunks
	if d.Strategy.Chunked && nChunks == 0 && d.Strategy.ChunkRows > 0 {
		nChunks = (o.Rows + d.Strategy.ChunkRows - 1) / d.Strategy.ChunkRows
	}
	if d.Strategy.Chunked && (nChunks <= 1 || w == 1) {
		d.Strategy.Workers = 1
		rule("execution", "serial — %d chunk(s), %d worker(s): nothing to overlap", nChunks, w)
	} else {
		d.Strategy.Workers = w
		if d.Strategy.Chunked {
			rule("execution", "parallel — %d workers over %d chunks", w, nChunks)
		} else {
			rule("execution", "parallel — %d workers for the in-memory kernels", w)
		}
	}

	d.PlanMicros = float64(time.Since(start).Nanoseconds()) / 1e3
	return d
}
