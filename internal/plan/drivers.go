package plan

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// MaterializedOperands describes a chunked materialized table with no
// join structure on hand: the planner can only pick the residency,
// execution, and placement axes.
func MaterializedOperands(t chunk.Mat) Operands {
	if t == nil {
		return Operands{} // nothing held: the plan falls back conservatively
	}
	o := Operands{
		Rows:              t.Rows(),
		Cols:              t.Cols(),
		Chunked:           true,
		NumChunks:         t.NumChunks(),
		ChunkRows:         t.ChunkRows(),
		HasMaterialized:   true,
		BytesMaterialized: t.BytesOnDisk(),
	}
	if sp, ok := t.(*chunk.SparseMatrix); ok {
		o.Sparse = true
		o.NNZ = sp.NNZ()
	}
	return o
}

// StarOperands describes a PK-FK/star join: the factorized normalized
// table (required) and, when the caller also holds it, the materialized
// join output. The §3.7 stats come from the table dimensions alone.
func StarOperands(tM chunk.Mat, nt *chunk.NormalizedTable) Operands {
	var attrBytes int64
	rs := make([]core.TableDim, len(nt.Attrs))
	for i, a := range nt.Attrs {
		rs[i] = core.TableDim{Rows: a.R.Rows(), Cols: a.R.Cols()}
		attrBytes += int64(a.R.Rows()) * int64(a.R.Cols()) * 8
	}
	s := core.TableDim{Rows: nt.S.Rows(), Cols: nt.S.Cols()}
	o := Operands{
		Rows:       nt.Rows(),
		Cols:       nt.Cols(),
		AttrTables: nt.NumTables(),
		Stats:      core.StatsFromDims(nt.Rows(), nt.Cols(), s, rs),
		Chunked:    true,
		NumChunks:  nt.S.NumChunks(),
		ChunkRows:  nt.S.ChunkRows(),
		// S chunks + in-memory attribute tables + the chunked key columns
		// (one stored float64 per base row per table).
		HasFactorized:   true,
		BytesFactorized: nt.S.BytesOnDisk() + attrBytes + int64(nt.NumTables())*int64(nt.S.Rows())*8,
	}
	if tM != nil {
		o.HasMaterialized = true
		o.BytesMaterialized = tM.BytesOnDisk()
	}
	return o
}

// MNOperands describes an M:N join (Table 10): the factorized MNTable
// (required) and, when the caller also holds it, the materialized join
// output. Redundancy from StatsFromDims(|T'|, dS+dR, dims(S), [dims(R)])
// is exactly the paper's storage ratio, so the representation axis
// reduces to Redundancy > 1.
func MNOperands(tM chunk.Mat, mn *chunk.MNTable) Operands {
	nOut := mn.OutputRows()
	dS, dR := mn.S.Cols(), mn.R.Cols()
	s := core.TableDim{Rows: mn.S.Rows(), Cols: dS}
	r := core.TableDim{Rows: mn.R.Rows(), Cols: dR}
	chunkRows := mn.S.ChunkRows()
	o := Operands{
		Rows:       nOut,
		Cols:       dS + dR,
		AttrTables: 1,
		MNJoin:     true,
		Stats:      core.StatsFromDims(nOut, dS+dR, s, []core.TableDim{r}),
		Chunked:    true,
		NumChunks:  (nOut + chunkRows - 1) / chunkRows,
		ChunkRows:  chunkRows,
		// Base tables plus the two chunked selector columns.
		HasFactorized:   true,
		BytesFactorized: mn.S.BytesOnDisk() + mn.R.BytesOnDisk() + 2*int64(nOut)*8,
	}
	if tM != nil {
		o.HasMaterialized = true
		o.BytesMaterialized = tM.BytesOnDisk()
	}
	return o
}

// InMemoryOperands describes an in-memory normalized matrix: both
// representations are reachable (the materialized one via nm.Dense or
// nm.Sparse), and the stats come from ComputeStats.
func InMemoryOperands(nm *core.NormalizedMatrix) Operands {
	st := nm.ComputeStats()
	var attrBytes int64
	for _, r := range nm.Rs() {
		attrBytes += int64(r.Rows()) * int64(r.Cols()) * 8
	}
	var sBytes int64
	if s := nm.S(); s != nil {
		sBytes = int64(s.Rows()) * int64(s.Cols()) * 8
	}
	return Operands{
		Rows:              nm.Rows(),
		Cols:              nm.Cols(),
		AttrTables:        nm.NumTables(),
		NNZ:               int64(nm.NNZ()),
		Stats:             st,
		HasMaterialized:   true,
		HasFactorized:     true,
		BytesMaterialized: int64(nm.Rows()) * int64(nm.Cols()) * 8,
		BytesFactorized:   sBytes + attrBytes + int64(nm.NumTables())*int64(nm.Rows())*8,
	}
}

// LogRegResult is a planned GLM fit.
type LogRegResult struct {
	W *la.Dense
}

// LogReg is the planner-driven GLM entry point for PK-FK/star tables: it
// plans OpGLM over the representations the caller holds and runs
// ml.LogRegScan over the chosen one. Either of tM/nt may be nil; the
// planner never selects an absent representation.
func LogReg(env Env, tM chunk.Mat, nt *chunk.NormalizedTable, y *la.Dense, iters int, alpha float64) (*LogRegResult, Decision, error) {
	if nt == nil {
		return logReg(env, MaterializedOperands(tM), tM, nil, y, iters, alpha)
	}
	return logReg(env, StarOperands(tM, nt), tM, nt.Operand, y, iters, alpha)
}

// LogRegMN is LogReg for M:N joins: the factorized operand is the MNTable.
func LogRegMN(env Env, tM chunk.Mat, mn *chunk.MNTable, y *la.Dense, iters int, alpha float64) (*LogRegResult, Decision, error) {
	if mn == nil {
		return logReg(env, MaterializedOperands(tM), tM, nil, y, iters, alpha)
	}
	return logReg(env, MNOperands(tM, mn), tM, mn.Operand, y, iters, alpha)
}

// logReg plans OpGLM over o, views the representation the plan names as a
// scan operand under the plan's Exec, and hands it to ml.
func logReg(env Env, o Operands, tM chunk.Mat, factorized func(chunk.Exec) *chunk.Operand, y *la.Dense, iters int, alpha float64) (*LogRegResult, Decision, error) {
	d := Plan(OpGLM, o, env)
	var t la.Operand
	switch {
	case d.Strategy.Factorized:
		t = factorized(d.Strategy.Exec())
	case tM != nil:
		t = chunk.MatOperand(d.Strategy.Exec(), tM)
	default:
		return nil, d, fmt.Errorf("plan: no operands for %s (materialized and factorized both nil)", OpGLM)
	}
	w, err := ml.LogRegScan(t, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		return nil, d, err
	}
	return &LogRegResult{W: w}, d, nil
}

// KMeans is the planner-driven k-means entry point: ml.KMeansScan over
// the materialized chunked table. The plan decides execution and
// placement — including pushdown, since the assignment step is a
// registered op. The caller frees the returned assignment column.
func KMeans(env Env, t chunk.Mat, k, iters int, seed int64) (*ml.KMeansFit, Decision, error) {
	d := Plan(OpKMeans, MaterializedOperands(t), env)
	res, err := ml.KMeansScan(chunk.MatOperand(d.Strategy.Exec(), t), k, ml.Options{Iters: iters, Seed: seed})
	return res, d, err
}

// GNMF is the planner-driven GNMF entry point: ml.GNMFScan over the
// materialized chunked table; the plan decides execution and placement
// (never pushdown: the steps are closures, not registered ops). The
// caller frees the returned W.
func GNMF(env Env, t chunk.Mat, rank, iters int, seed int64) (*ml.GNMFFit, Decision, error) {
	d := Plan(OpGNMF, MaterializedOperands(t), env)
	res, err := ml.GNMFScan(chunk.MatOperand(d.Strategy.Exec(), t), rank, ml.Options{Iters: iters, Seed: seed})
	return res, d, err
}

// Choose is the planner seam for the in-memory layer: it plans op over a
// NormalizedMatrix and returns the operand the training loop should run
// on — the normalized matrix itself when the plan is factorized, else its
// materialized form (CSR when density < 25%, dense otherwise). The
// caller's ml.* loop is unchanged either way, since all three satisfy
// la.Matrix.
func Choose(op Op, env Env, nm *core.NormalizedMatrix) (la.Matrix, Decision) {
	d := Plan(op, InMemoryOperands(nm), env)
	if d.Strategy.Factorized {
		return nm, d
	}
	cells := float64(nm.Rows()) * float64(nm.Cols())
	if cells > 0 && float64(nm.NNZ())/cells < 0.25 {
		return nm.Sparse(), d
	}
	return nm.Dense(), d
}
