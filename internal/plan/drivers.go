package plan

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// MaterializedOperands describes a chunked materialized table with no
// join structure on hand: the planner can only pick the residency and
// execution axes.
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

// StarOperands describes a chunked normalized table: the factorized
// table (required) and, when the caller also holds it, the materialized
// join output. The §3.7 stats come from the table dimensions alone. A
// table without S is an M:N join (Table 10) whose entity table is its
// first arm: Redundancy from StatsFromDims(|T'|, d, dims(S), dims(R…)) is
// then exactly the paper's storage ratio, so the representation axis
// reduces to Redundancy > 1.
func StarOperands(tM chunk.Mat, nt *chunk.NormalizedTable) Operands {
	// The chunked key columns: one stored float64 per output row per arm.
	bytes := int64(nt.NumTables()) * int64(nt.Rows()) * 8
	var s core.TableDim
	if nt.S != nil {
		s = core.TableDim{Rows: nt.S.Rows(), Cols: nt.S.Cols()}
		bytes += nt.S.BytesOnDisk()
	}
	rs := make([]core.TableDim, len(nt.Attrs))
	for i, a := range nt.Attrs {
		rows, cols := a.Dims()
		rs[i] = core.TableDim{Rows: rows, Cols: cols}
		if a.Disk != nil {
			bytes += a.Disk.BytesOnDisk()
		} else {
			bytes += int64(rows) * int64(cols) * 8
		}
	}
	if nt.S == nil {
		s, rs = rs[0], rs[1:]
	}
	o := Operands{
		Rows:            nt.Rows(),
		Cols:            nt.Cols(),
		AttrTables:      len(rs),
		MNJoin:          nt.S == nil,
		Stats:           core.StatsFromDims(nt.Rows(), nt.Cols(), s, rs),
		Chunked:         true,
		NumChunks:       (nt.Rows() + nt.ChunkRows() - 1) / nt.ChunkRows(),
		ChunkRows:       nt.ChunkRows(),
		HasFactorized:   true,
		BytesFactorized: bytes,
	}
	if tM != nil {
		o.HasMaterialized = true
		o.BytesMaterialized = tM.BytesOnDisk()
	}
	return o
}

// InMemoryOperands describes an in-memory normalized matrix: both
// representations are reachable (the materialized one via nm.Dense or
// nm.Sparse), and the stats come from ComputeStats. It reads shapes only,
// never the data: NNZ stays unset.
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

// LogReg is the planner-driven GLM entry point: it plans OpGLM over the
// representations the caller holds, views the one the plan names as a
// scan operand under the plan's Exec, and hands it to ml.LogRegScan.
// Either of tM/nt may be nil; the planner never selects an absent
// representation.
func LogReg(env Env, tM chunk.Mat, nt *chunk.NormalizedTable, y *la.Dense, iters int, alpha float64) (*LogRegResult, Decision, error) {
	o := MaterializedOperands(tM)
	if nt != nil {
		o = StarOperands(tM, nt)
	}
	d := Plan(OpGLM, o, env)
	var t la.Operand
	switch {
	case d.Strategy.Factorized:
		t = nt.Operand(d.Strategy.Exec())
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
// the materialized chunked table. The plan decides execution; the
// assignment step is a registered op, so the store maps it on every
// exec-capable shard. The caller frees the returned assignment column.
func KMeans(env Env, t chunk.Mat, k, iters int, seed int64) (*ml.KMeansFit, Decision, error) {
	d := Plan(OpKMeans, MaterializedOperands(t), env)
	res, err := ml.KMeansScan(chunk.MatOperand(d.Strategy.Exec(), t), k, ml.Options{Iters: iters, Seed: seed})
	return res, d, err
}

// GNMF is the planner-driven GNMF entry point: ml.GNMFScan over the
// materialized chunked table; the plan decides execution (its steps are
// closures, not registered ops, so they always run on the driver). The
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
