package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/chunk"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
)

// chunkpar measures the parallel out-of-core engine against the strictly
// serial chunked execution on the §5.2.4 workload: the same GLM iterations
// Tables 9/10 time, run once with Serial (read one chunk, compute, read
// the next) and once with the prefetching worker pipeline. This is the
// experiment `morpheus-bench -chunked` runs; on a multi-core box the
// parallel column should be ≥2× faster, and the weights are asserted
// bit-identical between the two (ordered commit).
func chunkpar(cfg Config) (Result, error) {
	par := chunkExec(cfg)
	res := Result{
		ID:     "chunkpar",
		Title:  "Out-of-core engine: serial vs parallel chunked execution (GLM iterations + operators)",
		Header: []string{"workload", "serial(s)", "parallel(s)", "speedup"},
		Notes: fmt.Sprintf("workers=%d prefetch=%d pushdown=%v codec=%q zonemap=%v GOMAXPROCS=%d; identical results asserted (ordered commit); store emptied on completion",
			par.Workers, par.Prefetch, par.Pushdown, cfg.Codec, cfg.ZoneMap, runtime.GOMAXPROCS(0)),
	}
	st, cleanup, err := chunkStore(cfg, "chunkpar")
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	nR := cfg.scaled(1000)
	nS := 20 * nR
	dS := 60
	const iters = 2
	dR := 2 * dS
	chunkRows := autoChunkRows(cfg, dS+dR)
	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: dS, NR: nR, DR: dR, Seed: cfg.Seed})
	if err != nil {
		return Result{}, err
	}
	y := datagen.Labels(nm, 0, true, cfg.Seed)
	tM, err := chunk.FromDense(st, nm.Dense(), chunkRows)
	if err != nil {
		return Result{}, err
	}
	sM, err := chunk.FromDense(st, nm.S().Dense(), chunkRows)
	if err != nil {
		return Result{}, err
	}
	fkv, err := chunk.BuildIntVector(st, nm.Ks()[0].Assignments(), chunkRows)
	if err != nil {
		return Result{}, err
	}
	nt, err := chunk.NewNormalizedTable(sM, fkv, nm.Rs()[0].Dense())
	if err != nil {
		return Result{}, err
	}
	defer tM.Free()
	defer nt.Free()

	row := func(name string, run func(chunk.Exec) (*la.Dense, error)) error {
		var wSer, wPar *la.Dense
		sT := timeIt(func() {
			var err error
			wSer, err = run(chunk.Serial)
			if err != nil {
				panic(err)
			}
		})
		pT := timeIt(func() {
			var err error
			wPar, err = run(par)
			if err != nil {
				panic(err)
			}
		})
		if wSer != nil && wPar != nil && la.MaxAbsDiff(wSer, wPar) != 0 {
			return fmt.Errorf("chunkpar: %s serial and parallel results diverged", name)
		}
		res.Rows = append(res.Rows, []string{name, secs(sT), secs(pT), ratio(sT, pT)})
		return nil
	}

	opt := ml.Options{Iters: iters, StepSize: 1e-6}
	if err := row(fmt.Sprintf("glm-materialized (%d iters)", iters), func(ex chunk.Exec) (*la.Dense, error) {
		return ml.LogRegScan(chunk.MatOperand(ex, tM), y, nil, opt)
	}); err != nil {
		return Result{}, err
	}
	if err := row(fmt.Sprintf("glm-factorized (%d iters)", iters), func(ex chunk.Exec) (*la.Dense, error) {
		return ml.LogRegScan(nt.Operand(ex), y, nil, opt)
	}); err != nil {
		return Result{}, err
	}
	if err := row("crossprod(T)", tM.CrossProdExec); err != nil {
		return Result{}, err
	}
	if err := row("colsums(T)", tM.ColSumsExec); err != nil {
		return Result{}, err
	}
	xc := la.Ones(tM.Cols(), 4)
	if err := row("T·x (chunked out)", func(ex chunk.Exec) (*la.Dense, error) {
		p, err := tM.MulExec(ex, xc)
		if err != nil {
			return nil, err
		}
		defer p.Free()
		return p.ColSumsExec(ex)
	}); err != nil {
		return Result{}, err
	}

	// Sparse zero-band pass: a CSR whose odd chunk-row bands hold no stored
	// entries, the Table-6-style sparsity pattern that rewards chunk
	// skipping. With a zone-map store (-zonemap) the reductions skip the
	// empty bands' chunks outright — ChunksSkipped below counts them.
	zRows := 8 * chunkRows
	zCols := 32
	indptr := make([]int, zRows+1)
	var zIdx []int32
	var zVals []float64
	for i := 0; i < zRows; i++ {
		if (i/chunkRows)%2 == 0 {
			zIdx = append(zIdx, int32(i%zCols))
			zVals = append(zVals, float64(1+i%7))
		}
		indptr[i+1] = len(zIdx)
	}
	zM, err := chunk.FromCSR(st, la.NewCSR(zRows, zCols, indptr, zIdx, zVals), chunkRows)
	if err != nil {
		return Result{}, err
	}
	defer zM.Free()
	if err := row("crossprod(sparse zero-band)", zM.CrossProdExec); err != nil {
		return Result{}, err
	}
	if err := row("colsums(sparse zero-band)", zM.ColSumsExec); err != nil {
		return Result{}, err
	}

	io := st.IOStats()
	res.BytesRead = io.BytesRead
	res.BytesOnWire = io.BytesOnWire
	res.ChunksSkipped = io.ChunksSkipped
	res.BytesSkipped = io.BytesSkipped
	res.Codec = cfg.Codec
	return res, nil
}

func init() {
	register("chunkpar", chunkpar)
}
