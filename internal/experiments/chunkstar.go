package experiments

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
)

// chunkstar exercises the unified chunked-operand interface end to end:
// a two-attribute-table star schema and a one-hot sparse table both train
// logistic regression fully out-of-core through chunk.Mat (materialized vs
// factorized, weights pinned equal), the star streams its factorized
// cross-product (results pinned against the materialized chunked pass),
// and the streamed k-means driver runs its per-iteration distance/argmin
// passes over the chunked table. This is part of the `morpheus-bench
// -chunked` suite.
func chunkstar(cfg Config) (Result, error) {
	ex := chunkExec(cfg)
	res := Result{
		ID:     "chunkstar",
		Title:  "Out-of-core star-schema + sparse training and streamed k-means (chunk.Mat interface)",
		Header: []string{"workload", "M(s)", "F(s)", "speedup"},
		Notes: fmt.Sprintf("workers=%d prefetch=%d; chunk heights via AutoRows(%d MB); kmeans row compares serial (M) vs parallel (F) execution",
			ex.Workers, ex.Prefetch, memBudgetMB(cfg)),
	}
	st, cleanup, err := chunkStore(cfg, "chunkstar")
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	nR := cfg.scaled(800)
	nS := 20 * nR
	dS := 40
	const iters = 2
	const alpha = 1e-6

	// Star schema: S joined PK-FK with two attribute tables.
	{
		dR := dS
		nm, err := datagen.Star(datagen.StarSpec{NS: nS, DS: dS, NR: []int{nR, nR / 2}, DR: []int{dR, 2 * dR}, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		chunkRows := autoChunkRows(cfg, nm.Cols())
		tM, err := chunk.FromDense(st, nm.Dense(), chunkRows)
		if err != nil {
			return Result{}, err
		}
		nt, err := chunkStar(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		mT, fT, _, _, err := runGLMPair(st, chunk.MatOperand(ex, tM), nt.Operand(ex), y, iters, alpha)
		if err != nil {
			return Result{}, fmt.Errorf("chunkstar: star: %w", err)
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("glm star q=2 (%d iters)", iters), secs(mT), secs(fT), ratio(mT, fT)})

		var cpMat, cpStr *la.Dense
		cpM := timeIt(func() {
			var err error
			cpMat, err = tM.CrossProdExec(ex)
			if err != nil {
				panic(err)
			}
		})
		cpF := timeIt(func() {
			var err error
			cpStr, err = nt.CrossProdExec(ex)
			if err != nil {
				panic(err)
			}
		})
		// Entries are O(nS)-magnitude sums, so pin the two rewrites to a
		// summation-order tolerance scaled for that.
		if la.MaxAbsDiff(cpMat, cpStr) > 1e-6 {
			return Result{}, fmt.Errorf("chunkstar: materialized and streamed crossprod diverged by %g", la.MaxAbsDiff(cpMat, cpStr))
		}
		res.Rows = append(res.Rows, []string{"crossprod star q=2", secs(cpM), secs(cpF), ratio(cpM, cpF)})

		// Streamed k-means over the chunked materialized star output:
		// serial vs parallel, results asserted bit-identical. Spill-file
		// releases stay outside the timed sections (earlier repetitions'
		// assignment columns are reclaimed by the store cleanup).
		var kmSer, kmPar *ml.KMeansFit
		kmOpt := ml.Options{Iters: iters, Seed: cfg.Seed}
		kT := timeIt(func() {
			var err error
			kmSer, err = ml.KMeansScan(chunk.MatOperand(chunk.Serial, tM), 8, kmOpt)
			if err != nil {
				panic(err)
			}
		})
		kP := timeIt(func() {
			var err error
			kmPar, err = ml.KMeansScan(chunk.MatOperand(ex, tM), 8, kmOpt)
			if err != nil {
				panic(err)
			}
		})
		if la.MaxAbsDiff(kmSer.Centroids, kmPar.Centroids) != 0 {
			return Result{}, fmt.Errorf("chunkstar: kmeans serial and parallel centroids diverged")
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("kmeans k=8 (%d iters)", iters), secs(kT), secs(kP), ratio(kT, kP)})

		if err := kmSer.Assign.Free(); err != nil {
			return Result{}, err
		}
		if err := kmPar.Assign.Free(); err != nil {
			return Result{}, err
		}
		if err := tM.Free(); err != nil {
			return Result{}, err
		}
		if err := nt.Free(); err != nil {
			return Result{}, err
		}
	}

	// One-hot sparse table: materialized CSR chunks vs the factorized star
	// with a CSR attribute table, both through chunk.Mat.
	{
		dR := 6 * dS
		nm, err := oneHotPKFK(nS, dS, nR, dR, cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		chunkRows := autoChunkRows(cfg, nm.Cols())
		tM, err := chunk.FromCSR(st, nm.Sparse(), chunkRows)
		if err != nil {
			return Result{}, err
		}
		nt, err := chunkStar(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		mT, fT, _, _, err := runGLMPair(st, chunk.MatOperand(ex, tM), nt.Operand(ex), y, iters, alpha)
		if err != nil {
			return Result{}, fmt.Errorf("chunkstar: sparse: %w", err)
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("glm one-hot CSR (%d iters)", iters), secs(mT), secs(fT), ratio(mT, fT)})
		if err := tM.Free(); err != nil {
			return Result{}, err
		}
		if err := nt.Free(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

func init() {
	register("chunkstar", chunkstar)
}
