// Command outofcore walks through the parallel out-of-core engine: it
// streams a table that never exists in memory into a sharded chunk store
// (spill files spread across two directories with size-aware placement
// and per-shard write-behind queues — point them at different disks for
// real machines), then runs internal/ml's algorithms — the same code the
// in-memory examples call — over chunked scan operands: logistic
// regression factorized over a two-attribute-table star under both the
// serial and parallel engines and over a one-hot CSR table, k-means with
// a chunked assignment column, GNMF with a chunked W factor, and shows
// the spill-file lifecycle (Free / Close) leaving every shard directory
// empty. Chunk heights come from a memory budget via
// chunk.AutoRows, not hard-coded constants. The final section shards a
// store between a local directory and a remote chunk server (an in-process
// morpheus-chunkd): the same algorithms run unchanged with half their
// spill chunks living across HTTP.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/la"
	"repro/internal/ml"
)

func main() {
	dir, err := os.MkdirTemp("", "morpheus-outofcore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	shardDirs := []string{filepath.Join(dir, "shard0"), filepath.Join(dir, "shard1")}
	store, err := chunk.NewShardedStore(shardDirs, chunk.LeastBytes)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// An ORE-scale shape, shrunk to example size: a 120k×20 entity table
	// joined PK-FK with two attribute tables (one dense, one one-hot CSR).
	const (
		nS, dS     = 120_000, 20
		nR1, dR1   = 10_000, 40
		nR2, dR2   = 5_000, 64
		memBudget  = 32 << 20 // decoded-chunk memory budget: 32 MB
		totalWidth = dS + dR1 + dR2
	)
	ex := chunk.Parallel()
	chunkRows := chunk.AutoRows(memBudget, totalWidth, ex.Workers, ex.Prefetch)
	rng := rand.New(rand.NewSource(1))

	// Build streams chunks straight to disk — the full S never exists in
	// memory.
	start := time.Now()
	sM, err := chunk.Build(store, nS, dS, chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := range dst.Data() {
			dst.Data()[i] = rng.NormFloat64()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	buildFK := func(nR int) *chunk.IntVector {
		fk := make([]int32, nS)
		for i := range fk {
			fk[i] = int32(rng.Intn(nR))
		}
		v, err := chunk.BuildIntVector(store, fk, chunkRows)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	r1 := la.NewDense(nR1, dR1)
	for i := range r1.Data() {
		r1.Data()[i] = rng.NormFloat64()
	}
	b := la.NewCSRBuilder(nR2, dR2)
	for i := 0; i < nR2; i++ {
		b.Add(i, rng.Intn(dR2), 1) // one-hot attribute rows
	}
	r2 := b.Build()
	nt, err := chunk.NewStarTable(sM, []chunk.AttrTable{
		{FK: buildFK(nR1), R: r1},
		{FK: buildFK(nR2), R: r2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spilled S (%d×%d, %.1f MB) + 2 key columns in %v; logical star T is %d×%d; AutoRows(%d MB) chose %d-row chunks\n",
		nS, dS, float64(sM.BytesOnDisk())/(1<<20), time.Since(start).Round(time.Millisecond),
		nt.Rows(), nt.Cols(), memBudget>>20, chunkRows)
	for i, sh := range store.ShardStats() {
		fmt.Printf("  shard %d (%s): %d chunks, %.1f MB\n", i, filepath.Base(sh.Dir), sh.Chunks, float64(sh.Bytes)/(1<<20))
	}

	y := la.NewDense(nS, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}

	// Factorized GLM over the chunked star: serial vs parallel.
	const iters = 2
	glm := ml.Options{Iters: iters, StepSize: 1e-6}
	t0 := time.Now()
	serial, err := ml.LogRegScan(nt.Operand(chunk.Serial), y, nil, glm)
	if err != nil {
		log.Fatal(err)
	}
	serialT := time.Since(t0)
	t0 = time.Now()
	parallel, err := ml.LogRegScan(nt.Operand(ex), y, nil, glm)
	if err != nil {
		log.Fatal(err)
	}
	parallelT := time.Since(t0)
	fmt.Printf("factorized star GLM ×%d: serial %v, parallel %v (%d workers) — speedup %.2f×, weights identical: %v\n",
		iters, serialT.Round(time.Millisecond), parallelT.Round(time.Millisecond),
		runtime.GOMAXPROCS(0), float64(serialT)/float64(parallelT),
		la.MaxAbsDiff(serial, parallel) == 0)

	// A one-hot sparse table is the same operand with CSR chunks, which pay
	// I/O per non-zero, not per cell.
	sparseT, err := buildOneHot(store, rng, nS, 512, chunk.AutoRows(memBudget, 512, ex.Workers, ex.Prefetch))
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	readBefore := store.IOStats().BytesRead
	if _, err := ml.LogRegScan(chunk.MatOperand(ex, sparseT), y, nil, glm); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse one-hot GLM ×%d over CSR chunks: %v, %.1f MB read (dense equivalent would read %.1f MB)\n",
		iters, time.Since(t0).Round(time.Millisecond),
		float64(store.IOStats().BytesRead-readBefore)/(1<<20),
		float64(iters)*float64(nS)*512*8/(1<<20))
	if err := sparseT.Free(); err != nil {
		log.Fatal(err)
	}

	// Streamed factorized operators: TᵀT of the star without ever
	// materializing T.
	t0 = time.Now()
	ctc, err := nt.CrossProdExec(ex)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed crossprod(T): %d×%d in %v, trace %.1f\n",
		ctc.Rows(), ctc.Cols(), time.Since(t0).Round(time.Millisecond), trace(ctc))

	// Streamed k-means: per-iteration distance + argmin passes over the
	// chunks, centroid reduction through the ordered-commit pipeline, and
	// a chunked assignment column that never sits in memory.
	t0 = time.Now()
	km, err := ml.KMeansScan(chunk.MatOperand(ex, sM), 8, ml.Options{Iters: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed k-means (k=8, 3 iters): %v, objective %.1f, assignments stored as %d chunked rows\n",
		time.Since(t0).Round(time.Millisecond), km.Objective, km.Assign.(*chunk.Matrix).Rows())
	if err := km.Assign.Free(); err != nil {
		log.Fatal(err)
	}

	// Streamed GNMF (the last §4 algorithm): the tall W factor is itself
	// chunked and aligned with the input; intermediate W generations are
	// freed as the multiplicative updates advance.
	posT, err := sM.StreamToMatrix(ex, dS, func(ci, lo int, c la.Mat) (*la.Dense, error) {
		return c.Apply(math.Abs).(*la.Dense), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	readBefore = store.IOStats().BytesRead
	gn, err := ml.GNMFScan(chunk.MatOperand(ex, posT), 5, ml.Options{Iters: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	streamed := store.IOStats().BytesRead - readBefore
	recon, err := gn.ReconstructionError(chunk.MatOperand(ex, posT))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed GNMF (rank=5, 3 iters): %v, ‖T−WHᵀ‖² %.1f, W spilled as %d chunks, %.1f MB streamed\n",
		time.Since(t0).Round(time.Millisecond), recon, gn.W.(*chunk.Matrix).NumChunks(), float64(streamed)/(1<<20))
	if err := gn.W.Free(); err != nil {
		log.Fatal(err)
	}
	if err := posT.Free(); err != nil {
		log.Fatal(err)
	}

	// Spill-file lifecycle: intermediates are refcounted; Free releases
	// them as soon as the pipeline is done with them.
	prod, err := nt.MulExec(ex, la.Ones(nt.Cols(), 2))
	if err != nil {
		log.Fatal(err)
	}
	during := store.LiveChunks()
	sums, err := prod.ColSumsExec(ex)
	if err != nil {
		log.Fatal(err)
	}
	if err := prod.Free(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed T·x: colsum[0] %.1f; live chunks %d → free(intermediate) → %d\n",
		sums.At(0, 0), during, store.LiveChunks())

	if err := nt.Free(); err != nil {
		log.Fatal(err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	left := 0
	for _, sd := range shardDirs {
		entries, err := os.ReadDir(sd)
		if err != nil {
			log.Fatal(err)
		}
		left += len(entries)
	}
	fmt.Printf("after Free + Close: %d files left across both shard directories\n", left)

	remoteShardDemo(rng)
}

// remoteShardDemo shards one store between a local directory and a remote
// chunk server — the morpheus-chunkd protocol served in-process — and
// trains over it: placement policies, write-behind queues, and accounting
// treat the remote node exactly like another disk.
func remoteShardDemo(rng *rand.Rand) {
	dir, err := os.MkdirTemp("", "morpheus-remote-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	handler, err := chunk.NewChunkServer(filepath.Join(dir, "served"), 0)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	local, err := chunk.NewDirBackend(filepath.Join(dir, "local"))
	if err != nil {
		log.Fatal(err)
	}
	remote, err := chunk.NewRemoteBackend(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	store, err := chunk.NewShardedStoreBackends([]chunk.Backend{local, remote}, chunk.LeastBytes)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	const n, d = 20_000, 24
	ex := chunk.Parallel()
	t := la.NewDense(n, d)
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64()
	}
	y := la.NewDense(n, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}
	tM, err := chunk.FromDense(store, t, chunk.AutoRows(8<<20, d, ex.Workers, ex.Prefetch))
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	w, err := ml.LogRegScan(chunk.MatOperand(ex, tM), y, nil, ml.Options{Iters: 2, StepSize: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed local+remote store: GLM over %d chunks in %v, ‖w‖ %.4f\n",
		tM.NumChunks(), time.Since(t0).Round(time.Millisecond), math.Sqrt(w.CrossProd().At(0, 0)))
	for _, sh := range store.ShardStats() {
		kind := "local dir"
		if strings.HasPrefix(sh.Dir, "http") {
			kind = "remote chunkd"
		}
		fmt.Printf("  %-13s %-26s %2d chunks, %.1f MB\n", kind, sh.Dir, sh.Chunks, float64(sh.Bytes)/(1<<20))
	}

	// Where an op runs is the store's placement, not an option: the chunks
	// of a registered op (crossprod, the k-means assignment) held by the
	// chunkd worker are mapped there (POST /exec) and only the partials
	// travel back. The same passes over the same data on a plain local
	// store, at the same chunk height, give the same bits.
	plain, err := chunk.NewStore(filepath.Join(dir, "plain"))
	if err != nil {
		log.Fatal(err)
	}
	defer plain.Close()
	tL, err := chunk.FromDense(plain, t, tM.ChunkRows())
	if err != nil {
		log.Fatal(err)
	}
	passes := func(st *chunk.Store, m chunk.Mat) (*la.Dense, *ml.KMeansFit, chunk.IOStats) {
		before := st.IOStats()
		xp, err := m.CrossProdExec(ex)
		if err != nil {
			log.Fatal(err)
		}
		km, err := ml.KMeansScan(chunk.MatOperand(ex, m), 4, ml.Options{Iters: 2, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		if err := km.Assign.Free(); err != nil {
			log.Fatal(err)
		}
		after := st.IOStats()
		return xp, km, chunk.IOStats{BytesRead: after.BytesRead - before.BytesRead, ChunksExecuted: after.ChunksExecuted - before.ChunksExecuted}
	}
	t0 = time.Now()
	xpPush, kmPush, ioPush := passes(store, tM)
	pushT := time.Since(t0)
	xpLocal, kmLocal, ioLocal := passes(plain, tL)
	same := la.MaxAbsDiff(xpLocal, xpPush) == 0 && la.MaxAbsDiff(kmLocal.Centroids, kmPush.Centroids) == 0 && kmLocal.Objective == kmPush.Objective
	if !same {
		log.Fatal("crossprod + k-means on the chunkd-backed store diverged from the plain local store")
	}
	fmt.Printf("pushdown: crossprod + k-means in %v, bits identical to a plain local store: %v; driver fetched %.1f MB (plain store %.1f MB), %d chunks executed on the chunkd worker\n",
		pushT.Round(time.Millisecond), same, float64(ioPush.BytesRead)/(1<<20), float64(ioLocal.BytesRead)/(1<<20), ioPush.ChunksExecuted)
	if err := tL.Free(); err != nil {
		log.Fatal(err)
	}

	if err := tM.Free(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Free: store tracks %d chunks, %d bytes — remote shard drained like a disk\n",
		store.LiveChunks(), store.BytesOnDisk())
}

// buildOneHot spills an n×cols CSR table with one 1 per row, never holding
// the whole matrix in memory more than once.
func buildOneHot(store *chunk.Store, rng *rand.Rand, n, cols, chunkRows int) (*chunk.SparseMatrix, error) {
	b := la.NewCSRBuilder(n, cols)
	for i := 0; i < n; i++ {
		b.Add(i, rng.Intn(cols), 1)
	}
	return chunk.FromCSR(store, b.Build(), chunkRows)
}

func trace(m *la.Dense) float64 {
	t := 0.0
	for i := 0; i < int(math.Min(float64(m.Rows()), float64(m.Cols()))); i++ {
		t += m.At(i, i)
	}
	return t
}
