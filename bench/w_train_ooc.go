package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
)

// trainOOC trains over the same join as train-inmem, but with the
// materialized table T and the star NormalizedTable spilled to a
// two-directory sharded chunk store under a memory budget. The chunk
// pipeline (read, decode, map, ordered commit) and plan do most of the
// work; la sees only chunk-height kernels.
type trainOOC struct {
	p  trainParams
	nm *core.NormalizedMatrix
	y  *la.Dense

	root      string // spill directories live under it
	store     *chunk.Store
	tM        *chunk.Matrix
	nt        *chunk.NormalizedTable
	env       plan.Env
	chunkRows int

	ref *oocOut // in-memory reference, computed once per run
}

func newTrainOOC(smoke bool) *trainOOC {
	p := trainParams{NS: 400_000, DS: 10, NR: 20_000, DR: 40,
		LogRegIters: 5, KMeansK: 10, KMeansIters: 3, StepSize: 1e-6,
		MemBudgetBytes: 16 << 20, Shards: 2}
	if smoke {
		p.NS, p.DS, p.NR, p.DR = 4000, 4, 200, 16
		p.MemBudgetBytes = 64 << 10
	}
	return &trainOOC{p: p}
}

func (w *trainOOC) name() string { return "train-ooc" }
func (w *trainOOC) params() any  { return w.p }

// newStore makes a fresh sharded store under a new directory of root,
// wrapping each shard's directory backend with wrap when it is non-nil.
func newShardedStore(root string, shards int, wrap func(chunk.Backend) chunk.Backend) (*chunk.Store, error) {
	backends := make([]chunk.Backend, shards)
	for i := range backends {
		b, err := chunk.NewDirBackend(filepath.Join(root, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			b = wrap(b)
		}
		backends[i] = b
	}
	return chunk.NewShardedStoreBackends(backends, chunk.RoundRobin)
}

// spillT streams the join output T = [S, K·R] into st chunk by chunk
// without ever holding it whole, so the workload's peak memory is the
// base tables plus the pipeline's budget.
func spillT(st *chunk.Store, nm *core.NormalizedMatrix, chunkRows int) (*chunk.Matrix, error) {
	s, r, fk := nm.S().Dense(), nm.Rs()[0].Dense(), nm.Ks()[0].Assignments()
	dS := s.Cols()
	return chunk.Build(st, nm.Rows(), nm.Cols(), chunkRows, func(lo, hi int, dst *la.Dense) {
		for i := lo; i < hi; i++ {
			row := dst.Row(i - lo)
			copy(row[:dS], s.Row(i))
			copy(row[dS:], r.Row(int(fk[i])))
		}
	})
}

func (w *trainOOC) setup(r *run) error {
	t0 := time.Now()
	nm, err := datagen.PKFK(w.p.spec(r.seed))
	if err != nil {
		return err
	}
	w.nm = nm
	w.y = datagen.Labels(nm, 0.1, true, r.seed+1)
	r.set("datagen.gen_s", time.Since(t0).Seconds())
	r.set("core.tuple_ratio", w.p.spec(0).TupleRatio())
	r.set("core.feature_ratio", w.p.spec(0).FeatureRatio())

	w.root, err = os.MkdirTemp(r.dir, "spill-")
	if err != nil {
		return err
	}
	t0 = time.Now()
	if w.store, err = newShardedStore(filepath.Join(w.root, "job"), w.p.Shards, nil); err != nil {
		return err
	}
	workers := clients()
	w.chunkRows = chunk.AutoRows(w.p.MemBudgetBytes, nm.Cols(), workers, 2*workers)
	if w.tM, err = spillT(w.store, nm, w.chunkRows); err != nil {
		return err
	}
	sM, err := chunk.FromDense(w.store, nm.S().Dense(), w.chunkRows)
	if err != nil {
		return err
	}
	fk, err := chunk.BuildIntVector(w.store, nm.Ks()[0].Assignments(), w.chunkRows)
	if err != nil {
		return err
	}
	if w.nt, err = chunk.NewNormalizedTable(sM, fk, nm.Rs()[0].Dense()); err != nil {
		return err
	}
	spill := time.Since(t0).Seconds()
	w.env = plan.EnvFor(w.store, workers, w.p.MemBudgetBytes)
	r.set("chunk.spill_s", spill)
	r.set("chunk.bytes_on_disk", float64(w.store.BytesOnDisk()))
	r.set("chunk.spill_mb_per_s", float64(w.store.BytesOnDisk())/1e6/spill)
	w.ref = nil
	return nil
}

// teardown frees every chunk and requires the store's ledger to be back
// at zero before the spill directories are removed.
func (w *trainOOC) teardown(*run) error {
	if w.store == nil {
		return nil
	}
	defer os.RemoveAll(w.root)
	if err := w.tM.Free(); err != nil {
		return err
	}
	if err := w.nt.Free(); err != nil {
		return err
	}
	if live := w.store.LiveChunks(); live != 0 {
		return fmt.Errorf("%d chunks still live after Free, want 0", live)
	}
	err := w.store.Close()
	w.store, w.tM, w.nt, w.nm, w.y, w.ref = nil, nil, nil, nil, nil, nil
	return err
}

// oocOut is what one out-of-core job produces, with the exact I/O
// counters the store kept for it.
type oocOut struct {
	wLog      *la.Dense
	centroids *la.Dense
	objective float64
	cp        *la.Dense
	io        chunk.IOStats
	dec       plan.Decision
}

// job is the workload's unit of work: planner-driven logistic regression
// over the tables the caller holds, planner-driven k-means on T, and
// crossprod(T).
func (w *trainOOC) job(tr *tracer) (*oocOut, error) {
	root := tr.begin(0, "job")
	defer tr.end(root)
	before := w.store.IOStats()
	out := &oocOut{}

	id := tr.begin(root, "chunk.logreg")
	lr, dec, err := plan.LogReg(w.env, w.tM, w.nt, w.y, w.p.LogRegIters, w.p.StepSize)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.wLog, out.dec = lr.W, dec

	id = tr.begin(root, "chunk.kmeans")
	km, _, err := plan.KMeans(w.env, w.tM, w.p.KMeansK, w.p.KMeansIters, 7)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.centroids, out.objective = km.Centroids, km.Objective
	if err := km.Assign.Free(); err != nil {
		return nil, err
	}

	id = tr.begin(root, "chunk.crossprod")
	ex := plan.Plan(plan.OpCrossProd, plan.MaterializedOperands(w.tM), w.env).Strategy.Exec()
	out.cp, err = w.tM.CrossProdExec(ex)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	after := w.store.IOStats()
	out.io = chunk.IOStats{
		ChunksRead:    after.ChunksRead - before.ChunksRead,
		BytesRead:     after.BytesRead - before.BytesRead,
		ChunksSkipped: after.ChunksSkipped - before.ChunksSkipped,
	}
	return out, nil
}

// reference computes the job's results in memory over the normalized
// matrix: the chunked drivers are pinned to these by the repo's tests.
func (w *trainOOC) reference() (*oocOut, error) {
	wLog, err := ml.LogisticRegressionGD(w.nm, w.y, nil, ml.Options{Iters: w.p.LogRegIters, StepSize: w.p.StepSize})
	if err != nil {
		return nil, err
	}
	km, err := ml.KMeans(w.nm, w.p.KMeansK, ml.Options{Iters: w.p.KMeansIters, Seed: 7})
	if err != nil {
		return nil, err
	}
	return &oocOut{wLog: wLog, centroids: km.Centroids, objective: km.Objective, cp: w.nm.CrossProd()}, nil
}

func (o *oocOut) check(ref *oocOut, tol float64) error {
	if err := checkDense("chunked logreg weights", o.wLog, ref.wLog, tol); err != nil {
		return err
	}
	if err := checkDense("chunked k-means centroids", o.centroids, ref.centroids, tol); err != nil {
		return err
	}
	if d := math.Abs(o.objective-ref.objective) / math.Max(1, math.Abs(ref.objective)); !(d <= tol) {
		return fmt.Errorf("chunked k-means objective differs from its reference by %g", d)
	}
	return checkDense("chunked crossprod", o.cp, ref.cp, tol)
}

func (w *trainOOC) measure(r *run, tr *tracer, d time.Duration) (opStats, error) {
	var st opStats
	if _, err := w.job(nil); err != nil { // warm-up
		return st, err
	}
	var first, out *oocOut
	lat, err := repeatFor(tr, d, func() (err error) {
		out, err = w.job(tr)
		return err
	}, func(rep int) error {
		if first == nil {
			first = out
			return nil
		}
		if err := out.check(first, 0); err != nil {
			return fmt.Errorf("job %d is not a repeat of job 0: %w", rep, err)
		}
		if out.io != first.io {
			return fmt.Errorf("job %d read %+v, job 0 read %+v", rep, out.io, first.io)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.summary, st.Attempted = summarizeSequential(lat), len(lat)
	st.PeakRSSMB = peakRSSMB()

	if w.ref == nil {
		ref, err := w.reference()
		if err != nil {
			return st, err
		}
		w.ref = ref
	}
	if err := first.check(w.ref, trainTol); err != nil {
		return st, fmt.Errorf("chunked vs in-memory: %w", err)
	}
	// One job's chunks must all have been released again: only T and the
	// star table's S and key column remain.
	base := w.tM.NumChunks() + 2*w.nt.S.NumChunks()
	if live := w.store.LiveChunks(); live != base {
		return st, fmt.Errorf("%d chunks live after the jobs, want the %d of the inputs", live, base)
	}

	// The exact counters are recorded by both passes (they cost nothing).
	r.set("chunk.chunks_read", float64(first.io.ChunksRead))
	r.set("chunk.bytes_read", float64(first.io.BytesRead))
	r.set("chunk.chunks_skipped", float64(first.io.ChunksSkipped))
	r.set("chunk.read_amplification", float64(first.io.BytesRead)/float64(w.store.BytesOnDisk()))
	r.set("chunk.live_chunks_end", float64(w.store.LiveChunks()-base))
	if tr != nil {
		reps := float64(len(lat))
		agg := aggregate(tr.snapshot())
		for _, drv := range []string{"logreg", "kmeans", "crossprod"} {
			r.set("chunk."+drv+"_s", agg["chunk."+drv].seconds()/reps)
		}
	}
	return st, nil
}

// timedBackend decorates a shard's backend: it adds up the time spent in
// ReadChunk across the pipeline's reader and workers and records one span
// per read under the pass in progress.
type timedBackend struct {
	chunk.Backend
	tr     *tracer
	pass   *atomic.Int64 // span id of the pass in progress
	readNs *atomic.Int64
}

func (b *timedBackend) ReadChunk(key string) ([]byte, error) {
	t0 := b.tr.now()
	data, err := b.Backend.ReadChunk(key)
	t1 := b.tr.now()
	b.readNs.Add(t1 - t0)
	b.tr.add(int(b.pass.Load()), "chunk.read", t0, t1)
	return data, err
}

// stageReps is how often the staged pass runs under each execution.
const stageReps = 3

// probes measures the planner and then one GLM-shaped pass over T through
// Mat.Stream with every stage the benchmark can see from outside timed:
// backend reads (timedBackend), the map function and the commit function.
// What is left of the serial pass — decode and the pipeline's own
// bookkeeping — is reported as other_s by subtraction.
func (w *trainOOC) probes(r *run, tr *tracer) error {
	planProbe(r, plan.OpGLM, plan.StarOperands(w.tM, w.nt), w.env)

	var pass, readNs atomic.Int64
	st, err := newShardedStore(filepath.Join(w.root, "staged"), w.p.Shards, func(b chunk.Backend) chunk.Backend {
		return &timedBackend{Backend: b, tr: tr, pass: &pass, readNs: &readNs}
	})
	if err != nil {
		return err
	}
	defer st.Close()
	tM, err := spillT(st, w.nm, w.chunkRows)
	if err != nil {
		return err
	}
	defer tM.Free()

	wv := la.NewDense(w.nm.Cols(), 1)
	for i := range wv.Data() {
		wv.Data()[i] = 1e-3 * float64(i%7-3)
	}
	type stages struct{ pass, read, mapS, commit float64 }
	glmPass := func(name string, ex chunk.Exec) (*la.Dense, stages, error) {
		var mapNs atomic.Int64
		var commitNs int64
		grad := la.NewDense(w.nm.Cols(), 1)
		id := tr.begin(0, name)
		pass.Store(int64(id))
		readNs.Store(0)
		t0 := time.Now()
		err := tM.Stream(ex, func(ci, lo int, c la.Mat) (any, error) {
			m0 := tr.now()
			tw := c.Mul(wv)
			p := la.NewDense(c.Rows(), 1)
			for i := 0; i < c.Rows(); i++ {
				p.Set(i, 0, w.y.At(lo+i, 0)/(1+math.Exp(tw.At(i, 0))))
			}
			g := c.TMul(p)
			m1 := tr.now()
			mapNs.Add(m1 - m0)
			tr.add(id, "chunk.map", m0, m1)
			return g, nil
		}, func(ci int, v any) error {
			c0 := tr.now()
			grad.AddInPlace(v.(*la.Dense))
			c1 := tr.now()
			commitNs += c1 - c0
			tr.add(id, "chunk.commit", c0, c1)
			return nil
		})
		wall := time.Since(t0).Seconds()
		tr.end(id)
		return grad, stages{wall, float64(readNs.Load()) / 1e9, float64(mapNs.Load()) / 1e9, float64(commitNs) / 1e9}, err
	}

	par := plan.Plan(plan.OpGLM, plan.MaterializedOperands(tM), w.env).Strategy.Exec()
	var ref *la.Dense
	run := func(name string, ex chunk.Exec) (stages, error) {
		var all [stageReps]stages
		for i := range all {
			g, s, err := glmPass(name, ex)
			if err != nil {
				return stages{}, err
			}
			if ref == nil {
				ref = g
			} else if la.MaxAbsDiff(g, ref) != 0 {
				return stages{}, fmt.Errorf("%s pass %d: gradient differs from the first pass", name, i)
			}
			all[i] = s
		}
		col := func(f func(stages) float64) float64 { return medianOf(all[:], f) }
		return stages{
			col(func(s stages) float64 { return s.pass }), col(func(s stages) float64 { return s.read }),
			col(func(s stages) float64 { return s.mapS }), col(func(s stages) float64 { return s.commit }),
		}, nil
	}
	if _, _, err := glmPass("chunk.pass.warmup", par); err != nil {
		return err
	}
	p, err := run("chunk.pass.parallel", par)
	if err != nil {
		return err
	}
	s, err := run("chunk.pass.serial", chunk.Serial)
	if err != nil {
		return err
	}
	// The streamed gradient must be the in-memory one.
	tw := w.nm.Mul(wv)
	pv := la.NewDense(w.nm.Rows(), 1)
	for i := range pv.Data() {
		pv.Data()[i] = w.y.At(i, 0) / (1 + math.Exp(tw.At(i, 0)))
	}
	if err := checkDense("staged pass gradient", ref, w.nm.T().Mul(pv), trainTol); err != nil {
		return err
	}

	r.set("chunk.pass_s", p.pass)
	r.set("chunk.serial_pass_s", s.pass)
	r.set("chunk.par_speedup", s.pass/p.pass)
	r.set("chunk.read_s", p.read)
	r.set("chunk.map_s", p.mapS)
	r.set("chunk.commit_s", p.commit)
	r.set("chunk.overlap_ratio", (p.read+p.mapS+p.commit)/p.pass)
	r.set("chunk.other_s", s.pass-(s.read+s.mapS+s.commit))
	r.notef("chunk staged pass, %d chunks of %d rows: parallel %+v wall %.4f s (read %.4f + map %.4f + commit %.4f busy); serial wall %.4f s (read %.4f + map %.4f + commit %.4f, other %.4f)",
		tM.NumChunks(), w.chunkRows, par, p.pass, p.read, p.mapS, p.commit, s.pass, s.read, s.mapS, s.commit, s.pass-(s.read+s.mapS+s.commit))

	if err := tM.Free(); err != nil {
		return err
	}
	if live := st.LiveChunks(); live != 0 {
		return fmt.Errorf("staged store: %d chunks live after Free, want 0", live)
	}
	return nil
}
