package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/orion"
	"repro/internal/realdata"
)

// realDataScale shrinks the Table 6 datasets; 100 keeps every dataset's
// materialized form in memory while preserving its TR/FR profile.
const realDataScale = 100

// realDataShrink is the factor table7 and table12 divide the Table 6
// statistics by, clamped before the conversion: a Scale near 1e-17 would
// overflow int and come back as "no shrinking".
func realDataShrink(cfg Config) int {
	return int(math.Min(math.Max(realDataScale/cfg.Scale, 1), math.MaxInt32))
}

// table7 regenerates Table 7: materialized runtimes and Morpheus speed-ups
// for the four ML algorithms on the seven real-data clones. The
// materialized baseline runs over the sparse CSR join output, matching the
// paper's sparse real-data representation.
func table7(cfg Config) (Result, error) {
	scale := realDataShrink(cfg)
	res := Result{
		ID:     "table7",
		Title:  "Real-data clones: materialized runtime and Morpheus speed-up (Table 7)",
		Header: []string{"dataset", "algo", "M(s)", "F(s)", "speedup"},
		Notes:  fmt.Sprintf("Table 6 statistics scaled down %dx; 20 iters, 10 centroids, 5 topics as in the paper", scale),
	}
	for _, spec := range realdata.Specs() {
		ds, err := realdata.Generate(spec.Scaled(scale), cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		nm := ds.Norm
		sp := nm.Sparse() // materialized sparse T
		yb := ds.BinaryY()
		yn := ds.Y
		k := 10 // paper's centroid count; clamped for miniature test scales
		if nm.Rows() < k {
			k = nm.Rows()
		}
		cases := []struct {
			name string
			run  func(t la.Matrix) error
		}{
			// Linear regression uses GD, the paper's own fallback when d
			// is large (§4): the one-hot real datasets have d in the tens
			// of thousands, where a d×d inversion is off the table.
			{"linreg", func(t la.Matrix) error {
				_, err := ml.LinearRegressionGD(t, yn, nil, ml.Options{Iters: mlIters, StepSize: 1e-7})
				return err
			}},
			{"logreg", func(t la.Matrix) error {
				_, err := ml.LogisticRegressionGD(t, yb, nil, ml.Options{Iters: mlIters, StepSize: 1e-6})
				return err
			}},
			{"kmeans", func(t la.Matrix) error {
				_, err := ml.KMeans(t, k, ml.Options{Iters: mlIters, Seed: 7})
				return err
			}},
			{"gnmf", func(t la.Matrix) error {
				_, err := ml.GNMF(t, 5, ml.Options{Iters: mlIters, Seed: 7})
				return err
			}},
		}
		for _, c := range cases {
			mT, fT, err := timePair(sp, nm, c.run)
			if err != nil {
				return Result{}, fmt.Errorf("%s %s: %w", spec.Name, c.name, err)
			}
			res.Rows = append(res.Rows, []string{spec.Name, c.name, secs(mT), secs(fT), ratio(mT, fT)})
		}
	}
	return res, nil
}

// table8 regenerates Table 8: Morpheus vs the Orion baseline on factorized
// logistic regression across feature ratios. Both report speed-up over the
// same materialized run.
func table8(cfg Config) (Result, error) {
	res := Result{
		ID:     "table8",
		Title:  "Factorized logistic regression speed-up over materialized: Orion vs Morpheus (Table 8)",
		Header: []string{"FR", "M(s)", "Orion(s)", "Morpheus(s)", "Orion speedup", "Morpheus speedup"},
		Notes:  "paper setting (nS,nR,dS,iters)=(2e6,1e5,20,10), scaled down; Morpheus >= Orion because Orion pays hash-lookup overheads",
	}
	// nS must be large enough that kernel time dominates dispatch
	// overheads, or the Orion-vs-Morpheus ordering inverts; 80k rows at
	// Scale=1 is the smallest size that reproduces the paper's shape.
	nR := cfg.scaled(4000)
	nS := 20 * nR
	dS := 20
	const iters = 10
	const alpha = 1e-6
	for _, frInt := range []int{1, 2, 3, 4} {
		dR := frInt * dS
		nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: dS, NR: nR, DR: dR, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		td := nm.Dense()
		sD := nm.S().Dense()
		rD := nm.Rs()[0].Dense()
		fk := nm.Ks()[0].Assignments()
		glm, err := orion.NewGLM(sD, rD, fk)
		if err != nil {
			return Result{}, err
		}
		opt := ml.Options{Iters: iters, StepSize: alpha}
		mT, fT, err := timePair(td, nm, func(t la.Matrix) error {
			_, err := ml.LogisticRegressionGD(t, y, nil, opt)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		oT := timeOp(func() { glm.LogisticGD(y, iters, alpha) })
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(frInt), secs(mT), secs(oT), secs(fT), ratio(mT, oT), ratio(mT, fT)})
	}
	return res, nil
}

func chunkStore(cfg Config, name string) (*chunk.Store, func(), error) {
	var backends []chunk.Backend
	cleanup := func() {} // removes the temp directory, when the run made one
	fail := func(err error) (*chunk.Store, func(), error) {
		cleanup()
		return nil, nil, err
	}
	if len(cfg.ShardDirs) > 0 || len(cfg.RemoteShards) > 0 {
		// User-supplied shards — local directories (different disks)
		// and/or remote chunkd servers — are not removed, but Close still
		// deletes every spill file the run created, on every shard.
		for _, d := range cfg.ShardDirs {
			b, err := chunk.NewDirBackend(d)
			if err != nil {
				return fail(err)
			}
			backends = append(backends, b)
		}
		for _, u := range cfg.RemoteShards {
			b, err := chunk.NewRemoteBackend(u)
			if err != nil {
				return fail(err)
			}
			backends = append(backends, b)
		}
	} else {
		dir := cfg.TmpDir
		if dir == "" {
			// A user-supplied directory is not removed, but Close still
			// deletes every spill file the run created; this temp one is.
			d, err := os.MkdirTemp("", "morpheus-"+name+"-*")
			if err != nil {
				return nil, nil, err
			}
			cleanup = func() { os.RemoveAll(d) }
			dir = d
		}
		b, err := chunk.NewDirBackend(dir)
		if err != nil {
			return fail(err)
		}
		backends = append(backends, b)
	}
	st, err := chunk.NewShardedStoreBackends(backends, chunk.RoundRobin)
	if err != nil {
		return fail(err)
	}
	return st, func() { st.Close(); cleanup() }, nil
}

// memBudgetMB resolves the configured out-of-core memory budget.
func memBudgetMB(cfg Config) int {
	if cfg.MemBudgetMB > 0 {
		return cfg.MemBudgetMB
	}
	return 256
}

// autoChunkRows derives the chunk height for a cols-wide table from the
// configured memory budget, replacing the hard-coded chunk heights the
// sweeps used to carry.
func autoChunkRows(cfg Config, cols int) int {
	rows, _ := chunk.AutoRowsChecked(int64(memBudgetMB(cfg))<<20, cols, cfg.Workers)
	return rows
}

// timeGLM times ml.LogRegScan over a chunked operand held in st and
// reports the bytes its scans read from the store.
func timeGLM(st *chunk.Store, t la.Operand, y *la.Dense, iters int, alpha float64) (d time.Duration, w *la.Dense, bytesRead int64, err error) {
	d, err = timeIt(func() (err error) { // may repeat: every run reads the same bytes
		before := st.IOStats().BytesRead
		w, err = ml.LogRegScan(t, y, nil, ml.Options{Iters: iters, StepSize: alpha})
		bytesRead = st.IOStats().BytesRead - before
		return err
	})
	return d, w, bytesRead, err
}

// runGLMPair times the GLM over a chunked materialized table against the
// factorized operand of the same logical table (with the bytes each read)
// and verifies the fitted weights agree — a divergence is an error, never
// a silently wrong table row.
func runGLMPair(st *chunk.Store, tM, tF la.Operand, y *la.Dense, iters int, alpha float64) (mT, fT time.Duration, mBytes, fBytes int64, err error) {
	mT, wM, mBytes, err := timeGLM(st, tM, y, iters, alpha)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	fT, wF, fBytes, err := timeGLM(st, tF, y, iters, alpha)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if la.MaxAbsDiff(wM, wF) > 1e-8 {
		return 0, 0, 0, 0, fmt.Errorf("experiments: M and F weights diverged")
	}
	return mT, fT, mBytes, fBytes, nil
}

// table9 regenerates Table 9: per-iteration logistic regression time on the
// out-of-core (ORE-substitute) backend for a PK-FK join, sweeping the
// feature ratio.
func table9(cfg Config) (Result, error) {
	res := Result{
		ID:     "table9",
		Title:  "Out-of-core logistic regression per-iteration time, PK-FK join (Table 9; ORE substitute)",
		Header: []string{"FR", "M(s/iter)", "F(s/iter)", "speedup", "M bytes", "F bytes"},
		Notes:  "paper: (nS,nR,dS)=(1e8,5e6,60) on Oracle R Enterprise; here the chunked on-disk backend at reduced scale",
	}
	st, cleanup, err := chunkStore(cfg, "table9")
	if err != nil {
		return Result{}, err
	}
	defer cleanup()
	nR := cfg.scaled(1000)
	nS := 20 * nR
	dS := 60
	const iters = 2
	ex := chunk.Exec{Workers: cfg.Workers}

	// sweep times one sweep point and appends its per-iteration row.
	sweep := func(label string, tM chunk.Mat, nt *chunk.NormalizedTable, y *la.Dense) error {
		mT, fT, mBytes, fBytes, err := runGLMPair(st, chunk.MatOperand(ex, tM), nt.Operand(ex), y, iters, 1e-6)
		if err != nil {
			return fmt.Errorf("table9: %s: %w", label, err)
		}
		res.Rows = append(res.Rows, []string{
			label,
			secs(time.Duration(int64(mT) / iters)), secs(time.Duration(int64(fT) / iters)),
			ratio(mT, fT),
			fmt.Sprint(mBytes), fmt.Sprint(fBytes)})
		// Release this sweep point's spill files before the next one.
		if err := tM.Free(); err != nil {
			return err
		}
		return nt.Free()
	}

	for _, fr := range []float64{0.5, 1, 2, 4} {
		dR := int(fr * float64(dS))
		nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: dS, NR: nR, DR: dR, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		chunkRows := autoChunkRows(cfg, dS+dR)
		tM, err := chunk.FromDense(st, nm.Dense(), chunkRows)
		if err != nil {
			return Result{}, err
		}
		nt, err := spill(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		if err := sweep(fmt.Sprint(fr), tM, nt, y); err != nil {
			return Result{}, err
		}
	}

	// Sparse point: a one-hot CSR attribute table (the Table 6 shape). The
	// materialized baseline keeps the fair sparse format — CSR chunks —
	// and both paths train through chunk.Mat.
	{
		dR := 4 * dS
		nm, err := oneHotPKFK(nS, dS, nR, dR, cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		chunkRows := autoChunkRows(cfg, dS+dR)
		tM, err := chunk.FromCSR(st, nm.Sparse(), chunkRows)
		if err != nil {
			return Result{}, err
		}
		nt, err := spill(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		if err := sweep("4(one-hot CSR)", tM, nt, y); err != nil {
			return Result{}, err
		}
	}

	// Star point: two attribute tables behind the same entity table.
	{
		dR := dS
		nm, err := datagen.Star(datagen.StarSpec{NS: nS, DS: dS, NR: []int{nR, nR}, DR: []int{dR, dR}, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		chunkRows := autoChunkRows(cfg, dS+2*dR)
		tM, err := chunk.FromDense(st, nm.Dense(), chunkRows)
		if err != nil {
			return Result{}, err
		}
		nt, err := spill(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		if err := sweep("2(star q=2)", tM, nt, y); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// spill puts an in-memory normalized matrix out of core, factorized.
func spill(st *chunk.Store, nm *core.NormalizedMatrix, chunkRows int) (*chunk.NormalizedTable, error) {
	return chunk.FromNormalized(st, nm.S(), nm.IS(), nm.Ks(), nm.Rs(), chunkRows)
}

// oneHotPKFK builds a PK-FK normalized matrix whose attribute table is a
// one-hot CSR — the real-data Table 6 shape at synthetic scale.
func oneHotPKFK(nS, dS, nR, dR int, seed int64) (*core.NormalizedMatrix, error) {
	rng := rand.New(rand.NewSource(seed))
	s := la.NewDense(nS, dS)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	b := la.NewCSRBuilder(nR, dR)
	for i := 0; i < nR; i++ {
		b.Add(i, rng.Intn(dR), 1)
	}
	fk := make([]int, nS)
	for i := range fk {
		fk[i] = rng.Intn(nR)
	}
	return core.NewPKFK(s, la.NewIndicator(fk, nR), b.Build())
}

// table10 regenerates Table 10: out-of-core logistic regression on an M:N
// join, sweeping the join-attribute domain size nU downward (more
// redundancy) — the speed-up explodes as |T'| grows.
func table10(cfg Config) (Result, error) {
	res := Result{
		ID:     "table10",
		Title:  "Out-of-core logistic regression per-iteration time, M:N join (Table 10; ORE substitute)",
		Header: []string{"nU", "|T'|", "M(s/iter)", "F(s/iter)", "speedup"},
		Notes:  "paper: (nS,nR,dS,dR)=(1e6,1e6,200,200); speed-up grows as ~nS/nU, reaching ~300x at the paper's smallest domain",
	}
	st, cleanup, err := chunkStore(cfg, "table10")
	if err != nil {
		return Result{}, err
	}
	defer cleanup()
	nS := cfg.scaled(2000)
	d := 40
	const iters = 2
	chunkRows := autoChunkRows(cfg, 2*d)
	for _, frac := range []float64{0.5, 0.1, 0.05, 0.02} {
		nU := int(frac * float64(nS))
		if nU < 1 {
			nU = 1
		}
		nm, err := datagen.MN(datagen.MNSpec{NS: nS, NR: nS, DS: d, DR: d, NU: nU, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		mn, err := spill(st, nm, chunkRows)
		if err != nil {
			return Result{}, err
		}
		ex := chunk.Exec{Workers: cfg.Workers}
		tM, err := mn.Materialize(ex)
		if err != nil {
			return Result{}, err
		}
		mT, fT, _, _, err := runGLMPair(st, chunk.MatOperand(ex, tM), mn.Operand(ex), y, iters, 1e-7)
		if err != nil {
			return Result{}, fmt.Errorf("table10: %w", err)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(nU), fmt.Sprint(nm.Rows()),
			secs(time.Duration(int64(mT) / iters)), secs(time.Duration(int64(fT) / iters)),
			ratio(mT, fT)})
		// Release this sweep point's spill files before the next one.
		tM.Free()
		mn.Free()
	}
	return res, nil
}

// table12 regenerates the appendix Table 12: data-preparation time (join
// materialization for M, indicator construction for F) as a fraction of a
// 20-iteration logistic regression run.
func table12(cfg Config) (Result, error) {
	res := Result{
		ID:     "table12",
		Title:  "Data preparation time vs logistic regression runtime (appendix Table 12)",
		Header: []string{"dataset", "prep M(s)", "prep F(s)", "logreg M(s)", "logreg F(s)", "ratio M", "ratio F"},
		Notes:  "prep M = materializing the sparse join output; prep F = rebuilding the indicator matrices; both are minor vs 20 training iterations",
	}
	scale := realDataShrink(cfg)
	for _, spec := range realdata.Specs() {
		ds, err := realdata.Generate(spec.Scaled(scale), cfg.Seed)
		if err != nil {
			return Result{}, err
		}
		nm := ds.Norm
		yb := ds.BinaryY()
		var sp *la.CSR
		prepM := timeOp(func() { sp = nm.Sparse() })
		prepF := timeOp(func() {
			// Rebuild each indicator from its raw key column — the F-side
			// preparation the paper measures (sparseMatrix(...) in §3.2).
			for _, k := range nm.Ks() {
				assign := k.Assignments()
				raw := make([]int, len(assign))
				for i, a := range assign {
					raw[i] = int(a)
				}
				la.NewIndicator(raw, k.Cols())
			}
		})
		opt := ml.Options{Iters: mlIters, StepSize: 1e-6}
		mT, fT, err := timePair(sp, nm, func(t la.Matrix) error {
			_, err := ml.LogisticRegressionGD(t, yb, nil, opt)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{
			spec.Name, secs(prepM), secs(prepF), secs(mT), secs(fT),
			fmt.Sprintf("%.3f", prepM.Seconds()/math.Max(mT.Seconds(), 1e-9)),
			fmt.Sprintf("%.3f", prepF.Seconds()/math.Max(fT.Seconds(), 1e-9))})
	}
	return res, nil
}

// mnml regenerates the appendix claim that the ML-algorithm results carry
// over to M:N joins: the four algorithms on one M:N dataset.
func mnml(cfg Config) (Result, error) {
	res := Result{
		ID:     "mnml",
		Title:  "ML algorithms over an M:N join (appendix §5.2 remark)",
		Header: []string{"algo", "nU/nS", "M(s)", "F(s)", "speedup"},
	}
	nS := cfg.scaled(1500)
	for _, deg := range []float64{0.05, 0.2} {
		nU := int(deg * float64(nS))
		if nU < 1 {
			nU = 1
		}
		nm, err := datagen.MN(datagen.MNSpec{NS: nS, NR: nS, DS: 30, DR: 30, NU: nU, Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		for _, a := range mlAlgos(10, 5) {
			mT, fT, err := runAlgo(a, nm, y)
			if err != nil {
				return Result{}, err
			}
			res.Rows = append(res.Rows, []string{a.name, fmt.Sprint(deg), secs(mT), secs(fT), ratio(mT, fT)})
		}
	}
	return res, nil
}

func init() {
	register("table7", table7)
	register("table8", table8)
	register("table9", table9)
	register("table10", table10)
	register("table12", table12)
	register("mnml", mnml)
}
