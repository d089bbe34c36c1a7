package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
)

// trainParams are the shapes and iteration counts of the training
// workloads (train-inmem and train-ooc share the data).
type trainParams struct {
	NS, DS, NR, DR int
	LogRegIters    int
	KMeansK        int
	KMeansIters    int
	GNMFRank       int `json:",omitempty"`
	GNMFIters      int `json:",omitempty"`
	StepSize       float64
	// Out-of-core only.
	MemBudgetBytes int64 `json:",omitempty"`
	Shards         int   `json:",omitempty"`
}

func (p trainParams) spec(seed int64) datagen.PKFKSpec {
	return datagen.PKFKSpec{NS: p.NS, DS: p.DS, NR: p.NR, DR: p.DR, Seed: seed}
}

// trainInmem is the paper's headline regime: a PK-FK join at tuple ratio
// 20 and feature ratio 4, trained in memory. la, core and ml do all the
// work; chunk, serve and table do none.
type trainInmem struct {
	p   trainParams
	nm  *core.NormalizedMatrix
	pos *core.NormalizedMatrix // |nm|: GNMF needs non-negative input
	y   *la.Dense

	first        *trainOut    // the first timed job's outputs
	shortChecked bool         // the short twin check has passed for this set-up
	fAlgoS       [4][]float64 // untraced per-algorithm seconds, for fm_speedup
}

// trainIters are the iteration counts of one job: the workload's own, or
// the short ones of the twin check every run makes.
type trainIters struct{ logreg, kmeans, gnmf int }

func (w *trainInmem) fullIters() trainIters {
	return trainIters{w.p.LogRegIters, w.p.KMeansIters, w.p.GNMFIters}
}

var shortIters = trainIters{logreg: 2, kmeans: 1, gnmf: 1}

func newTrainInmem(smoke bool) *trainInmem {
	p := trainParams{NS: 400_000, DS: 10, NR: 20_000, DR: 40,
		LogRegIters: 20, KMeansK: 10, KMeansIters: 5, GNMFRank: 5, GNMFIters: 5, StepSize: 1e-6}
	if smoke {
		p.NS, p.DS, p.NR, p.DR = 4000, 4, 200, 16
	}
	return &trainInmem{p: p}
}

func (w *trainInmem) name() string { return "train-inmem" }
func (w *trainInmem) params() any  { return w.p }

func (w *trainInmem) setup(r *run) error {
	t0 := time.Now()
	nm, err := datagen.PKFK(w.p.spec(r.seed))
	if err != nil {
		return err
	}
	w.nm = nm
	w.y = datagen.Labels(nm, 0.1, true, r.seed+1)
	w.pos = nm.Apply(math.Abs).(*core.NormalizedMatrix)
	r.set("datagen.gen_s", time.Since(t0).Seconds())
	r.set("core.tuple_ratio", w.p.spec(0).TupleRatio())
	r.set("core.feature_ratio", w.p.spec(0).FeatureRatio())
	w.first, w.shortChecked = nil, false
	return nil
}

func (w *trainInmem) teardown(*run) error {
	w.nm, w.pos, w.y, w.first = nil, nil, nil, nil
	return nil
}

// trainOut is what one training job produces.
type trainOut struct {
	wLog, wLin *la.Dense
	km         *ml.KMeansResult
	nmf        *ml.GNMFResult
	algoS      [4]float64 // seconds per algorithm, in algos order
}

// job is the workload's unit of work: ask the planner for the operand,
// then run the four algorithms on it. materialized forces the
// materialized operands instead (the reference twin).
func (w *trainInmem) job(tr *tracer, materialized bool, it trainIters) (*trainOut, error) {
	root := tr.begin(0, "job")
	defer tr.end(root)

	var op, gop la.Matrix
	if materialized {
		op, gop = w.nm.Dense(), w.pos.Dense()
	} else {
		id := tr.begin(root, "plan.choose")
		op, _ = plan.Choose(plan.OpGLM, plan.Env{}, w.nm)
		gop, _ = plan.Choose(plan.OpGNMF, plan.Env{}, w.pos)
		tr.end(id)
	}

	out := &trainOut{}
	var err error
	step := func(i int, f func(m la.Matrix) error, operand la.Matrix) error {
		id := tr.begin(root, "ml."+algos[i])
		t0 := time.Now()
		err := f(traceOperand(operand, tr, id))
		out.algoS[i] = time.Since(t0).Seconds()
		tr.end(id)
		return err
	}
	if err = step(0, func(m la.Matrix) (err error) {
		out.wLog, err = ml.LogisticRegressionGD(m, w.y, nil, ml.Options{Iters: it.logreg, StepSize: w.p.StepSize})
		return err
	}, op); err != nil {
		return nil, err
	}
	if err = step(1, func(m la.Matrix) (err error) {
		out.wLin, err = ml.LinearRegressionNE(m, w.y)
		return err
	}, op); err != nil {
		return nil, err
	}
	if err = step(2, func(m la.Matrix) (err error) {
		out.km, err = ml.KMeans(m, w.p.KMeansK, ml.Options{Iters: it.kmeans, Seed: 7})
		return err
	}, op); err != nil {
		return nil, err
	}
	if err = step(3, func(m la.Matrix) (err error) {
		out.nmf, err = ml.GNMF(m, w.p.GNMFRank, ml.Options{Iters: it.gnmf, Seed: 11})
		return err
	}, gop); err != nil {
		return nil, err
	}
	return out, nil
}

// trainTol bounds the difference between a training result and its
// reference, as a share of the reference's largest entry (at least 1):
// the two sum the same terms in different orders.
const trainTol = 1e-9

func relDiff(got, want *la.Dense) float64 {
	scale := 1.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	return la.MaxAbsDiff(got, want) / scale
}

func checkDense(what string, got, want *la.Dense, tol float64) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("%s: shape %dx%d, reference %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	if d := relDiff(got, want); !(d <= tol) {
		return fmt.Errorf("%s differs from its reference by %g (limit %g)", what, d, tol)
	}
	return nil
}

func (o *trainOut) check(ref *trainOut, tol float64) error {
	for _, c := range []struct {
		what      string
		got, want *la.Dense
	}{
		{"logreg weights", o.wLog, ref.wLog},
		{"linreg weights", o.wLin, ref.wLin},
		{"k-means centroids", o.km.Centroids, ref.km.Centroids},
		{"gnmf W", o.nmf.W, ref.nmf.W},
		{"gnmf H", o.nmf.H, ref.nmf.H},
	} {
		if err := checkDense(c.what, c.got, c.want, tol); err != nil {
			return err
		}
	}
	if d := math.Abs(o.km.Objective-ref.km.Objective) / math.Max(1, math.Abs(ref.km.Objective)); !(d <= tol) {
		return fmt.Errorf("k-means objective differs from its reference by %g", d)
	}
	return nil
}

func (w *trainInmem) measure(r *run, tr *tracer, d time.Duration) (opStats, error) {
	var st opStats
	if _, err := w.job(nil, false, w.fullIters()); err != nil { // warm-up
		return st, err
	}
	var first, out *trainOut
	var algoS [4][]float64
	lat, err := repeatFor(tr, d, func() (err error) {
		out, err = w.job(tr, false, w.fullIters())
		return err
	}, func(rep int) error {
		for i, s := range out.algoS {
			algoS[i] = append(algoS[i], s)
		}
		if first == nil {
			first = out
		} else if err := out.check(first, 0); err != nil {
			return fmt.Errorf("job %d is not a repeat of job 0: %w", rep, err)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.summary, st.Attempted = summarizeSequential(lat), len(lat)
	st.PeakRSSMB = peakRSSMB()

	// Every timed job repeated the first bit for bit; the first few
	// iterations of that job are now held against the materialized twin.
	// The full-length twin costs four jobs' time, so it runs in the traced
	// run only (probes), which needs its timings anyway.
	w.first = first
	if !w.shortChecked {
		f, err := w.job(nil, false, shortIters)
		if err != nil {
			return st, err
		}
		m, err := w.job(nil, true, shortIters)
		if err != nil {
			return st, err
		}
		if err := f.check(m, trainTol); err != nil {
			return st, fmt.Errorf("factorized vs materialized (short twin): %w", err)
		}
		w.shortChecked = true
	}

	if tr == nil {
		w.fAlgoS = algoS
		return st, nil
	}
	reps := float64(len(lat))
	agg := aggregate(tr.snapshot())
	iters := []int{w.p.LogRegIters, 1, w.p.KMeansIters, w.p.GNMFIters}
	for i, a := range algos {
		r.set("ml."+a+"_s", agg["ml."+a].seconds()/reps)
		r.set("ml."+a+"_self_s", agg["ml."+a].selfSeconds()/reps)
		r.set("ml."+a+"_iters", float64(iters[i]))
	}
	for _, o := range coreOps {
		r.set("core."+o+"_s", agg["core."+o].seconds()/reps)
		r.set("core."+o+"_calls", float64(agg["core."+o].Count)/reps)
	}
	return st, nil
}

func (w *trainInmem) probes(r *run, _ *tracer) error {
	planProbe(r, plan.OpGLM, plan.InMemoryOperands(w.nm), plan.Env{})

	roofline(r, roofShapes{dense: w.nm.S().Dense(), ind: w.nm.Ks()[0]})

	r.set("core.materialize_s", medianTime(3, func() { w.nm.Dense() }))
	twin, err := w.job(nil, true, w.fullIters())
	if err != nil {
		return err
	}
	if err := w.first.check(twin, trainTol); err != nil {
		return fmt.Errorf("factorized vs materialized: %w", err)
	}
	for i, a := range algos {
		if f := median(w.fAlgoS[i]); f > 0 {
			r.set("core.fm_speedup_"+a, twin.algoS[i]/f)
			r.notef("core.fm_speedup_%s = materialized %.4f s (one run) / factorized %.4f s (median)", a, twin.algoS[i], f)
		}
	}
	return exprProbe(r, w.nm, w.y, twin.wLin)
}

// planProbe times plan.Plan on the workload's operands: the median of
// 1000 decisions, and what was decided.
func planProbe(r *run, op plan.Op, o plan.Operands, env plan.Env) plan.Decision {
	us := make([]float64, 1000)
	var d plan.Decision
	for i := range us {
		t0 := time.Now()
		d = plan.Plan(op, o, env)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	r.set("plan.decide_us", median(us))
	fact := 0.0
	if d.Strategy.Factorized {
		fact = 1
	}
	r.set("plan.factorized", fact)
	r.set("plan.chunk_rows", float64(d.Strategy.ChunkRows))
	r.notef("plan: %s", d)
	return d
}

// exprProbe runs the normal-equations script through the expression
// layer: t(T) %*% T and t(T) %*% y are built naively, optimized (the
// first becomes crossprod(T)) and evaluated over the normalized matrix;
// the solve must reproduce the reference weights.
func exprProbe(r *run, nm *core.NormalizedMatrix, y, want *la.Dense) error {
	t, yl := expr.NewLeaf("T", nm), expr.NewLeaf("y", y)
	t0 := time.Now()
	gram := expr.Optimize(expr.Mul(expr.Transpose(t), t))
	rhs := expr.Optimize(expr.Mul(expr.Transpose(t), yl))
	r.set("expr.optimize_us", float64(time.Since(t0).Nanoseconds())/1e3)
	if _, ok := gram.(*expr.CrossProdExpr); !ok {
		return fmt.Errorf("expr: t(T) %%*%% T optimized to %s, want crossprod(T)", gram)
	}
	t0 = time.Now()
	cp, tty := gram.Eval().Dense(), rhs.Eval().Dense()
	r.set("expr.eval_s", time.Since(t0).Seconds())
	got, err := la.SolveSPD(cp, tty)
	if err != nil {
		return fmt.Errorf("expr: normal equations: %w", err)
	}
	return checkDense("expr normal-equations weights", got, want, trainTol)
}
