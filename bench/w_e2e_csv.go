package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/table"
)

// csvParams are the row counts and category counts of the e2e-csv star
// schema: Orders references Customers and Carriers.
type csvParams struct {
	Orders, Customers, Carriers int
	Cities, Segments, Modes     int // levels of the categorical columns
	LogRegIters                 int
	StepSize                    float64
}

// e2eCSV is "end to end" as one number: CSV bytes → typed tables →
// normalized matrix → planned training → a scoring fleet → every row
// scored and checked. It is the only workload where table ingest
// dominates, and it meets la/core through one-hot CSR tables at tuple
// ratio 3 (where the advisor may pick the materialized operand) and serve
// through bulk ScoreAll.
type e2eCSV struct {
	p                          csvParams
	orders, customers, carries []byte // rendered CSV
	last                       *flowOut
}

func newE2ECSV(smoke bool) *e2eCSV {
	p := csvParams{Orders: 600_000, Customers: 200_000, Carriers: 500,
		Cities: 500, Segments: 50, Modes: 40, LogRegIters: 20, StepSize: 1e-6}
	if smoke {
		p.Orders, p.Customers, p.Carriers, p.Cities, p.Segments, p.Modes = 3000, 1000, 20, 25, 5, 4
	}
	return &e2eCSV{p: p}
}

func (w *e2eCSV) name() string { return "e2e-csv" }
func (w *e2eCSV) params() any  { return w.p }

// foreignKeys draws n references into [0, domain): every key appears at
// least once (the join leaves no attribute tuple out), the rest are
// uniform, and the order is shuffled.
func foreignKeys(rng *rand.Rand, n, domain int) []int {
	fk := make([]int, n)
	for i := range fk {
		if i < domain {
			fk[i] = i
		} else {
			fk[i] = rng.Intn(domain)
		}
	}
	rng.Shuffle(n, func(i, j int) { fk[i], fk[j] = fk[j], fk[i] })
	return fk
}

// setup renders the three tables to CSV bytes from the seed. The target
// follows a planted linear model over features of all three tables, so
// the trained model has something to find.
func (w *e2eCSV) setup(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	p := w.p
	num := func(b *bytes.Buffer, v float64) {
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), v, 'f', 4, 64))
	}

	var car bytes.Buffer
	carRating := make([]float64, p.Carriers)
	car.WriteString("CarrierID,Capacity,Rating,Mode\n")
	for i := 0; i < p.Carriers; i++ {
		carRating[i] = rng.NormFloat64()
		fmt.Fprintf(&car, "k%d,", i)
		num(&car, rng.NormFloat64())
		car.WriteByte(',')
		num(&car, carRating[i])
		fmt.Fprintf(&car, ",m%d\n", rng.Intn(p.Modes))
	}

	var cus bytes.Buffer
	cusIncome := make([]float64, p.Customers)
	cus.WriteString("CustomerID,Age,Income,City,Segment\n")
	for i := 0; i < p.Customers; i++ {
		cusIncome[i] = rng.NormFloat64()
		fmt.Fprintf(&cus, "c%d,", i)
		num(&cus, rng.NormFloat64())
		cus.WriteByte(',')
		num(&cus, cusIncome[i])
		fmt.Fprintf(&cus, ",city%d,seg%d\n", rng.Intn(p.Cities), rng.Intn(p.Segments))
	}

	var ord bytes.Buffer
	cusFK := foreignKeys(rng, p.Orders, p.Customers)
	carFK := foreignKeys(rng, p.Orders, p.Carriers)
	ord.WriteString("Late,Qty,Weight,CustomerID,CarrierID\n")
	for i := 0; i < p.Orders; i++ {
		qty, weight := rng.NormFloat64(), rng.NormFloat64()
		score := 0.8*qty - 0.5*weight + 0.6*cusIncome[cusFK[i]] - 0.7*carRating[carFK[i]] + 0.3*rng.NormFloat64()
		if score >= 0 {
			ord.WriteString("1,")
		} else {
			ord.WriteString("-1,")
		}
		num(&ord, qty)
		ord.WriteByte(',')
		num(&ord, weight)
		fmt.Fprintf(&ord, ",c%d,k%d\n", cusFK[i], carFK[i])
	}
	w.orders, w.customers, w.carries = ord.Bytes(), cus.Bytes(), car.Bytes()
	w.last = nil
	return nil
}

func (w *e2eCSV) teardown(*run) error {
	w.orders, w.customers, w.carries, w.last = nil, nil, nil, nil
	return nil
}

// flowOut is what one CSV-to-predictions flow produces, with the phase
// timings both passes keep.
type flowOut struct {
	weights    *la.Dense
	preds      []float64
	star       roofShapes // the la kernels' operands, for the roofline
	rows       int
	readS      float64
	buildS     float64
	fleetS     float64
	updateMs   float64
	scoreAllS  float64
	factorized bool
	operands   plan.Operands
}

// flow is the workload's unit of work.
func (w *e2eCSV) flow(tr *tracer) (*flowOut, error) {
	root := tr.begin(0, "flow")
	defer tr.end(root)
	out := &flowOut{}

	read := func(name string, data []byte, kinds map[string]table.ColumnKind) (*table.Table, error) {
		id := tr.begin(root, "table.readcsv")
		t0 := time.Now()
		t, err := table.ReadCSV(name, bytes.NewReader(data), kinds)
		out.readS += time.Since(t0).Seconds()
		tr.end(id)
		if err == nil {
			out.rows += t.NumRows()
		}
		return t, err
	}
	orders, err := read("Orders", w.orders, map[string]table.ColumnKind{"CustomerID": table.Key, "CarrierID": table.Key})
	if err != nil {
		return nil, err
	}
	customers, err := read("Customers", w.customers, map[string]table.ColumnKind{
		"CustomerID": table.Key, "City": table.Categorical, "Segment": table.Categorical})
	if err != nil {
		return nil, err
	}
	carriers, err := read("Carriers", w.carries, map[string]table.ColumnKind{"CarrierID": table.Key, "Mode": table.Categorical})
	if err != nil {
		return nil, err
	}

	id := tr.begin(root, "table.build")
	t0 := time.Now()
	nm, y, _, err := table.Build(table.JoinSpec{
		Entity: orders, EntityFeatures: []string{"Qty", "Weight"}, Target: "Late",
		Attributes: []table.AttributeRef{
			{Table: customers, PrimaryKey: "CustomerID", ForeignKey: "CustomerID", Features: []string{"Age", "Income", "City", "Segment"}},
			{Table: carriers, PrimaryKey: "CarrierID", ForeignKey: "CarrierID", Features: []string{"Capacity", "Rating", "Mode"}},
		},
	})
	out.buildS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.star = roofShapes{dense: nm.S().Dense(), ind: nm.Ks()[0]}
	out.star.csr, _ = nm.Rs()[0].(*la.CSR)
	out.operands = plan.InMemoryOperands(nm)

	id = tr.begin(root, "plan.choose")
	op, dec := plan.Choose(plan.OpGLM, plan.Env{}, nm)
	tr.end(id)
	out.factorized = dec.Strategy.Factorized

	id = tr.begin(root, "ml.logreg")
	if out.factorized {
		// The operator split is core's only when the planner chose the
		// normalized operand.
		op = traceOperand(op, tr, id)
	}
	out.weights, err = ml.LogisticRegressionGD(op, y, nil, ml.Options{Iters: w.p.LogRegIters, StepSize: w.p.StepSize})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin(root, "serve.build")
	t0 = time.Now()
	rt, err := serve.NewScorerFleet(nm, la.NewDense(nm.Cols(), 1), serve.Logistic, clients(), serve.HashSharded)
	out.fleetS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(root, "serve.update_weights")
	t0 = time.Now()
	err = rt.UpdateWeights(out.weights)
	out.updateMs = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(root, "serve.scoreall")
	t0 = time.Now()
	out.preds = rt.ScoreAll()
	out.scoreAllS = time.Since(t0).Seconds()
	tr.end(id)

	id = tr.begin(root, "check")
	defer tr.end(id)
	want := ml.PredictLogistic(nm, out.weights).Data()
	for i := range want {
		if diff := math.Abs(out.preds[i] - want[i]); !(diff <= scoreTol) {
			return nil, fmt.Errorf("row %d: fleet predicts %g, ml.PredictLogistic %g (off by %g)", i, out.preds[i], want[i], diff)
		}
	}
	return out, nil
}

func (w *e2eCSV) measure(r *run, tr *tracer, d time.Duration) (opStats, error) {
	var st opStats
	if _, err := w.flow(nil); err != nil { // warm-up
		return st, err
	}
	var first, out *flowOut
	var flows []*flowOut
	lat, err := repeatFor(tr, d, func() (err error) {
		out, err = w.flow(tr)
		return err
	}, func(rep int) error {
		flows = append(flows, out)
		out.preds = nil // checked inside the flow; do not hold every flow's predictions
		if first == nil {
			first = out
		} else if err := checkDense("flow weights", out.weights, first.weights, 0); err != nil {
			return fmt.Errorf("flow %d is not a repeat of flow 0: %w", rep, err)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.summary, st.Attempted = summarizeSequential(lat), len(lat)
	st.PeakRSSMB = peakRSSMB()
	w.last = first

	if tr == nil {
		return st, nil
	}
	col := func(f func(*flowOut) float64) float64 { return medianOf(flows, f) }
	reps := float64(len(flows))
	csvMB := float64(len(w.orders)+len(w.customers)+len(w.carries)) / 1e6
	readS := col(func(f *flowOut) float64 { return f.readS })
	r.set("table.readcsv_s", readS)
	r.set("table.readcsv_mb_per_s", csvMB/readS)
	r.set("table.build_s", col(func(f *flowOut) float64 { return f.buildS }))
	r.set("table.rows", float64(first.rows))
	r.set("serve.build_s", col(func(f *flowOut) float64 { return f.fleetS }))
	r.set("serve.update_weights_ms", col(func(f *flowOut) float64 { return f.updateMs }))
	r.set("serve.scoreall_rows_per_s", float64(w.p.Orders)/col(func(f *flowOut) float64 { return f.scoreAllS }))
	agg := aggregate(tr.snapshot())
	r.set("ml.logreg_s", agg["ml.logreg"].seconds()/reps)
	r.set("ml.logreg_self_s", agg["ml.logreg"].selfSeconds()/reps)
	r.set("ml.logreg_iters", float64(w.p.LogRegIters))
	for _, o := range coreOps {
		r.set("core."+o+"_s", agg["core."+o].seconds()/reps)
		r.set("core."+o+"_calls", float64(agg["core."+o].Count)/reps)
	}
	return st, nil
}

func (w *e2eCSV) probes(r *run, _ *tracer) error {
	st := w.last.operands.Stats
	r.set("core.tuple_ratio", st.TupleRatio)
	r.set("core.feature_ratio", st.FeatureRatio)
	planProbe(r, plan.OpGLM, w.last.operands, plan.Env{})
	roofline(r, w.last.star)
	return nil
}
