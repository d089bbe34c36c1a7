package ml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// makeJoin builds a PK-FK normalized matrix with planted structure plus its
// materialized twin and a label vector generated from planted weights.
func makeJoin(rng *rand.Rand, nS, dS, nR, dR int) (*core.NormalizedMatrix, *la.Dense, *la.Dense) {
	s := la.NewDense(nS, dS)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	r := la.NewDense(nR, dR)
	for i := range r.Data() {
		r.Data()[i] = rng.NormFloat64()
	}
	assign := make([]int, nS)
	for i := range assign {
		assign[i] = rng.Intn(nR)
	}
	nm, err := core.NewPKFK(s, la.NewIndicator(assign, nR), r)
	if err != nil {
		panic(err)
	}
	t := nm.Dense()
	// Planted weights and labels.
	wTrue := la.NewDense(dS+dR, 1)
	for i := range wTrue.Data() {
		wTrue.Data()[i] = rng.NormFloat64()
	}
	y := la.MatMul(t, wTrue)
	return nm, t, y
}

func signLabels(y *la.Dense) *la.Dense {
	out := y.Clone()
	for i, v := range out.Data() {
		if v >= 0 {
			out.Data()[i] = 1
		} else {
			out.Data()[i] = -1
		}
	}
	return out
}

// TestLogisticFactorizedMatchesMaterialized is the paper's core claim for
// §4: running the same LA script on the normalized matrix produces the same
// model as running it on the materialized join output.
func TestLogisticFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nm, td, yv := makeJoin(rng, 200, 3, 10, 5)
	y := signLabels(yv)
	opt := Options{Iters: 15, StepSize: 1e-3}
	wM, err := LogisticRegressionGD(td, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wF, err := LogisticRegressionGD(nm, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wM, wF) > 1e-9 {
		t.Fatalf("materialized vs factorized logistic weights differ by %g", la.MaxAbsDiff(wM, wF))
	}
}

func TestLogisticLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nm, td, yv := makeJoin(rng, 500, 4, 20, 4)
	y := signLabels(yv)
	w0 := la.NewDense(8, 1)
	before := LogisticLoss(td, y, w0)
	w, err := LogisticRegressionGD(nm, y, nil, Options{Iters: 500, StepSize: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	after := LogisticLoss(td, y, w)
	if after >= before {
		t.Fatalf("loss did not decrease: %g -> %g", before, after)
	}
	// Training accuracy should be well above chance on separable data.
	tw := la.MatMul(td, w)
	correct := 0
	for i := 0; i < tw.Rows(); i++ {
		if (tw.At(i, 0) >= 0) == (y.At(i, 0) > 0) {
			correct++
		}
	}
	// The join-repeated R features make T ill-conditioned, so plain GD
	// converges slowly; well above chance is what we assert.
	if acc := float64(correct) / float64(tw.Rows()); acc < 0.85 {
		t.Fatalf("training accuracy %.3f < 0.85", acc)
	}
}

func TestLogisticRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, td, y := makeJoin(rng, 50, 2, 5, 3)
	if _, err := LogisticRegressionGD(td, y, nil, Options{Iters: 0, StepSize: 1}); err == nil {
		t.Fatal("accepted zero iterations")
	}
	if _, err := LogisticRegressionGD(td, la.NewDense(49, 1), nil, Options{Iters: 1, StepSize: 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

// TestLinRegNERecoversPlantedWeights: with noiseless labels, the normal
// equations must recover the planted weights exactly (up to conditioning),
// for both execution strategies.
func TestLinRegNERecoversPlantedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nm, td, y := makeJoin(rng, 300, 3, 15, 4)
	wM, err := LinearRegressionNE(td, y)
	if err != nil {
		t.Fatal(err)
	}
	wF, err := LinearRegressionNE(nm, y)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wM, wF) > 1e-7 {
		t.Fatalf("NE materialized vs factorized differ by %g", la.MaxAbsDiff(wM, wF))
	}
	// Residual ‖Tw−y‖ must be ~0 for noiseless planted labels.
	resid := sub(la.MatMul(td, wF), y)
	if r := math.Sqrt(resid.PowDense(2).Sum()); r > 1e-6 {
		t.Fatalf("NE residual %g", r)
	}
}

func TestLinRegGDMatchesAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nm, td, y := makeJoin(rng, 150, 2, 8, 3)
	opt := Options{Iters: 20, StepSize: 1e-4}
	wM, err := LinearRegressionGD(td, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wF, err := LinearRegressionGD(nm, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wM, wF) > 1e-9 {
		t.Fatal("GD materialized vs factorized weights differ")
	}
}

func TestLinRegCofactorMatchesAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nm, td, y := makeJoin(rng, 150, 2, 8, 3)
	opt := Options{Iters: 30, StepSize: 0.1}
	wM, err := LinearRegressionCofactor(td, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	wF, err := LinearRegressionCofactor(nm, y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(wM, wF) > 1e-8 {
		t.Fatal("cofactor materialized vs factorized weights differ")
	}
	// AdaGrad on the co-factor must reduce the squared error.
	resid0 := y.PowDense(2).Sum()
	resid := sub(la.MatMul(td, wF), y).PowDense(2).Sum()
	if resid >= resid0 {
		t.Fatalf("cofactor did not reduce error: %g -> %g", resid0, resid)
	}
}

func TestKMeansFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm, td, _ := makeJoin(rng, 200, 3, 12, 4)
	opt := Options{Iters: 10, Seed: 42}
	rM, err := KMeans(td, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	rF, err := KMeans(nm, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(rM.Centroids, rF.Centroids) > 1e-7 {
		t.Fatalf("K-Means centroids differ by %g", la.MaxAbsDiff(rM.Centroids, rF.Centroids))
	}
	for i := range rM.Assign {
		if rM.Assign[i] != rF.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if math.Abs(rM.Objective-rF.Objective) > 1e-6*(1+rM.Objective) {
		t.Fatal("objectives differ")
	}
}

func TestKMeansFindsPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Two well-separated blobs.
	n := 100
	d := la.NewDense(2*n, 2)
	for i := 0; i < n; i++ {
		d.Set(i, 0, 10+rng.NormFloat64()*0.1)
		d.Set(i, 1, 10+rng.NormFloat64()*0.1)
		d.Set(n+i, 0, -10+rng.NormFloat64()*0.1)
		d.Set(n+i, 1, -10+rng.NormFloat64()*0.1)
	}
	res, err := KMeans(d, 2, Options{Iters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All points in blob 1 share a cluster; blob 2 gets the other.
	c0 := res.Assign[0]
	for i := 1; i < n; i++ {
		if res.Assign[i] != c0 {
			t.Fatal("blob 1 split across clusters")
		}
	}
	if res.Assign[n] == c0 {
		t.Fatal("blobs merged")
	}
	if res.Objective > float64(2*n)*0.1 {
		t.Fatalf("objective too high: %g", res.Objective)
	}
}

func TestKMeansValidation(t *testing.T) {
	d := la.NewDense(3, 2)
	if _, err := KMeans(d, 0, Options{Iters: 1}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := KMeans(d, 5, Options{Iters: 1}); err == nil {
		t.Fatal("accepted k > n")
	}
}

func TestGNMFFactorizedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// GNMF expects non-negative data; shift the parts positive.
	nm, _, _ := makeJoin(rng, 150, 3, 10, 4)
	nmPos := nm.Apply(func(v float64) float64 { return math.Abs(v) }).(*core.NormalizedMatrix)
	td := nmPos.Dense()
	opt := Options{Iters: 10, Seed: 11}
	rM, err := GNMF(td, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	rF, err := GNMF(nmPos, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(rM.W, rF.W) > 1e-6 || la.MaxAbsDiff(rM.H, rF.H) > 1e-6 {
		t.Fatal("GNMF factors differ across strategies")
	}
}

// reconstructionError returns ‖T − W·Hᵀ‖²_F against the materialized T.
func reconstructionError(t la.Matrix, r *GNMFResult) float64 {
	return sub(t.Dense(), la.MatMulT(r.W, r.H)).PowDense(2).Sum()
}

func TestGNMFReducesReconstructionError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	nm, _, _ := makeJoin(rng, 100, 2, 8, 3)
	nmPos := nm.Apply(math.Abs).(*core.NormalizedMatrix)
	r1, err := GNMF(nmPos, 3, Options{Iters: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r50, err := GNMF(nmPos, 3, Options{Iters: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e1 := reconstructionError(nmPos, r1)
	e50 := reconstructionError(nmPos, r50)
	if e50 >= e1 {
		t.Fatalf("GNMF error did not decrease: %g -> %g", e1, e50)
	}
	// Factors stay non-negative under multiplicative updates.
	for _, v := range r50.W.Data() {
		if v < 0 {
			t.Fatal("negative W entry")
		}
	}
	for _, v := range r50.H.Data() {
		if v < 0 {
			t.Fatal("negative H entry")
		}
	}
}

// TestStarSchemaAlgorithms runs all four algorithms on a 2-attribute-table
// star schema (the §3.5 extension) and checks factorized == materialized.
func TestStarSchemaAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nS := 150
	s := la.NewDense(nS, 2)
	for i := range s.Data() {
		s.Data()[i] = rng.NormFloat64()
	}
	ks := make([]*la.Indicator, 2)
	rs := make([]la.Mat, 2)
	for t := 0; t < 2; t++ {
		nR := 8 + t*4
		assign := make([]int, nS)
		for i := range assign {
			assign[i] = rng.Intn(nR)
		}
		ks[t] = la.NewIndicator(assign, nR)
		r := la.NewDense(nR, 3)
		for i := range r.Data() {
			r.Data()[i] = rng.NormFloat64()
		}
		rs[t] = r
	}
	nm, err := core.NewStar(s, ks, rs)
	if err != nil {
		t.Fatal(err)
	}
	td := nm.Dense()
	y := signLabels(la.MatMul(td, la.Ones(td.Cols(), 1)))

	wM, _ := LogisticRegressionGD(td, y, nil, Options{Iters: 10, StepSize: 1e-3})
	wF, _ := LogisticRegressionGD(nm, y, nil, Options{Iters: 10, StepSize: 1e-3})
	if la.MaxAbsDiff(wM, wF) > 1e-9 {
		t.Fatal("star logistic differs")
	}
	lM, _ := LinearRegressionNE(td, y)
	lF, _ := LinearRegressionNE(nm, y)
	if la.MaxAbsDiff(lM, lF) > 1e-7 {
		t.Fatal("star linreg differs")
	}
	kM, _ := KMeans(td, 4, Options{Iters: 5, Seed: 3})
	kF, _ := KMeans(nm, 4, Options{Iters: 5, Seed: 3})
	if la.MaxAbsDiff(kM.Centroids, kF.Centroids) > 1e-7 {
		t.Fatal("star kmeans differs")
	}
	nmPos := nm.Apply(math.Abs).(*core.NormalizedMatrix)
	gM, _ := GNMF(nmPos.Dense(), 2, Options{Iters: 5, Seed: 3})
	gF, _ := GNMF(nmPos, 2, Options{Iters: 5, Seed: 3})
	if la.MaxAbsDiff(gM.W, gF.W) > 1e-6 {
		t.Fatal("star gnmf differs")
	}
}

// TestWidthDeterminismLogReg: three gradient steps over a normalized
// matrix give the same bits at every worker count (ROADMAP 5a) — the
// training-level consequence of la's fixed-block reductions.
func TestWidthDeterminismLogReg(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nm, _, y := makeJoin(rand.New(rand.NewSource(90)), 12_000, 6, 400, 9)
	labels := signLabels(y)
	var first *la.Dense
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		w, err := LogisticRegressionGD(nm, labels, nil, Options{Iters: 3, StepSize: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = w
			continue
		}
		for i, v := range first.Data() {
			if g := w.Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("weight %d is %v at GOMAXPROCS=1 and %v at GOMAXPROCS=%d", i, v, g, procs)
			}
		}
	}
}

// sub returns a-b element-wise.
func sub(a, b *la.Dense) *la.Dense {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic("sub: shape mismatch")
	}
	out := a.Clone()
	for i, v := range b.Data() {
		out.Data()[i] -= v
	}
	return out
}

func TestZipOps(t *testing.T) {
	a := la.DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := la.DenseFromRows([][]float64{{5, 6}, {7, 8}})
	if got := sub(a, b).At(1, 1); got != -4 {
		t.Fatalf("sub: %v", got)
	}
}
