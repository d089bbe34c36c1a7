package plan

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

func testStore(t *testing.T) *chunk.Store {
	t.Helper()
	stb, err := chunk.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := chunk.NewShardedStoreBackends([]chunk.Backend{stb}, chunk.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func randDense(rng *rand.Rand, rows, cols int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = rng.NormFloat64()
	}
	return d
}

func pmLabels(rng *rand.Rand, n int) *la.Dense {
	y := la.NewDense(n, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}
	return y
}

// buildStar assembles a chunked PK-FK star (nS×dS entity table joining an
// nR×dR attribute table) plus its materialized join output, both in the
// same store.
func buildStar(t *testing.T, rng *rand.Rand, st *chunk.Store, nS, nR, dS, dR, chunkRows int) (*chunk.NormalizedTable, *chunk.Matrix) {
	t.Helper()
	s := randDense(rng, nS, dS)
	r := randDense(rng, nR, dR)
	fk := make([]int32, nS)
	for i := range fk {
		fk[i] = int32(rng.Intn(nR))
	}
	td := la.NewDense(nS, dS+dR)
	for i := 0; i < nS; i++ {
		copy(td.Row(i)[:dS], s.Row(i))
		copy(td.Row(i)[dS:], r.Row(int(fk[i])))
	}
	sm, err := chunk.FromDense(st, s, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	fkv, err := chunk.BuildIntVector(st, fk, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := chunk.NewStarTable(sm, []chunk.AttrTable{{FK: fkv, R: r}})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := chunk.FromDense(st, td, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt, tm
}

// TestPlannedLogRegStar pins the planner-driven GLM bit-identical to the
// explicit twin it selects, on both sides of the Table 9 crossover.
func TestPlannedLogRegStar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := testStore(t)
	const iters, alpha = 4, 1e-3

	// TR = 120/8 = 15 ≥ τ, FR = 6/4 = 1.5 ≥ ρ: the planner must factorize.
	nt, tm := buildStar(t, rng, st, 120, 8, 4, 6, 16)
	y := pmLabels(rng, 120)
	env := EnvFor(st, 0, 0)
	res, d, err := LogReg(env, tm, nt, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Strategy.Factorized {
		t.Fatalf("high-TR star not factorized (%s)", d.Rule)
	}
	opt := ml.Options{Iters: iters, StepSize: alpha}
	twin, err := ml.LogRegScan(nt.Operand(chunk.Parallel()), y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(res.W, twin) != 0 {
		t.Fatal("planned factorized GLM not bit-identical to explicit twin")
	}

	// TR = 120/100 = 1.2 < τ: the planner must materialize.
	ntM, tmM := buildStar(t, rng, st, 120, 100, 4, 6, 16)
	resM, dM, err := LogReg(env, tmM, ntM, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if dM.Strategy.Factorized {
		t.Fatalf("low-TR star factorized (%s)", dM.Rule)
	}
	twinM, err := ml.LogRegScan(chunk.MatOperand(chunk.Parallel(), tmM), y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(resM.W, twinM) != 0 {
		t.Fatal("planned materialized GLM not bit-identical to explicit twin")
	}
}

// buildMN assembles a chunked M:N table with nOut output tuples over base
// tables nS×dS and nR×dR, plus the materialized join output.
func buildMN(t *testing.T, rng *rand.Rand, st *chunk.Store, nOut, nS, nR, dS, dR, chunkRows int) (*chunk.NormalizedTable, *chunk.Matrix) {
	t.Helper()
	sm, err := chunk.FromDense(st, randDense(rng, nS, dS), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := chunk.FromDense(st, randDense(rng, nR, dR), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	is := make([]int32, nOut)
	ir := make([]int32, nOut)
	for i := range is {
		is[i] = int32(rng.Intn(nS))
		ir[i] = int32(rng.Intn(nR))
	}
	isV, err := chunk.BuildIntVector(st, is, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	irV, err := chunk.BuildIntVector(st, ir, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := chunk.NewStarTable(nil, []chunk.AttrTable{{FK: isV, Disk: sm}, {FK: irV, Disk: rm}})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := mn.Materialize(chunk.Parallel())
	if err != nil {
		t.Fatal(err)
	}
	return mn, tm
}

// TestPlannedLogRegMN pins the planner-driven M:N GLM bit-identical to
// the explicit twin on both sides of the redundancy crossover.
func TestPlannedLogRegMN(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	st := testStore(t)
	const iters, alpha = 3, 1e-4
	env := EnvFor(st, 0, 0)

	// Redundancy = 240·8/(40·4+40·4) = 6 > 1: factorize.
	mn, tm := buildMN(t, rng, st, 240, 40, 40, 4, 4, 32)
	y := pmLabels(rng, 240)
	res, d, err := LogReg(env, tm, mn, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Strategy.Factorized {
		t.Fatalf("redundancy 6 not factorized (%s)", d.Rule)
	}
	opt := ml.Options{Iters: iters, StepSize: alpha}
	twin, err := ml.LogRegScan(mn.Operand(chunk.Parallel()), y, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(res.W, twin) != 0 {
		t.Fatal("planned MN factorized GLM not bit-identical to explicit twin")
	}

	// Redundancy = 30·8/(40·4+40·4) = 0.75 ≤ 1: materialize.
	mnM, tmM := buildMN(t, rng, st, 30, 40, 40, 4, 4, 32)
	yM := pmLabels(rng, 30)
	resM, dM, err := LogReg(env, tmM, mnM, yM, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if dM.Strategy.Factorized {
		t.Fatalf("redundancy 0.75 factorized (%s)", dM.Rule)
	}
	twinM, err := ml.LogRegScan(chunk.MatOperand(chunk.Parallel(), tmM), yM, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(resM.W, twinM) != 0 {
		t.Fatal("planned MN materialized GLM not bit-identical to explicit twin")
	}
}

// TestPlannedKMeansGNMF pins the planner-driven k-means and GNMF
// bit-identical to the explicit drivers they dispatch to.
func TestPlannedKMeansGNMF(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	st := testStore(t)
	m, err := chunk.FromDense(st, randDense(rng, 96, 5), 16)
	if err != nil {
		t.Fatal(err)
	}
	env := EnvFor(st, 0, 0)

	km, d, err := KMeans(env, m, 3, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy.Factorized {
		t.Fatalf("k-means planned factorized (%s)", d.Rule)
	}
	kmTwin, err := ml.KMeansScan(chunk.MatOperand(chunk.Parallel(), m), 3, ml.Options{Iters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(km.Centroids, kmTwin.Centroids) != 0 || km.Objective != kmTwin.Objective {
		t.Fatal("planned k-means not bit-identical to explicit twin")
	}

	g, _, err := GNMF(env, m, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	gTwin, err := ml.GNMFScan(chunk.MatOperand(chunk.Parallel(), m), 2, ml.Options{Iters: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(g.H, gTwin.H) != 0 {
		t.Fatal("planned GNMF not bit-identical to explicit twin")
	}
}

// TestChooseInMemory: the in-memory seam returns the normalized matrix
// when the plan is factorized and a materialized la.Matrix otherwise.
func TestChooseInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := randDense(rng, 40, 2)
	asg := make([]int, 40)
	for i := range asg {
		asg[i] = rng.Intn(4)
	}
	nm, err := core.NewPKFK(s, la.NewIndicator(asg, 4), randDense(rng, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	// TR = 40/4 = 10 ≥ τ, FR = 3/2 = 1.5 ≥ ρ: Choose hands back nm itself.
	got, d := Choose(OpGLM, Env{}, nm)
	if !d.Strategy.Factorized {
		t.Fatalf("high-TR normalized matrix not factorized (%s)", d.Rule)
	}
	if got != la.Matrix(nm) {
		t.Fatal("factorized Choose did not return the normalized matrix")
	}

	// TR = 40/40 = 1: Choose materializes; the dense output matches nm.
	nmLow, err := core.NewPKFK(s, la.NewIndicator(seqInts(40), 40), randDense(rng, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	gotLow, dLow := Choose(OpGLM, Env{}, nmLow)
	if dLow.Strategy.Factorized {
		t.Fatalf("low-TR normalized matrix factorized (%s)", dLow.Rule)
	}
	if _, isNM := gotLow.(*core.NormalizedMatrix); isNM {
		t.Fatal("materialized Choose returned the normalized matrix")
	}
	if diff := la.MaxAbsDiff(laDense(t, gotLow), nmLow.Dense()); diff != 0 {
		t.Fatalf("materialized operand deviates from nm by %g", diff)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// laDense flattens any chosen operand to *la.Dense for comparison.
func laDense(t *testing.T, m la.Matrix) *la.Dense {
	t.Helper()
	switch v := m.(type) {
	case *la.Dense:
		return v
	case *la.CSR:
		return v.Dense()
	default:
		t.Fatalf("unexpected operand type %T", m)
		return nil
	}
}

// TestWidthDeterminismPlanned: the planner sizes the worker pool from
// GOMAXPROCS (Env{Workers: 0}), so the plans differ across core counts —
// the planned fits must not. LogReg on both sides of the crossover (F and
// M), k-means and GNMF are bit-identical at widths 1, 2 and 7.
func TestWidthDeterminismPlanned(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	st := testStore(t)
	ntF, tmF := buildStar(t, rng, st, 120, 8, 4, 6, 16)   // TR 15: factorized
	ntM, tmM := buildStar(t, rng, st, 120, 100, 4, 6, 16) // TR 1.2: materialized
	y := pmLabels(rng, 120)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref []*la.Dense
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		env := EnvFor(st, 0, 0)
		f, dF, err := LogReg(env, tmF, ntF, y, 3, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		m, dM, err := LogReg(env, tmM, ntM, y, 3, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !dF.Strategy.Factorized || dM.Strategy.Factorized || dF.Strategy.Workers != procs {
			t.Fatalf("GOMAXPROCS=%d: plans %v / %v", procs, dF, dM)
		}
		km, _, err := KMeans(env, tmF, 3, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := GNMF(env, tmM, 2, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := []*la.Dense{f.W, m.W, km.Centroids, la.ColVector([]float64{km.Objective}), g.H}
		km.Assign.Free()
		g.W.Free()
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if la.MaxAbsDiff(got[i], ref[i]) != 0 {
				t.Fatalf("planned result %d differs between GOMAXPROCS 1 and %d", i, procs)
			}
		}
	}
}
