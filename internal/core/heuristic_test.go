package core

import (
	"math/rand"
	"testing"

	"repro/internal/la"
)

// dimsMat is a dimension-only la.Mat stub: ComputeStats touches nothing
// but Rows/Cols, which lets the test use ORE-scale shapes that could never
// be allocated.
type dimsMat struct {
	la.Mat
	r, c int
}

func (d dimsMat) Rows() int { return d.r }
func (d dimsMat) Cols() int { return d.c }

// TestComputeStatsOREScaleNoOverflow is the regression test for the
// integer-overflow bug: at ORE scale the logical cell count nS·dCols (and
// the base-table totals) exceed what fixed-width integer arithmetic holds,
// which used to wrap Redundancy negative and silently flip the §3.7
// Advisor's notion of the storage blow-up. The products are now taken in
// float64.
func TestComputeStatsOREScaleNoOverflow(t *testing.T) {
	// nS·dCols = 2^57 · 128 = 2^64 — wraps to 0 in int64 arithmetic.
	nS := 1 << 57
	dS, dR := 8, 120
	nR := 1 << 50
	m := &NormalizedMatrix{
		s:     dimsMat{r: nS, c: dS},
		rs:    []la.Mat{dimsMat{r: nR, c: dR}},
		nRows: nS,
		dCols: dS + dR,
	}
	st := m.ComputeStats()
	if st.Redundancy <= 0 {
		t.Fatalf("Redundancy = %g, overflowed", st.Redundancy)
	}
	wantBase := float64(nS)*float64(dS) + float64(nR)*float64(dR)
	want := float64(nS) * float64(dS+dR) / wantBase
	if rel := (st.Redundancy - want) / want; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("Redundancy = %g, want %g", st.Redundancy, want)
	}
	// The huge tuple ratio must keep the Advisor on the factorized side.
	if !DefaultAdvisor().ShouldFactorize(st) {
		t.Fatal("Advisor flipped to materialized on ORE-scale redundancy")
	}
}

// randPKFKDims builds a PK-FK normalized matrix with exact dimensions.
func randPKFKDims(rng *rand.Rand, nS, dS, nR, dR int) *NormalizedMatrix {
	m, err := NewPKFK(randMat(rng, nS, dS), randIndicator(rng, nS, nR), randMat(rng, nR, dR))
	if err != nil {
		panic(err)
	}
	return m
}

func TestHeuristicRule(t *testing.T) {
	adv := DefaultAdvisor()
	// High TR, high FR: factorize.
	if !adv.ShouldFactorize(Stats{TupleRatio: 20, FeatureRatio: 4}) {
		t.Fatal("should factorize at TR=20, FR=4")
	}
	// Low TR: don't, regardless of FR.
	if adv.ShouldFactorize(Stats{TupleRatio: 2, FeatureRatio: 4}) {
		t.Fatal("should not factorize at TR=2")
	}
	// Low FR: don't.
	if adv.ShouldFactorize(Stats{TupleRatio: 20, FeatureRatio: 0.5}) {
		t.Fatal("should not factorize at FR=0.5")
	}
	// Boundary: thresholds are inclusive.
	if !adv.ShouldFactorize(Stats{TupleRatio: 5, FeatureRatio: 1}) {
		t.Fatal("boundary should factorize")
	}
}

func TestComputeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := randPKFKDims(rng, 100, 4, 10, 8)
	st := m.ComputeStats()
	if st.NS != 100 || st.NR != 10 || st.DS != 4 || st.DR != 8 {
		t.Fatalf("stats %+v", st)
	}
	if st.TupleRatio != 10 || st.FeatureRatio != 2 {
		t.Fatalf("ratios %+v", st)
	}
	// Redundancy = nS·d / (nS·dS + nR·dR) = 1200/480.
	if st.Redundancy != 1200.0/480.0 {
		t.Fatalf("redundancy %v", st.Redundancy)
	}
	if !DefaultAdvisor().Decide(m) {
		t.Fatal("advisor should factorize TR=10 FR=2")
	}
	// dS = 0 datasets report FeatureRatio = DR.
	m2, err := NewPKFK(nil, randIndicator(rng, 50, 5), randMat(rng, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.ComputeStats().FeatureRatio; got != 7 {
		t.Fatalf("dS=0 feature ratio %v", got)
	}
}
