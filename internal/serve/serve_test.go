package serve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
)

// Weights returns a copy of the current d×1 weight vector.
func (s *Scorer) Weights() *la.Dense { return s.gen.Load().w.Clone() }

// Owns reports whether row id belongs to this scorer's slice.
func (s *Scorer) Owns(id int) bool {
	return id >= 0 && id < s.rows && id%s.of == s.shard
}

// CacheRows reports how many entity-side partial entries this scorer
// holds — the sliced footprint a fleet memory audit sums.
func (s *Scorer) CacheRows() int { return len(s.gen.Load().sw) }

// Version reports the epoch the scorer currently serves. Over a store it
// advances synchronously with Store.Commit; over an immutable matrix it
// is always 0.
func (s *Scorer) Version() epoch.Version { return s.gen.Load().version }

// diffTol is the differential-test budget: the scorer accumulates partial
// sums in a different order than the materialized dot product, so exact
// equality is not guaranteed, but on the small random inputs here the two
// must agree far tighter than 1e-12.
const diffTol = 1e-12

// randMat returns a random base-table matrix, dense or sparse per the flag.
func randMat(rng *rand.Rand, rows, cols int, sparse bool) la.Mat {
	d := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	if sparse {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.6 {
					d.Set(i, j, 0)
				}
			}
		}
		return la.CSRFromDense(d)
	}
	return d
}

func randIndicator(rng *rand.Rand, rows, cols int) *la.Indicator {
	assign := make([]int, rows)
	for i := range assign {
		assign[i] = rng.Intn(cols)
	}
	return la.NewIndicator(assign, cols)
}

func randWeights(rng *rand.Rand, d int) *la.Dense {
	w := la.NewDense(d, 1)
	for i := 0; i < d; i++ {
		w.Set(i, 0, rng.NormFloat64())
	}
	return w
}

// randPKFK builds a random single-join normalized matrix with dense or
// sparse base tables.
func randPKFK(rng *rand.Rand, sparse bool) *core.NormalizedMatrix {
	nS := 10 + rng.Intn(40)
	nR := 2 + rng.Intn(8)
	var s la.Mat
	if rng.Intn(4) > 0 { // occasionally dS = 0
		s = randMat(rng, nS, 1+rng.Intn(6), sparse)
	}
	m, err := core.NewPKFK(s, randIndicator(rng, nS, nR), randMat(rng, nR, 1+rng.Intn(6), sparse))
	if err != nil {
		panic(err)
	}
	return m
}

// randStar builds a random star-schema normalized matrix with 2-3 tables.
func randStar(rng *rand.Rand, sparse bool) *core.NormalizedMatrix {
	nS := 10 + rng.Intn(40)
	q := 2 + rng.Intn(2)
	var s la.Mat
	if rng.Intn(4) > 0 {
		s = randMat(rng, nS, 1+rng.Intn(5), sparse)
	}
	ks := make([]*la.Indicator, q)
	rs := make([]la.Mat, q)
	for i := 0; i < q; i++ {
		nR := 2 + rng.Intn(7)
		ks[i] = randIndicator(rng, nS, nR)
		rs[i] = randMat(rng, nR, 1+rng.Intn(5), sparse)
	}
	m, err := core.NewStar(s, ks, rs)
	if err != nil {
		panic(err)
	}
	return m
}

// randMN builds a random two-table M:N normalized matrix.
func randMN(rng *rand.Rand, sparse bool) *core.NormalizedMatrix {
	nS := 5 + rng.Intn(15)
	nR := 5 + rng.Intn(15)
	nU := 2 + rng.Intn(5)
	jS := make([]int, nS)
	jR := make([]int, nR)
	for i := range jS {
		jS[i] = rng.Intn(nU)
	}
	for i := range jR {
		jR[i] = rng.Intn(nU)
	}
	var isAssign, irAssign []int
	for i, a := range jS {
		for j, b := range jR {
			if a == b {
				isAssign = append(isAssign, i)
				irAssign = append(irAssign, j)
			}
		}
	}
	if len(isAssign) == 0 {
		jR[0] = jS[0]
		isAssign = append(isAssign, 0)
		irAssign = append(irAssign, 0)
	}
	m, err := core.NewMN(randMat(rng, nS, 1+rng.Intn(5), sparse),
		la.NewIndicator(isAssign, nS), la.NewIndicator(irAssign, nR),
		randMat(rng, nR, 1+rng.Intn(5), sparse))
	if err != nil {
		panic(err)
	}
	return m
}

// schemaGens enumerates every schema kind × storage class combination the
// scorer must match the ML predictors on.
func schemaGens() map[string]func(*rand.Rand) *core.NormalizedMatrix {
	return map[string]func(*rand.Rand) *core.NormalizedMatrix{
		"pkfk/dense": func(r *rand.Rand) *core.NormalizedMatrix { return randPKFK(r, false) },
		"pkfk/csr":   func(r *rand.Rand) *core.NormalizedMatrix { return randPKFK(r, true) },
		"star/dense": func(r *rand.Rand) *core.NormalizedMatrix { return randStar(r, false) },
		"star/csr":   func(r *rand.Rand) *core.NormalizedMatrix { return randStar(r, true) },
		"mn/dense":   func(r *rand.Rand) *core.NormalizedMatrix { return randMN(r, false) },
		"mn/csr":     func(r *rand.Rand) *core.NormalizedMatrix { return randMN(r, true) },
	}
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestDifferentialAgainstPredict is the central serving property test: for
// every schema kind and storage class, ScoreBatch over all rows must equal
// ml.PredictLinear / ml.PredictLogistic on the materialized matrix, and
// ScoreRow must equal ScoreBatch, including with transposed (1×d) weights.
func TestDifferentialAgainstPredict(t *testing.T) {
	for name, gen := range schemaGens() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			for trial := 0; trial < 20; trial++ {
				nm := gen(rng)
				md := nm.Dense()
				w := randWeights(rng, nm.Cols())
				for _, head := range []Head{Linear, Logistic} {
					// Exercise the transposed-weight constructor path on
					// alternating trials.
					wIn := w
					if trial%2 == 1 {
						wIn = w.TDense()
					}
					sc, err := NewScorer(nm, wIn, head)
					if err != nil {
						t.Fatalf("%v head: %v", head, err)
					}
					var want *la.Dense
					if head == Linear {
						want = ml.PredictLinear(md, w)
					} else {
						want = ml.PredictLogistic(md, w)
					}
					got, err := sc.ScoreBatch(allIDs(nm.Rows()))
					if err != nil {
						t.Fatal(err)
					}
					for i, g := range got {
						if math.Abs(g-want.At(i, 0)) > diffTol {
							t.Fatalf("%v head row %d: scorer %.17g, predict %.17g", head, i, g, want.At(i, 0))
						}
					}
					// Single-row path and ScoreAll agree with the batch path.
					all := sc.ScoreAll()
					for _, i := range []int{0, nm.Rows() / 2, nm.Rows() - 1} {
						one, err := sc.ScoreRow(i)
						if err != nil {
							t.Fatal(err)
						}
						if one != got[i] || all[i] != got[i] {
							t.Fatalf("row %d: ScoreRow %.17g, ScoreAll %.17g, ScoreBatch %.17g", i, one, all[i], got[i])
						}
					}
				}
			}
		})
	}
}

// TestQuickScorerMatchesFactorizedPredict mirrors core/quick_test.go: for
// arbitrary seeds, the cached-partial scorer must match the factorized
// predictor run directly on the normalized matrix.
func TestQuickScorerMatchesFactorizedPredict(t *testing.T) {
	gens := []func(*rand.Rand) *core.NormalizedMatrix{
		func(r *rand.Rand) *core.NormalizedMatrix { return randPKFK(r, r.Intn(2) == 0) },
		func(r *rand.Rand) *core.NormalizedMatrix { return randStar(r, r.Intn(2) == 0) },
		func(r *rand.Rand) *core.NormalizedMatrix { return randMN(r, r.Intn(2) == 0) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := gens[rng.Intn(len(gens))](rng)
		w := randWeights(rng, nm.Cols())
		head := Head(rng.Intn(2))
		sc, err := NewScorer(nm, w, head)
		if err != nil {
			return false
		}
		var want *la.Dense
		if head == Linear {
			want = ml.PredictLinear(nm, w)
		} else {
			want = ml.PredictLogistic(nm, w)
		}
		got, err := sc.ScoreBatch(allIDs(nm.Rows()))
		if err != nil {
			return false
		}
		for i, g := range got {
			if math.Abs(g-want.At(i, 0)) > diffTol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateWeightsMatchesFreshScorer checks that weight swaps fully
// invalidate the partial cache.
func TestUpdateWeightsMatchesFreshScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nm := randStar(rng, true)
	w1 := randWeights(rng, nm.Cols())
	w2 := randWeights(rng, nm.Cols())
	sc, err := NewScorer(nm, w1, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.UpdateWeights(w2.TDense()); err != nil { // transposed update
		t.Fatal(err)
	}
	fresh, err := NewScorer(nm, w2, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.ScoreBatch(allIDs(nm.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ScoreBatch(allIDs(nm.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: updated %.17g, fresh %.17g", i, got[i], want[i])
		}
	}
	if la.MaxAbsDiff(sc.Weights(), w2) != 0 {
		t.Fatal("Weights() does not reflect the update")
	}
}

// TestScorerTrainedModelEndToEnd trains logistic regression factorized and
// checks the scorer reproduces the training-time predictions.
func TestScorerTrainedModelEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm := randPKFK(rng, false)
	y := la.NewDense(nm.Rows(), 1)
	for i := 0; i < y.Rows(); i++ {
		if rng.Intn(2) == 0 {
			y.Set(i, 0, 1)
		} else {
			y.Set(i, 0, -1)
		}
	}
	w, err := ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: 15, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScorer(nm, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	want := ml.PredictLogistic(nm, w)
	got, err := sc.ScoreBatch(allIDs(nm.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if math.Abs(g-want.At(i, 0)) > diffTol {
			t.Fatalf("row %d: %.17g vs %.17g", i, g, want.At(i, 0))
		}
	}
}

func TestScorerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nm := randPKFK(rng, false)
	w := randWeights(rng, nm.Cols())
	if _, err := NewScorer(nil, w, Linear); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := NewScorer(nm, nil, Linear); err == nil {
		t.Fatal("nil weights accepted")
	}
	if _, err := NewScorer(nm, randWeights(rng, nm.Cols()+1), Linear); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	if _, err := NewScorer(nm, la.NewDense(nm.Cols(), 2), Linear); err == nil {
		t.Fatal("two-column weights accepted")
	}
	if _, err := NewScorer(nm.Transpose(), w, Linear); err == nil {
		t.Fatal("transposed matrix accepted")
	}
	if _, err := NewScorer(nm, w, Head(99)); err == nil {
		t.Fatal("unknown head accepted")
	}
	sc, err := NewScorer(nm, w, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScoreRow(-1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := sc.ScoreRow(nm.Rows()); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := sc.ScoreBatch([]int{0, nm.Rows()}); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if err := sc.UpdateWeights(randWeights(rng, nm.Cols()-1)); err == nil {
		t.Fatal("wrong-length weight update accepted")
	}
	// 1×1 weight for a 1-feature matrix is both d×1 and 1×d; must work.
	one, err := core.NewPKFK(nil, la.NewIndicator([]int{0, 0}, 1), la.NewDenseData(1, 1, []float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	oneSc, err := NewScorer(one, la.NewDenseData(1, 1, []float64{3}), Linear)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := oneSc.ScoreRow(0); err != nil || v != 6 {
		t.Fatalf("1x1 score = %g, %v; want 6", v, err)
	}
}
