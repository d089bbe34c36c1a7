package ml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/la"
)

// TestBadWarmStartIsAnError: a mis-shaped w0 is an error from every entry
// point that takes one, not a panic — the chunked callers reach it too.
func TestBadWarmStartIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nm, _, y := makeJoin(rng, 40, 3, 5, 2)
	opt := Options{Iters: 2, StepSize: 1e-3}
	fits := map[string]func(w0 *la.Dense) (*la.Dense, error){
		"LogisticRegressionGD":     func(w0 *la.Dense) (*la.Dense, error) { return LogisticRegressionGD(nm, signLabels(y), w0, opt) },
		"LinearRegressionGD":       func(w0 *la.Dense) (*la.Dense, error) { return LinearRegressionGD(nm, y, w0, opt) },
		"LinearRegressionCofactor": func(w0 *la.Dense) (*la.Dense, error) { return LinearRegressionCofactor(nm, y, w0, opt) },
	}
	shapes := map[string]*la.Dense{
		"wrong rows": la.NewDense(nm.Cols()+1, 1),
		"wrong cols": la.NewDense(nm.Cols(), 2),
	}
	for name, fit := range fits {
		for what, w0 := range shapes {
			w, err := fit(w0)
			if err == nil || w != nil {
				t.Errorf("%s accepted a w0 with %s (w=%v, err=%v)", name, what, w, err)
			}
		}
		if _, err := fit(la.NewDense(nm.Cols(), 1)); err != nil {
			t.Errorf("%s rejected a well-shaped w0: %v", name, err)
		}
	}
}

// opaque hides its matrix behind the la.Matrix methods: there is no
// concrete type for an algorithm (or the scan adapter) to assert on, and
// every derived operand stays opaque too.
type opaque struct{ m la.Matrix }

func (o opaque) Rows() int                               { return o.m.Rows() }
func (o opaque) Cols() int                               { return o.m.Cols() }
func (o opaque) T() la.Matrix                            { return opaque{o.m.T()} }
func (o opaque) Scale(x float64) la.Matrix               { return opaque{o.m.Scale(x)} }
func (o opaque) AddScalar(x float64) la.Matrix           { return opaque{o.m.AddScalar(x)} }
func (o opaque) Pow(p float64) la.Matrix                 { return opaque{o.m.Pow(p)} }
func (o opaque) Apply(f func(float64) float64) la.Matrix { return opaque{o.m.Apply(f)} }
func (o opaque) RowSums() *la.Dense                      { return o.m.RowSums() }
func (o opaque) ColSums() *la.Dense                      { return o.m.ColSums() }
func (o opaque) Sum() float64                            { return o.m.Sum() }
func (o opaque) Mul(x *la.Dense) *la.Dense               { return o.m.Mul(x) }
func (o opaque) LeftMul(x *la.Dense) *la.Dense           { return o.m.LeftMul(x) }
func (o opaque) CrossProd() *la.Dense                    { return o.m.CrossProd() }
func (o opaque) Ginv() *la.Dense                         { return o.m.Ginv() }
func (o opaque) Dense() *la.Dense                        { return o.m.Dense() }

// TestInMemoryCSRNoTranspose: on a CSR operand the in-memory scan reduces
// Tᵀ·P with CSR.TMul instead of multiplying through a transposed copy. The
// weights stay within 1e-12 of the transposed path (an opaque wrapper still
// takes it), and a fit allocates less than the 12 bytes per stored entry
// the copy alone would cost.
func TestInMemoryCSRNoTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, d = 20_000, 200
	b := la.NewCSRBuilder(n, d)
	y := la.NewDense(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if rng.Intn(10) == 0 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		y.Set(i, 0, float64(2*rng.Intn(2)-1))
	}
	c := b.Build()
	opt := Options{Iters: 2, StepSize: 1e-3}
	fit := func(m la.Matrix) (*la.Dense, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := LogisticRegressionGD(m, y, nil, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return w, after.TotalAlloc - before.TotalAlloc
	}
	want, viaCopy := fit(opaque{c})
	got, bytes := fit(c)
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := la.MaxAbsDiff(got, want) / scale; !(d <= 1e-12) {
		t.Errorf("CSR.TMul weights differ from the transposed path's by %g relative", d)
	}
	if limit := uint64(12 * c.NNZ()); bytes >= limit || viaCopy < limit {
		t.Errorf("a fit allocates %d B, %d B through the transpose; want < %d B, the copy's size, only without it", bytes, viaCopy, limit)
	}
}

// TestOpaqueMatrixRunsEveryAlgorithm: the in-memory entry points use
// nothing but the la.Matrix contract, so a wrapper with no concrete type
// behind it (bench/'s tracedMatrix is one) gets bit-identical results.
func TestOpaqueMatrixRunsEveryAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nm, _, y := makeJoin(rng, 60, 3, 6, 4)
	pos := nm.Apply(math.Abs)
	opt := Options{Iters: 3, StepSize: 1e-3, Seed: 3}
	for name, run := range map[string]func(t la.Matrix) []*la.Dense{
		"logreg": func(t la.Matrix) []*la.Dense {
			w, _ := LogisticRegressionGD(t, signLabels(y), nil, opt)
			return []*la.Dense{w}
		},
		"linreg": func(t la.Matrix) []*la.Dense {
			gd, _ := LinearRegressionGD(t, y, nil, opt)
			ne, _ := LinearRegressionNE(t, y)
			co, _ := LinearRegressionCofactor(t, y, nil, opt)
			ri, _ := RidgeRegression(t, y, 0.3)
			return []*la.Dense{gd, ne, co, ri}
		},
		"pca": func(t la.Matrix) []*la.Dense {
			r, _ := PCA(t, 2)
			return []*la.Dense{r.Components, la.ColVector(r.Variances)}
		},
		"kmeans": func(t la.Matrix) []*la.Dense {
			r, _ := KMeans(t, 3, opt)
			return []*la.Dense{r.Centroids, la.ColVector([]float64{r.Objective})}
		},
	} {
		want, got := run(nm), run(opaque{nm})
		for i := range want {
			if la.MaxAbsDiff(got[i], want[i]) != 0 {
				t.Errorf("%s part %d: opaque operand changed the result", name, i)
			}
		}
	}
	want, _ := GNMF(pos, 2, opt) // GNMF wants the non-negative operand
	got, err := GNMF(opaque{pos}, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.W, want.W) != 0 || la.MaxAbsDiff(got.H, want.H) != 0 {
		t.Error("gnmf: opaque operand changed the result")
	}
}
