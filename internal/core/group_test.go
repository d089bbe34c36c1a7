package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/la"
)

// opaqueMatrix offers only la.Matrix, like bench's tracing wrapper: a scan
// over it cannot reach a group kernel and takes the one-hot fallback.
type opaqueMatrix struct{ la.Matrix }

func randGroups(rng *rand.Rand, n, k int) []int32 {
	g := make([]int32, n)
	for i := range g {
		g[i] = int32(rng.Intn(k))
	}
	return g
}

// scanGroups is Tᵀ·A through the scan contract, for a step that returns
// its one-hot P as Groups — the way k-means' assignment step does.
func scanGroups(t *testing.T, m la.Matrix, groups []int32, k int) *la.Dense {
	t.Helper()
	_, tp, err := la.InMemory(m).Scan(la.Step{PCols: k, Do: func(la.Block, *la.Dense, []float64) (la.Result, error) {
		return la.Result{Groups: groups}, nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestGroupTMulMatchesDenseProduct holds every operand's Tᵀ·A for a one-hot
// A given as groups to the materialized product Tᵀ·A: the la kernels, the
// indicator rewrite on PK-FK, star (with a CSR arm) and M:N (with I_S)
// joins, a transposed normalized matrix, and the fallback of a Matrix that
// hides its kernels.
func TestGroupTMulMatchesDenseProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	must := func(m *NormalizedMatrix, err error) *NormalizedMatrix {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, n := range []int{0, 1, 63, 65, 4100} {
		d := randDense(rng, n, 7)
		pkfk := must(NewPKFK(randDense(rng, n, 3), randIndicator(rng, n, 11), randDense(rng, 11, 5)))
		shapes := map[string]la.Matrix{
			"dense":  d,
			"csr":    la.CSRFromDense(d.ApplyDense(func(v float64) float64 { return math.Max(v, 0) })),
			"pkfk":   pkfk,
			"star":   must(NewStar(randDense(rng, n, 2), []*la.Indicator{randIndicator(rng, n, 9), randIndicator(rng, n, 7)}, []la.Mat{randDense(rng, 9, 4), la.CSRFromDense(randDense(rng, 7, 3))})),
			"mn":     must(NewMN(randDense(rng, 37, 3), randIndicator(rng, n, 37), randIndicator(rng, n, 29), randDense(rng, 29, 4))),
			"opaque": opaqueMatrix{pkfk},
		}
		if n >= 2 { // a transposed T with n rows: the base join is n columns wide
			shapes["transposed"] = must(NewPKFK(randDense(rng, 13, n-1), randIndicator(rng, 13, 4), randDense(rng, 4, 1))).T()
		}
		for name, m := range shapes {
			for _, k := range []int{1, 2, 5, 10, 17} {
				groups := randGroups(rng, n, k)
				want := la.TMatMul(m.Dense(), la.OneHot(groups, k))
				got := scanGroups(t, m, groups, k)
				if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
					t.Fatalf("%s n=%d k=%d: %dx%d, want %dx%d", name, n, k, got.Rows(), got.Cols(), want.Rows(), want.Cols())
				}
				for i, w := range want.Data() {
					if diff := math.Abs(got.Data()[i] - w); diff > 1e-12*math.Max(1, math.Abs(w)) {
						t.Fatalf("%s n=%d k=%d: element %d is %v, the one-hot product %v", name, n, k, i, got.Data()[i], w)
					}
				}
			}
		}
	}
}

// TestWidthDeterminismGroupTMul pins the factorized group sums bitwise
// across worker counts, with and without an entity-side selector.
func TestWidthDeterminismGroupTMul(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, k = 12_000, 10
	rng := rand.New(rand.NewSource(91))
	pkfk, err := NewPKFK(randDense(rng, n, 6), randIndicator(rng, n, 400), randDense(rng, 400, 9))
	if err != nil {
		t.Fatal(err)
	}
	mn, err := NewMN(randDense(rng, 500, 6), randIndicator(rng, n, 500), randIndicator(rng, n, 400), randDense(rng, 400, 9))
	if err != nil {
		t.Fatal(err)
	}
	groups := randGroups(rng, n, k)
	for name, m := range map[string]*NormalizedMatrix{"pkfk": pkfk, "mn": mn} {
		var first *la.Dense
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			got := m.GroupTMul(groups, k)
			if first == nil {
				first = got
				continue
			}
			for i, v := range first.Data() {
				if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: element %d is %v at GOMAXPROCS=1 and %v at GOMAXPROCS=%d", name, i, v, g, procs)
				}
			}
		}
	}
}

// BenchmarkGroupTMul: k-means' Tᵀ·A as group sums against the product
// with the one-hot A it replaces — on a chunk-height dense block (6000×50,
// k = 10) and at train-inmem's normalized shape (nS 400k, dS 10, nR 20k,
// dR 40).
func BenchmarkGroupTMul(b *testing.B) {
	const k = 10
	rng := rand.New(rand.NewSource(92))
	block := randDense(rng, 6000, 50)
	nm, err := NewPKFK(randDense(rng, 400_000, 10), randIndicator(rng, 400_000, 20_000), randDense(rng, 20_000, 40))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		rows   int
		groups func(groups []int32) *la.Dense
		onehot func(a *la.Dense) *la.Dense
	}{
		{"dense6000x50", block.Rows(), func(g []int32) *la.Dense { return block.GroupTMul(g, k) }, func(a *la.Dense) *la.Dense { return la.TMatMul(block, a) }},
		{"normalized", nm.Rows(), func(g []int32) *la.Dense { return nm.GroupTMul(g, k) }, func(a *la.Dense) *la.Dense { return nm.T().Mul(a) }},
	} {
		groups := randGroups(rng, c.rows, k)
		b.Run(fmt.Sprintf("%s/groups", c.name), func(b *testing.B) {
			for range b.N {
				c.groups(groups)
			}
		})
		b.Run(fmt.Sprintf("%s/onehot", c.name), func(b *testing.B) {
			for range b.N {
				c.onehot(la.OneHot(groups, k))
			}
		})
	}
}
