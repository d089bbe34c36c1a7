package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/la"
)

// TestWidthDeterminismNormalized pins the factorized operators bitwise
// across worker counts (ROADMAP 5a): a result that holds on a 2-core CI box
// must be the result on any host. The join is large enough that every la
// kernel underneath fans out, and the matrix is rebuilt per width so that
// state its indicators cache lazily is built at that width too.
func TestWidthDeterminismNormalized(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nS, dS, nR, dR = 12_000, 6, 400, 9
	rng := rand.New(rand.NewSource(80))
	s, r := randDense(rng, nS, dS), randDense(rng, nR, dR)
	fk := randIndicator(rng, nS, nR).Assignments()
	x1, x5 := randDense(rng, dS+dR, 1), randDense(rng, dS+dR, 5)
	xt1, xt5 := randDense(rng, nS, 1), randDense(rng, nS, 5)

	names := []string{"Mul k=1", "Mul k=5", "T().Mul k=1", "T().Mul k=5", "CrossProd"}
	var first []*la.Dense
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		m, err := NewPKFK(s, la.NewIndicatorInt32(fk, nR), r)
		if err != nil {
			t.Fatal(err)
		}
		got := []*la.Dense{m.Mul(x1), m.Mul(x5), m.T().Mul(xt1), m.T().Mul(xt5), m.CrossProd()}
		if first == nil {
			first = got
			continue
		}
		for op, want := range first {
			for i, v := range want.Data() {
				if g := got[op].Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: element %d is %v at GOMAXPROCS=1 and %v at GOMAXPROCS=%d", names[op], i, v, g, procs)
				}
			}
		}
	}
}

// opaqueMat hides a base table's block-wise LMM kernel, the way a Mat
// implemented outside la (epoch's views) does.
type opaqueMat struct{ la.Mat }

// TestLMMSinglePassAllShapes holds the single-pass factorized LMM to the
// materialized product on joins several output blocks long, for every
// form the entity side takes — dense, sparse, opaque, behind an M:N
// selector, absent — with two attribute tables and k in each shape class.
func TestLMMSinglePassAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n, nR = 2*mulBlock + 77, 40
	dense := randDense(rng, n, 4)
	entity := map[string]la.Mat{"dense": dense, "sparse": la.CSRFromDense(dense), "opaque": opaqueMat{dense}, "none": nil}
	ks := []*la.Indicator{randIndicator(rng, n, nR), randIndicator(rng, n, nR)}
	rs := []la.Mat{randDense(rng, nR, 3), la.CSRFromDense(randDense(rng, nR, 5))}
	ms := map[string]*NormalizedMatrix{}
	for name, s := range entity {
		m, err := NewStar(s, ks, rs)
		if err != nil {
			t.Fatal(err)
		}
		ms[name] = m
	}
	mn, err := New(randDense(rng, 30, 4), randIndicator(rng, n, 30), ks, rs)
	if err != nil {
		t.Fatal(err)
	}
	ms["m:n"] = mn
	for name, m := range ms {
		td := m.Dense()
		for _, k := range []int{1, 5, 20} {
			x := randDense(rng, m.Cols(), k)
			if d := la.MaxAbsDiff(m.Mul(x), la.MatMul(td, x)); d > 1e-12 {
				t.Errorf("entity %s, k=%d: factorized LMM differs from materialized by %g", name, k, d)
			}
		}
	}
}
