package ml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// TestScanAllocsPerIteration: an in-memory fit allocates its n-tall state
// once — the operand keeps T·X, P and Groups, and GNMF's W ping-pongs
// between two buffers — so ten more iterations allocate less than one
// n-vector, on a dense, a CSR and a normalized operand alike. What an
// iteration still allocates does not grow with n: d×k products, and the
// reductions' partials, at most 64 blocks of d×k each.
func TestScanAllocsPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	rng := rand.New(rand.NewSource(38))
	nm, _, yv := makeJoin(rng, 60000, 4, 50, 6)
	y, n := signLabels(yv), nm.Rows()
	pos := nm.Apply(math.Abs).(*core.NormalizedMatrix)
	operands := []struct {
		name   string
		t, pos la.Matrix
	}{
		{"dense", nm.Dense(), pos.Dense()},
		{"csr", la.CSRFromDense(nm.Dense()), la.CSRFromDense(pos.Dense())},
		{"normalized", nm, pos},
	}
	fits := []struct {
		name string
		fit  func(t, pos la.Matrix, iters int) error
	}{
		{"LogReg", func(t, _ la.Matrix, iters int) error {
			_, err := LogisticRegressionGD(t, y, nil, Options{Iters: iters, StepSize: 1e-3})
			return err
		}},
		{"KMeans", func(t, _ la.Matrix, iters int) error {
			_, err := KMeans(t, 5, Options{Iters: iters, Seed: 3})
			return err
		}},
		{"GNMF", func(_, pos la.Matrix, iters int) error {
			_, err := GNMF(pos, 4, Options{Iters: iters, Seed: 3})
			return err
		}},
	}
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, op := range operands {
		for _, f := range fits {
			short := allocated(func() error { return f.fit(op.t, op.pos, 2) })
			long := allocated(func() error { return f.fit(op.t, op.pos, 12) })
			if grew := int64(long) - int64(short); grew >= int64(8*n) {
				t.Errorf("%s on %s: 12 iterations allocate %d B more than 2, want < %d (one n-vector)", f.name, op.name, grew, 8*n)
			}
		}
	}
}
