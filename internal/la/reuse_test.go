package la_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// fits holds what the seven algorithms return to their caller.
type fits struct {
	dense  map[string]*la.Dense
	scalar map[string]float64
	talls  map[string]la.Tall
}

// fitAll runs all seven algorithms, k-means and GNMF twice (two seeds),
// each over the operand op returns: a new one for every fit, or always the
// same one, so each later fit reuses what the earlier ones left behind.
func fitAll(t *testing.T, op func() la.Operand, y *la.Dense) fits {
	t.Helper()
	f := fits{map[string]*la.Dense{}, map[string]float64{}, map[string]la.Tall{}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	f.dense["logreg"], err = ml.LogRegScan(op(), y, nil, ml.Options{Iters: 4, StepSize: 1e-2})
	must(err)
	f.dense["ne"], err = ml.LinRegNEScan(op(), y)
	must(err)
	f.dense["ridge"], err = ml.RidgeScan(op(), y, 0.5)
	must(err)
	f.dense["cofactor"], err = ml.CofactorScan(op(), y, nil, ml.Options{Iters: 4, StepSize: 1e-2})
	must(err)
	pca, err := ml.PCAScan(op(), 2)
	must(err)
	f.dense["pca"] = pca.Components
	for _, seed := range []int64{1, 2} {
		km, err := ml.KMeansScan(op(), 3, ml.Options{Iters: 3, Seed: seed})
		must(err)
		f.dense[fmt.Sprint("centroids", seed)], f.scalar[fmt.Sprint("objective", seed)] = km.Centroids, km.Objective
		f.talls[fmt.Sprint("assign", seed)] = km.Assign
		g, err := ml.GNMFScan(op(), 2, ml.Options{Iters: 3, Seed: seed})
		must(err)
		f.dense[fmt.Sprint("H", seed)], f.talls[fmt.Sprint("W", seed)] = g.H, g.W
	}
	return f
}

func tallDense(t *testing.T, tl la.Tall) *la.Dense {
	t.Helper()
	if m, ok := tl.(*chunk.Matrix); ok {
		d, err := m.Dense()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	_, d, err := tl.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestReuseSafe: with every buffer an operand hands out again filled with
// NaN first, all seven algorithms equal, bit for bit, the same fits each on
// a fresh operand — on every in-memory operand and on a 2-shard chunked
// store under Serial and two workers. The reused run makes every fit on one
// operand and reads the results only at the end, so a later fit that wrote
// into an earlier one's result shows too.
func TestReuseSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const nS, dS, nR, dR, rows = 600, 3, 40, 4, 128
	s, r := la.NewDense(nS, dS), la.NewDense(nR, dR)
	for _, m := range []*la.Dense{s, r} {
		for i := range m.Data() {
			m.Data()[i] = rng.Float64() // non-negative, for GNMF
		}
	}
	keys := make([]int32, nS)
	for i := range keys {
		keys[i] = int32(rng.Intn(nR))
	}
	nm, err := core.NewPKFK(s, la.NewIndicatorInt32(keys, nR), r)
	if err != nil {
		t.Fatal(err)
	}
	y := la.NewDense(nS, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(2*rng.Intn(2) - 1)
	}

	var shards []chunk.Backend
	for range 2 {
		b, err := chunk.NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, b)
	}
	st, err := chunk.NewShardedStoreBackends(shards, chunk.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tM, err := chunk.FromDense(st, nm.Dense(), rows)
	if err != nil {
		t.Fatal(err)
	}
	sM, err := chunk.FromDense(st, s, rows)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := chunk.BuildIntVector(st, keys, rows)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := chunk.NewNormalizedTable(sM, fk, r)
	if err != nil {
		t.Fatal(err)
	}

	operands := map[string]func() la.Operand{
		"dense":      func() la.Operand { return la.InMemory(nm.Dense()) },
		"csr":        func() la.Operand { return la.InMemory(la.CSRFromDense(nm.Dense())) },
		"normalized": func() la.Operand { return la.InMemory(nm) },
	}
	for _, ex := range []chunk.Exec{chunk.Serial, {Workers: 2, Prefetch: 2}} {
		operands[fmt.Sprintf("chunked dense, %d workers", ex.Workers)] = func() la.Operand { return chunk.MatOperand(ex, tM) }
		operands[fmt.Sprintf("chunked star, %d workers", ex.Workers)] = func() la.Operand { return nt.Operand(ex) }
	}
	for name, op := range operands {
		t.Run(name, func(t *testing.T) {
			want := fitAll(t, op, y) // each fit on a new operand, nothing poisoned
			la.SetPoison(true)
			defer la.SetPoison(false)
			shared := op()
			got := fitAll(t, func() la.Operand { return shared }, y)
			for k, v := range want.dense {
				sameBits(t, k, got.dense[k].Data(), v.Data())
			}
			for k, v := range want.scalar {
				sameBits(t, k, []float64{got.scalar[k]}, []float64{v})
			}
			for k, v := range want.talls {
				sameBits(t, k, tallDense(t, got.talls[k]).Data(), tallDense(t, v).Data())
			}
		})
	}
}
