package chunk

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// parExec exercises real worker fan-out even on a single-core runner.
var parExec = Exec{Workers: 4, Prefetch: 3}

// TestParallelOpsMatchInMemory pins the parallel chunked operators to
// their in-memory la counterparts (within 1e-12) and to the serial
// chunked path (bit-identical: ordered commit makes worker scheduling
// invisible).
func TestParallelOpsMatchInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := testStore(t)
	d := randDense(rng, 103, 7) // ragged last chunk
	m, err := FromDense(s, d, 8)
	if err != nil {
		t.Fatal(err)
	}

	x := randDense(rng, 7, 3)
	mulP, err := mulExec(MatOperand(parExec, m), x)
	if err != nil {
		t.Fatal(err)
	}
	mulPD, err := mulP.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(mulPD, la.MatMul(d, x)) > 1e-12 {
		t.Fatal("parallel Mul deviates from in-memory")
	}
	mulS, err := mulExec(MatOperand(Serial, m), x)
	if err != nil {
		t.Fatal(err)
	}
	mulSD, _ := mulS.Dense()
	if la.MaxAbsDiff(mulPD, mulSD) != 0 {
		t.Fatal("parallel Mul not bit-identical to serial")
	}

	xt := randDense(rng, 103, 2)
	tmP, err := m.TMulExec(parExec, xt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(tmP, la.TMatMul(d, xt)) > 1e-12 {
		t.Fatal("parallel TMul deviates from in-memory")
	}
	tmS, err := m.TMulExec(Serial, xt)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(tmP, tmS) != 0 {
		t.Fatal("parallel TMul not bit-identical to serial")
	}

	cpP, err := m.CrossProdExec(parExec)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(cpP, d.CrossProd()) > 1e-12 {
		t.Fatal("parallel CrossProd deviates from in-memory")
	}
	cpS, err := m.CrossProdExec(Serial)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(cpP, cpS) != 0 {
		t.Fatal("parallel CrossProd not bit-identical to serial")
	}

	matP, err := materialize(parExec, m)
	if err != nil {
		t.Fatal(err)
	}
	matPD, _ := matP.Dense()
	if la.MaxAbsDiff(matPD, d) != 0 {
		t.Fatal("parallel Materialize deviates from in-memory")
	}
}

// TestParallelGLMMatchesSerialAndInMemory pins the parallel chunked GLM
// iterations to the serial path (bit-identical) and the in-memory
// reference.
func TestParallelGLMMatchesSerialAndInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nS, dS, nR, dR := 210, 4, 11, 6
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
	y := la.NewDense(nS, 1)
	for i := range y.Data() {
		y.Data()[i] = float64(1 - 2*rng.Intn(2))
	}
	const iters, alpha = 5, 1e-3

	store := testStore(t)
	tm, err := FromDense(store, td, 16)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := FromDense(store, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	fkv, err := BuildIntVector(store, fk, 16)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NewNormalizedTable(sm, fkv, r)
	if err != nil {
		t.Fatal(err)
	}

	wRef, err := ml.LogisticRegressionGD(td, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(Exec) (*glmFit, error){
		"materialized": func(ex Exec) (*glmFit, error) { return logRegM(ex, tm, y, iters, alpha) },
		"factorized":   func(ex Exec) (*glmFit, error) { return logRegF(ex, nt, y, iters, alpha) },
	} {
		serial, err := run(Serial)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallel, err := run(parExec)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if la.MaxAbsDiff(serial.W, parallel.W) != 0 {
			t.Fatalf("%s: parallel weights not bit-identical to serial", name)
		}
		if serial.BytesRead != parallel.BytesRead {
			t.Fatalf("%s: bytesRead %d (serial) vs %d (parallel)", name, serial.BytesRead, parallel.BytesRead)
		}
		if la.MaxAbsDiff(parallel.W, wRef) > 1e-9 {
			t.Fatalf("%s: parallel deviates from in-memory", name)
		}
	}
}

// TestParallelGLMMatchesSerialMN does the same for the M:N engine.
func TestParallelGLMMatchesSerialMN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mn, td, y := buildMN(t, rng, 30, 25, 3, 4, 6, 8)
	const iters, alpha = 4, 1e-3
	serial, err := logRegF(Serial, mn, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := logRegF(parExec, mn, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial.W, parallel.W) != 0 {
		t.Fatal("M:N parallel weights not bit-identical to serial")
	}
	wRef, err := ml.LogisticRegressionGD(td, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(parallel.W, wRef) > 1e-9 {
		t.Fatal("M:N parallel deviates from in-memory")
	}
}

// TestForEachExecConcurrent checks that the unordered parallel ForEach
// visits every chunk exactly once and tolerates concurrent fn calls.
func TestForEachExecConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := testStore(t)
	d := randDense(rng, 90, 3)
	m, err := FromDense(s, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	var mu sync.Mutex
	seen := map[int]bool{}
	err = m.ForEachExec(parExec, func(lo int, c *la.Dense) error {
		rows.Add(int64(c.Rows()))
		mu.Lock()
		if seen[lo] {
			mu.Unlock()
			t.Errorf("chunk at %d visited twice", lo)
			return nil
		}
		seen[lo] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Load() != 90 {
		t.Fatalf("visited %d rows, want 90", rows.Load())
	}
	if len(seen) != m.NumChunks() {
		t.Fatalf("visited %d chunks, want %d", len(seen), m.NumChunks())
	}
}

// TestParallelErrorPropagation: a corrupt chunk must fail the whole
// pipeline under parallel execution too.
func TestParallelErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dir := t.TempDir()
	s, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromDense(s, randDense(rng, 64, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	corruptOneChunk(t, dir)
	if _, err := m.CrossProdExec(parExec); err == nil {
		t.Fatal("parallel CrossProd succeeded on corrupt store")
	}
	if _, err := mulExec(MatOperand(parExec, m), randDense(rng, 4, 2)); err == nil {
		t.Fatal("parallel Mul succeeded on corrupt store")
	}
	if err := m.ForEachExec(parExec, func(lo int, c *la.Dense) error { return nil }); err == nil {
		t.Fatal("parallel ForEach succeeded on corrupt store")
	}
}
