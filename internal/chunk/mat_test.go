package chunk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// TestSparseChunkedGLMMatchesInMemoryCSR pins the materialized chunked GLM
// over CSR chunks (the Table 6 one-hot shapes, now trainable out-of-core
// through chunk.Mat) to the in-memory CSR run, bit-determinism across
// executions included.
func TestSparseChunkedGLMMatchesInMemoryCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	store := testStore(t)
	const n, groups, gw, chunkRows = 300, 4, 6, 32
	c := oneHotCSR(rng, n, groups, gw)
	y := pmLabels(rng, n)
	const iters, alpha = 8, 1e-3

	sm, err := FromCSR(store, c, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := logRegM(Serial, sm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := logRegM(parExec, sm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial.W, parallel.W) != 0 {
		t.Fatal("sparse chunked GLM: parallel weights not bit-identical to serial")
	}
	wRef, err := ml.LogisticRegressionGD(c, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(parallel.W, wRef); diff > 1e-12 {
		t.Fatalf("sparse chunked GLM deviates from in-memory CSR by %g", diff)
	}

	// The sparse chunks must pay I/O proportional to nnz, far below the
	// dense encoding of the same one-hot table.
	dm, err := FromDense(store, c.Dense(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := logRegM(parExec, dm, y, iters, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if diff := la.MaxAbsDiff(dense.W, wRef); diff > 1e-12 {
		t.Fatalf("dense chunked GLM deviates from in-memory CSR by %g", diff)
	}
	if serial.BytesRead >= dense.BytesRead {
		t.Fatalf("sparse chunks read %d bytes, dense %d — no sparse I/O saving", serial.BytesRead, dense.BytesRead)
	}
}

// TestMatInterfaceOps drives the shared operator surface through the Mat
// interface for both backends and pins it to the in-memory results.
func TestMatInterfaceOps(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	store := testStore(t)
	d := randDense(rng, 75, 6)
	dm, err := FromDense(store, d, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := oneHotCSR(rng, 75, 2, 3)
	cm, err := FromCSR(store, c, 16)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		m    Mat
		mem  la.Mat
		cols int
	}{
		"dense":  {m: dm, mem: d, cols: d.Cols()},
		"sparse": {m: cm, mem: c, cols: c.Cols()},
	} {
		x := randDense(rng, tc.cols, 3)
		mul, err := mulExec(MatOperand(parExec, tc.m), x)
		if err != nil {
			t.Fatal(err)
		}
		mulD, err := mul.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(mulD, tc.mem.Mul(x)); diff > 1e-12 {
			t.Fatalf("%s Mat.Mul deviates by %g", name, diff)
		}
		xt := randDense(rng, 75, 2)
		tm, err := la.ScanTMul(MatOperand(parExec, tc.m), xt)
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(tm, tc.mem.TMul(xt)); diff > 1e-12 {
			t.Fatalf("%s Mat.TMul deviates by %g", name, diff)
		}
		cp, err := MatOperand(parExec, tc.m).Gram()
		if err != nil {
			t.Fatal(err)
		}
		if diff := la.MaxAbsDiff(cp, tc.mem.CrossProd()); diff > 1e-12 {
			t.Fatalf("%s Mat.CrossProd deviates by %g", name, diff)
		}
	}
}

// TestWriteBehindBitIdentical pins spilled outputs of the asynchronous
// write-behind path to the synchronous serial path, for both backends.
func TestWriteBehindBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	store := testStore(t)
	d := randDense(rng, 90, 5)
	m, err := FromDense(store, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := randDense(rng, 5, 3)
	serialOut, err := mulExec(MatOperand(Serial, m), x) // synchronous writes
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := mulExec(MatOperand(parExec, m), x) // write-behind stage
	if err != nil {
		t.Fatal(err)
	}
	sd, err := serialOut.Dense()
	if err != nil {
		t.Fatal(err)
	}
	pd, err := parOut.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(sd, pd) != 0 {
		t.Fatal("write-behind dense output not bit-identical to synchronous")
	}

	c := oneHotCSR(rng, 90, 3, 4)
	cm, err := FromCSR(store, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	xs := randDense(rng, c.Cols(), 2)
	serialS, err := mulExec(MatOperand(Serial, cm), xs)
	if err != nil {
		t.Fatal(err)
	}
	parS, err := mulExec(MatOperand(parExec, cm), xs)
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := serialS.Dense()
	if err != nil {
		t.Fatal(err)
	}
	psd, err := parS.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(ssd, psd) != 0 {
		t.Fatal("write-behind sparse-source output not bit-identical to synchronous")
	}
}

// TestAutoRows checks the budget arithmetic and the clamps.
func TestAutoRows(t *testing.T) {
	// 4 workers keep a window of 3·4+1 = 13 resident chunks: a budget of
	// 1024 rows of them, whatever the unused fourth argument says.
	for _, prefetch := range []int{0, 3, 8} {
		if got := AutoRows(1024*13*16*8, 16, 4, prefetch); got != 1024 {
			t.Fatalf("AutoRows(1024·13·16·8, 16, 4, %d) = %d, want 1024", prefetch, got)
		}
	}
	// The serial loop keeps two.
	if got, _ := AutoRowsChecked(100*2*16*8, 16, 1); got != 100 {
		t.Fatalf("serial: got %d, want 100", got)
	}
	// A budget smaller than one row of the widest operand clamps to one
	// row — never 0, never the old overcommitting 64-row floor — and
	// AutoRowsChecked reports the infeasibility explicitly.
	if got := AutoRows(1, 1000, 8, 16); got != 1 {
		t.Fatalf("tiny budget: got %d, want 1", got)
	}
	rows, err := AutoRowsChecked(1, 1000, 8)
	if rows != 1 || err == nil {
		t.Fatalf("AutoRowsChecked(1,1000,8) = (%d, %v), want (1, infeasibility error)", rows, err)
	}
	if got := AutoRows(0, 1<<30, 0, -1); got < 1 {
		t.Fatalf("zero budget over a 2^30-wide operand: got %d, want >= 1", got)
	}
	// A budget worth only a few rows honors the budget: the pass streams
	// shorter chunks rather than overcommitting.
	under, err := AutoRowsChecked(10*1000*8*(3*8+1), 1000, 8)
	if err != nil {
		t.Fatalf("10-row budget unexpectedly infeasible: %v", err)
	}
	if under != 10 {
		t.Fatalf("10-row budget: got %d, want 10", under)
	}
	// Huge budgets clamp down to the ceiling.
	if got := AutoRows(1<<50, 1, 1, 0); got != 1<<20 {
		t.Fatalf("huge budget: got %d, want %d", got, 1<<20)
	}
	// Wider tables get shorter chunks under the same budget.
	narrow := AutoRows(1<<24, 8, 4, 0)
	wide := AutoRows(1<<24, 64, 4, 0)
	if wide >= narrow {
		t.Fatalf("wider table should get shorter chunks: narrow=%d wide=%d", narrow, wide)
	}
	// More workers get shorter chunks under the same budget.
	few := AutoRows(1<<24, 16, 2, 0)
	many := AutoRows(1<<24, 16, 16, 0)
	if many >= few {
		t.Fatalf("more workers should get shorter chunks: few=%d many=%d", few, many)
	}
}

// TestRowSquaredNormsBitwise: the chunk norms (la.RowSquaredNorms, four
// rows at a time) equal, bit for bit, the one-chain loop and
// Pow(2).RowSums() with ±0, NaN and ±Inf cells, for every row
// count's remainder after the four-row strips and for a CSR chunk.
func TestRowSquaredNormsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 63, 130} {
		for _, d := range []int{0, 1, 3, 10, 50} {
			m := la.NewDense(rows, d)
			for i := range m.Data() {
				if m.Data()[i] = rng.NormFloat64(); rng.Intn(20) == 0 {
					m.Data()[i] = special[rng.Intn(len(special))]
				}
			}
			chain := make([]float64, rows)
			for i := range chain {
				for _, v := range m.Row(i) {
					chain[i] += v * v
				}
			}
			got := la.NewDenseData(rows, 1, la.RowSquaredNorms(m))
			bitsEqual(t, "RowSquaredNorms vs one chain", got, la.NewDenseData(rows, 1, chain))
			bitsEqual(t, "RowSquaredNorms vs Pow(2).RowSums()", got, m.Pow(2).RowSums())
			sp := la.CSRFromDense(m)
			bitsEqual(t, "RowSquaredNorms of a CSR chunk", la.NewDenseData(rows, 1, la.RowSquaredNorms(sp)), sp.Pow(2).RowSums())
		}
	}
}
