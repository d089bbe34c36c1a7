package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level microbenchmarks for the substrate: these are the building
// blocks whose relative costs drive every M-vs-F comparison upstairs.

func benchDense(n, d int) *Dense {
	rng := rand.New(rand.NewSource(1))
	return randDense(rng, n, d)
}

func BenchmarkGEMM(b *testing.B) {
	for _, n := range []int{64, 256} {
		a := benchDense(n, n)
		c := benchDense(n, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportMetric(float64(2*n*n*n), "flops/op")
			for i := 0; i < b.N; i++ {
				MatMul(a, c)
			}
		})
	}
}

func BenchmarkTMatMul(b *testing.B) {
	a := benchDense(4096, 64)
	x := benchDense(4096, 8)
	for i := 0; i < b.N; i++ {
		TMatMul(a, x)
	}
}

func BenchmarkCrossProdDense(b *testing.B) {
	a := benchDense(8192, 64)
	for i := 0; i < b.N; i++ {
		a.CrossProd()
	}
	reportGFLOPs(b, crossProdFlops(a))
}

// crossProdFlops counts CrossProd's multiply-adds as two flops each: the
// upper triangle, diagonal included, once per row.
func crossProdFlops(a *Dense) float64 { return float64(a.rows) * float64(a.cols*(a.cols+1)) }

// reportGFLOPs reports flops per op as GFLOP/s over the benchmark's time.
func reportGFLOPs(b *testing.B, flops float64) {
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkCSRMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c, _ := randCSR(rng, 8192, 512, 0.02)
	x := benchDense(512, 8)
	for i := 0; i < b.N; i++ {
		c.Mul(x)
	}
}

func BenchmarkCSRCrossProd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c, _ := randCSR(rng, 8192, 256, 0.02)
	for i := 0; i < b.N; i++ {
		c.CrossProd()
	}
}

func BenchmarkIndicatorGather(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	k := randIndicator(rng, 100_000, 1000)
	z := benchDense(1000, 32)
	for i := 0; i < b.N; i++ {
		k.Mul(z)
	}
}

func BenchmarkIndicatorScatter(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	k := randIndicator(rng, 100_000, 1000)
	z := benchDense(100_000, 8)
	for i := 0; i < b.N; i++ {
		k.TMul(z)
	}
}

func BenchmarkTMulIndicator(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	k := randIndicator(rng, 200_000, 2000)
	j := randIndicator(rng, 200_000, 2000)
	for i := 0; i < b.N; i++ {
		k.TMulIndicator(j)
	}
}

func BenchmarkSymGinv(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randDense(rng, 200, 80)
	a := m.CrossProd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymGinv(a)
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := randDense(rng, 200, 80)
	a := m.CrossProd()
	a.AddInPlace(Eye(80))
	rhs := randDense(rng, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSPD(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// oneHotCSR builds a rows×cols CSR with nnz ones per row at random
// distinct columns, like a one-hot encoded attribute table.
func oneHotCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	indptr := make([]int, rows+1)
	indices := make([]int32, 0, rows*nnz)
	vals := make([]float64, 0, rows*nnz)
	band := cols / nnz
	for i := 0; i < rows; i++ {
		for g := 0; g < nnz; g++ {
			indices = append(indices, int32(g*band+rng.Intn(band)))
			vals = append(vals, 1)
		}
		indptr[i+1] = len(indices)
	}
	return NewCSR(rows, cols, indptr, indices, vals)
}

// BenchmarkNarrowKernels times the factorized operators' building blocks
// at the benchmark's shapes (bench/w_train_inmem.go: S 400k×10, R 20k×40,
// K 400k→20k; a 400k×600 one-hot CSR stands for e2e-csv's tables) for the
// widths the §4 algorithms multiply by. SetBytes counts each operand and
// the output once, as bench/roofline.go does, so the MB/s column reads
// against la.copy_gb_per_s. The T-chunk cases are train-ooc's per-chunk
// kernels on a 5991×50 chunk of the joined table: k-means' Mul at k = 10
// and crossprod's CrossProd. They and the dense Mul cases also report
// GFLOP/s, the compute-side figure.
func BenchmarkNarrowKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s, r := randDense(rng, 400_000, 10), randDense(rng, 20_000, 40)
	c := oneHotCSR(rng, 400_000, 600, 3)
	ind := randIndicator(rng, 400_000, 20_000)
	runFlops := func(name string, bytes int, flops float64, f func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				f()
			}
			if flops > 0 {
				reportGFLOPs(b, flops)
			}
		})
	}
	run := func(name string, bytes int, f func()) { runFlops(name, bytes, 0, f) }
	tb := randDense(rng, 5991, 50)
	tx := randDense(rng, 50, 10)
	runFlops("dense/T5991x50/Mul/k10", 8*(5991*50+50*10+5991*10), 2*5991*50*10, func() { tb.Mul(tx) })
	runFlops("dense/T5991x50/CrossProd", 8*(5991*50+50*50), crossProdFlops(tb), func() { tb.CrossProd() })
	for _, k := range []int{1, 5, 10} {
		for _, m := range []struct {
			name string
			a    *Dense
		}{{"S400kx10", s}, {"R20kx40", r}} {
			n, d := m.a.rows, m.a.cols
			x, xt := randDense(rng, d, k), randDense(rng, n, k)
			bytes := 8 * (n*d + d*k + n*k)
			runFlops(fmt.Sprintf("dense/%s/Mul/k%d", m.name, k), bytes, float64(2*n*d*k), func() { m.a.Mul(x) })
			run(fmt.Sprintf("dense/%s/TMul/k%d", m.name, k), bytes, func() { m.a.TMul(xt) })
		}
		x, xt := randDense(rng, c.cols, k), randDense(rng, c.rows, k)
		bytes := 12*c.NNZ() + 8*(c.rows+1) + 8*k*(c.rows+c.cols)
		run(fmt.Sprintf("csr/Mul/k%d", k), bytes, func() { c.Mul(x) })
		run(fmt.Sprintf("csr/TMul/k%d", k), bytes, func() { c.TMul(xt) })
		z, zt := randDense(rng, ind.nCols, k), randDense(rng, len(ind.rows), k)
		run(fmt.Sprintf("indicator/Mul/k%d", k), 4*len(ind.rows)+16*k*len(ind.rows), func() { ind.Mul(z) })
		run(fmt.Sprintf("indicator/TMul/k%d", k), 4*len(ind.rows)+8*k*(len(ind.rows)+ind.nCols), func() { ind.TMul(zt) })
	}
}
