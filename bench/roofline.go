package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/la"
)

// roofShapes are the operands of one workload the la kernels are timed
// on. csr may be nil (train-inmem has no sparse table); the csr_* figures
// are then 0.
type roofShapes struct {
	dense *la.Dense     // the entity table S
	csr   *la.CSR       // the largest one-hot attribute table
	ind   *la.Indicator // the foreign-key indicator onto the largest attribute table
}

// roofReps is how often each kernel is timed after one warm-up call; the
// median is reported.
const roofReps = 5

func medianTime(reps int, f func()) float64 {
	f()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// copyCeiling measures memory bandwidth as a copy between two arrays of
// arrayBytes each, split across the worker count the kernels use, and
// returns GB/s counting bytes read plus bytes written. The arrays should
// exceed the last-level cache fourfold; on hosts that report a very large
// shared cache the size is capped and the cap is printed.
func copyCeiling(r *run) float64 {
	const floor, ceil = 64 << 20, 256 << 20
	llc := llcBytes()
	arrayBytes := min(max(4*llc, floor), ceil)
	if r.smoke {
		arrayBytes = 4 << 20
	}
	n := int(arrayBytes / 8)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	workers := clients()
	secs := medianTime(roofReps, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
	})
	r.notef("la.copy_gb_per_s: %d workers copying %d B arrays (last-level cache %d B, 4x = %d B, capped to [%d, %d])",
		workers, arrayBytes, llc, 4*llc, floor, ceil)
	return 2 * float64(arrayBytes) / secs / 1e9
}

// roofline times each la kernel on the workload's shapes and reports it
// beside the copy ceiling. Byte counts are computed from operand sizes,
// not measured.
func roofline(r *run, sh roofShapes) {
	rng := rand.New(rand.NewSource(r.seed))
	randDense := func(rows, cols int) *la.Dense {
		m := la.NewDense(rows, cols)
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
		return m
	}
	ceiling := copyCeiling(r)
	r.set("la.copy_gb_per_s", ceiling)

	compute := func(name string, flops float64, f func()) {
		secs := medianTime(roofReps, f)
		r.set("la."+name+"_ms", secs*1e3)
		r.set("la."+name+"_rate", flops/secs/1e9)
	}
	bandwidth := func(name string, bytes float64, f func()) {
		secs := medianTime(roofReps, f)
		r.set("la."+name+"_ms", secs*1e3)
		r.set("la."+name+"_rate", bytes/secs/1e9)
		r.set("la."+name+"_bw_share", bytes/secs/1e9/ceiling)
	}

	g := 512
	if r.smoke {
		g = 64
	}
	a, b := randDense(g, g), randDense(g, g)
	cube := 2 * float64(g) * float64(g) * float64(g)
	compute("gemm", cube, func() { la.MatMul(a, b) })
	compute("tmatmul", cube, func() { la.TMatMul(a, b) })

	if d := sh.dense; d != nil {
		n, c := float64(d.Rows()), float64(d.Cols())
		compute("crossprod", n*c*(c+1), func() { d.CrossProd() })
		x, xt := randDense(d.Cols(), 1), randDense(d.Rows(), 1)
		bandwidth("dense_mul", 8*(n*c+c+n), func() { d.Mul(x) })
		bandwidth("dense_tmul", 8*(n*c+n+c), func() { d.TMul(xt) })
	}
	if s := sh.csr; s != nil {
		rows, cols, nnz := float64(s.Rows()), float64(s.Cols()), float64(s.NNZ())
		bytes := 12*nnz + 8*(rows+1) + 8*rows + 8*cols
		x, xt := randDense(s.Cols(), 1), randDense(s.Rows(), 1)
		bandwidth("csr_mul", bytes, func() { s.Mul(x) })
		bandwidth("csr_tmul", bytes, func() { s.TMul(xt) })
	}
	if k := sh.ind; k != nil {
		n, nr := float64(k.Rows()), float64(k.Cols())
		z, x := randDense(k.Cols(), 1), randDense(k.Rows(), 1)
		bandwidth("ind_mul", 4*n+16*n, func() { k.Mul(z) })
		bandwidth("ind_tmul", 4*n+8*n+8*nr, func() { k.TMul(x) })
	}
}
