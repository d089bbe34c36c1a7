package la

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		var total int64
		seen := make([]int32, n)
		parallelFor(n, 1<<20, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
				atomic.AddInt64(&total, 1)
			}
		})
		if total != int64(n) {
			t.Fatalf("n=%d: visited %d", n, total)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelForSerialBelowThreshold(t *testing.T) {
	calls := 0
	parallelFor(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single serial chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

// TestLargeKernelsHitParallelPaths validates the blocked/parallel code
// paths against the naive reference at sizes above the parallel threshold.
func TestLargeKernelsHitParallelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	a := randDense(rng, 300, 200)
	b := randDense(rng, 200, 150)
	if MaxAbsDiff(MatMul(a, b), naiveMul(a, b)) > 1e-9 {
		t.Fatal("parallel MatMul mismatch")
	}
	c := randDense(rng, 300, 150)
	if MaxAbsDiff(TMatMul(a, c), naiveMul(a.TDense(), c)) > 1e-9 {
		t.Fatal("parallel TMatMul mismatch")
	}
	if MaxAbsDiff(a.CrossProd(), naiveMul(a.TDense(), a)) > 1e-8 {
		t.Fatal("parallel CrossProd mismatch")
	}
	twice := a.Clone()
	twice.AddInPlace(a)
	if MaxAbsDiff(a.ScaleDense(2), twice) > 1e-12 {
		t.Fatal("parallel Scale mismatch")
	}
}

// TestReductionKernelsDeterministic: TMatMul and CrossProd must return
// bit-identical results on repeated calls even above the parallel
// threshold. The per-chunk partials used to be merged in goroutine
// completion order, which made every call a slightly different float sum
// on multi-core machines — breaking the out-of-core engine's
// serial-vs-parallel equivalence checks.
func TestReductionKernelsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randDense(rng, 500, 120) // comfortably above parallelThreshold
	b := randDense(rng, 500, 80)
	tm0 := TMatMul(a, b)
	cp0 := a.CrossProd()
	for i := 0; i < 5; i++ {
		if MaxAbsDiff(TMatMul(a, b), tm0) != 0 {
			t.Fatal("TMatMul not deterministic across calls")
		}
		if MaxAbsDiff(a.CrossProd(), cp0) != 0 {
			t.Fatal("CrossProd not deterministic across calls")
		}
	}
}

func TestParallelRowsExported(t *testing.T) {
	var total int64
	ParallelRows(500, 1<<20, func(lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 500 {
		t.Fatalf("ParallelRows covered %d rows", total)
	}
}
