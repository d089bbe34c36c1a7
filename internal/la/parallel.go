package la

import (
	"runtime"
	"sync"
)

// parallelThreshold is the amount of scalar work below which operators run
// serially; goroutine fan-out costs more than it saves on small inputs.
const parallelThreshold = 1 << 15

// parallelChunks reports how many contiguous chunks parallelFor would
// split [0,n) into: 1 when parallelism does not pay off, else up to
// GOMAXPROCS. Only kernels whose result does not depend on the split may
// use it: each output element is written by one chunk, in an order of
// additions the split cannot change. Reductions go through blockReduce.
// The thresholds come first: GOMAXPROCS takes the scheduler's lock, and a
// single-row gather must not pay for it.
func parallelChunks(n int, work int) int {
	if work < parallelThreshold || n < 2 {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// parallelFor splits [0,n) into contiguous chunks and runs body(lo, hi) on
// up to GOMAXPROCS goroutines. work is an estimate of total scalar
// operations used to decide whether parallelism pays off.
func parallelFor(n int, work int, body func(lo, hi int)) {
	chunks := parallelChunks(n, work)
	if n == 0 {
		return
	}
	if chunks <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks)
	size := (n + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		lo, hi := c*size, min((c+1)*size, n)
		go func() {
			defer wg.Done()
			if lo < hi {
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// blockReduce sums a reduction over the rows [0,n) into a size-long
// result. f(acc, lo, hi) adds the contribution of rows [lo,hi) into acc,
// which starts zeroed; the block sums are then added in block order.
//
// This is the package's determinism rule: block boundaries are a function
// of the operand's shape (n, size, work) and never of GOMAXPROCS, and the
// serial path sums the same blocks in the same order, so every reduction
// is bit-identical on one core and on sixty-four. There are at most 64
// blocks of at least 64 rows, each with at least 16× the work of merging
// it, and (beyond two) no more than fit 4 Mi partial elements.
func blockReduce(n, size, work int, f func(acc []float64, lo, hi int)) []float64 {
	sz := max(size, 1)
	nb := max(1, min(64, n/64, work/(16*sz), max(2, (4<<20)/sz)))
	rows := (n + nb - 1) / nb
	parts := make([]float64, nb*size)
	parallelFor(nb, work, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			f(parts[b*size:(b+1)*size], min(b*rows, n), min((b+1)*rows, n))
		}
	})
	if nb == 1 {
		return parts
	}
	out := make([]float64, size) // not parts[:size]: that would pin all nb partials
	copy(out, parts)
	for b := 1; b < nb; b++ {
		axpy(out, parts[b*size:(b+1)*size], 1)
	}
	return out
}

// ParallelRows exposes the package's chunked row-parallel loop to sibling
// packages (core's gather kernels); body(lo, hi) must be safe to run on
// disjoint row ranges concurrently.
func ParallelRows(n int, work int, body func(lo, hi int)) { parallelFor(n, work, body) }

// ParallelChunks exposes the fan-out decision: how many chunks
// ParallelRows would split [0,n) into for the given work estimate.
// Allocation-sensitive callers use it to run the serial case without
// materializing a closure — a func literal passed to ParallelRows escapes
// to the heap even when the loop runs inline.
func ParallelChunks(n int, work int) int { return parallelChunks(n, work) }
