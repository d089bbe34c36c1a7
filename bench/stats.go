package main

import (
	"math"
	"sort"
)

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf is the median of one figure taken from each of xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of the
// ascending slice sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder are the tail percentiles a latency may be reported at,
// highest first. It stops at p99: with the sample counts a run collects, a
// higher rung would rest on a few dozen samples and not repeat.
var tailLadder = []struct {
	p      float64
	label  string
	beyond int // one sample in this many lies beyond the rung
}{{0.99, "p99", 100}, {0.90, "p90", 10}}

// tailPercentile picks the highest rung of tailLadder that has at least
// ten of n samples beyond it. With fewer than 100 samples no rung
// qualifies and the sample supports no tail figure at all: the caller
// then repeats the median, which is steadier than the maximum of a
// handful of values and claims no more than the sample holds.
func tailPercentile(n int) (p float64, label string) {
	for _, r := range tailLadder {
		if n/r.beyond >= 10 {
			return r.p, r.label
		}
	}
	return 0.5, "p50"
}

// tailOf returns the tail latency of samples by the rule above together
// with the label of the percentile used.
func tailOf(samples []float64) (float64, string) {
	if len(samples) == 0 {
		return 0, "none"
	}
	p, label := tailPercentile(len(samples))
	if p == 0.5 {
		return median(samples), label
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, p), label
}

// summary is the latency and throughput of one measured pass.
type summary struct {
	P50Us     float64
	TailUs    float64
	TailLabel string
	PerS      float64 // operations completed per second
	Samples   int     // latencies behind the figures
	Windows   int     // measurement windows behind the medians
}

// summarizeSequential is for one client running operations back to back:
// every operation is its own measurement window, so the rate is the median
// of the per-operation rates, 1 / median latency.
func summarizeSequential(latUs []float64) summary {
	s := summary{P50Us: median(latUs), Samples: len(latUs), Windows: len(latUs)}
	s.TailUs, s.TailLabel = tailOf(latUs)
	if s.P50Us > 0 {
		s.PerS = 1e6 / s.P50Us
	}
	return s
}

// window is what the closed-loop clients completed in one slice of the
// measured phase: how many requests, and the latencies of the timed ones.
type window struct {
	done  int
	latUs []float64
}

// summarizeWindows reports the median over windows of each window's own
// p50, tail and rate, so that a stall of the machine spoils one window and
// not the run. All windows have the same length windowS.
func summarizeWindows(ws []window, windowS float64) summary {
	var p50s, tails, rates []float64
	s := summary{Windows: len(ws)}
	for _, w := range ws {
		s.Samples += len(w.latUs)
		tail, label := tailOf(w.latUs)
		s.TailLabel = label
		p50s, tails = append(p50s, median(w.latUs)), append(tails, tail)
		rates = append(rates, float64(w.done)/windowS)
	}
	s.P50Us, s.TailUs, s.PerS = median(p50s), median(tails), median(rates)
	return s
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method); it needs two
// values at least.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spreadShare is the distance between the quartiles of v as a share of its
// median: the run-to-run spread the driver holds against a metric's bound.
func spreadShare(v []float64) (float64, bool) {
	q1, q3, ok := quartiles(v)
	med := median(v)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// dueLatency is the latency of an operation on a fixed schedule, timed
// from when it was due rather than from when it started, so that a stall
// charges the operations queued behind it. Times are nanoseconds on one
// clock.
func dueLatency(dueNs, endNs int64) int64 { return endNs - dueNs }

// dueTime is when tick k of a schedule with the given period, started at
// startNs, is due.
func dueTime(startNs, periodNs int64, k int) int64 { return startNs + int64(k)*periodNs }
