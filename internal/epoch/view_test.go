package epoch

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestViewMulBitwise: Mul over a patched view equals the materialized
// table's Mul bit for bit, on dense and CSR bases, for X one, five
// (narrow kernel) and seventeen (wide kernel) columns wide, with overlay
// rows holding +0, −0 and an all-zero row.
func TestViewMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const rows, cols = 41, 23
	negZero := math.Copysign(0, -1)
	for _, sparse := range []bool{false, true} {
		overlay := map[int32][]float64{}
		for _, r := range []int32{0, 3, 4, 17, 40} {
			row := randRow(rng, cols)
			row[1], row[5], row[cols-1] = 0, negZero, negZero
			overlay[r] = row
		}
		overlay[9] = make([]float64, cols)
		v := &viewMat{base: randMatE(rng, rows, cols, sparse), overlay: overlay}
		for _, k := range []int{1, 5, 17} {
			x := randDense(rng, cols, k)
			x.Data()[0] = negZero
			got := v.Mul(x).Data()
			want := v.materialize().Mul(x).Data()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sparse=%v k=%d: element %d is %g, materialized %g", sparse, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestViewMulAllocs: Mul over a fresh 100k-row view with ten overlay
// rows allocates its output and a few row headers — less than twice the
// output — not a copy of the table.
func TestViewMulAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const rows, cols = 100_000, 10
	for _, sparse := range []bool{false, true} {
		overlay := map[int32][]float64{}
		for len(overlay) < 10 {
			overlay[int32(rng.Intn(rows))] = randRow(rng, cols)
		}
		base, x := randMatE(rng, rows, cols, sparse), randDense(rng, cols, 1)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { (&viewMat{base: base, overlay: overlay}).Mul(x) })
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call besides the measured runs.
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		if out := float64(8 * rows); perCall >= 2*out {
			t.Errorf("sparse=%v: Mul allocates %.0f bytes in %v allocations per call for an %.0f-byte output",
				sparse, perCall, allocs, out)
		}
	}
}
