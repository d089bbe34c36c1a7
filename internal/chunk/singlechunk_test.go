package chunk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// bitsEqual fails unless got and want have the same shape and the same
// float64 bit patterns: −0 against +0 counts as a difference.
func bitsEqual(t *testing.T, what string, got, want *la.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (bits %#x), want %v (bits %#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// signedZeros writes +0 and −0 into a few cells of d, so that a kernel
// that adds a partial into a zeroed accumulator instead of taking it shows.
func signedZeros(rng *rand.Rand, d *la.Dense) *la.Dense {
	for i := 0; i < len(d.Data())/7; i++ {
		d.Data()[rng.Intn(len(d.Data()))] = math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	return d
}

// TestSingleChunkBitwise: a chunked table held in one chunk runs the same
// core kernels in the same order as la.InMemory over the normalized matrix
// it was spilled from, so every operator and all seven algorithms agree
// with it bit for bit — under Serial and under a parallel Exec — on a
// PK-FK join, a star with a CSR arm, an M:N join and a snowflake.
func TestSingleChunkBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 203
	keys := func(domain int) *la.Indicator {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = int32(rng.Intn(domain))
		}
		return la.NewIndicatorInt32(ks, domain)
	}
	type schema struct {
		name string
		nm   *core.NormalizedMatrix
	}
	var schemas []schema
	add := func(name string, nm *core.NormalizedMatrix, err error) {
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, schema{name, nm})
	}
	pkfk, err := core.NewPKFK(signedZeros(rng, positiveDense(rng, n, 3)), keys(11), signedZeros(rng, positiveDense(rng, 11, 5)))
	add("pkfk", pkfk, err)
	star, err := core.NewStar(signedZeros(rng, positiveDense(rng, n, 2)), []*la.Indicator{keys(9), keys(7)},
		[]la.Mat{signedZeros(rng, positiveDense(rng, 9, 4)), oneHotCSR(rng, 7, 1, 3)})
	add("star-csr-arm", star, err)
	mn, err := core.NewMN(signedZeros(rng, positiveDense(rng, 37, 3)), keys(37), keys(29), signedZeros(rng, positiveDense(rng, 29, 4)))
	add("mn", mn, err)
	sf := newSnowflake(t, 33, n, true)
	add("snowflake", sf.outer, nil)

	y := pmLabels(rng, n)
	x := signedZeros(rng, positiveDense(rng, pkfk.Cols(), 3))
	groups := make([]int32, n)
	for i := range groups {
		groups[i] = int32(rng.Intn(4))
	}
	groupStep := la.Step{PCols: 4, Do: func(la.Block, *la.Dense, []float64) (la.Result, error) {
		return la.Result{Groups: groups}, nil
	}}
	for _, sc := range schemas {
		st := testStore(t)
		nt, err := FromNormalized(st, sc.nm.S(), sc.nm.IS(), sc.nm.Ks(), sc.nm.Rs(), n+5)
		if err != nil {
			t.Fatal(err)
		}
		mem := la.InMemory(sc.nm)
		x := x
		if x.Rows() != sc.nm.Cols() {
			x = signedZeros(rng, positiveDense(rng, sc.nm.Cols(), 3))
		}
		p := signedZeros(rng, positiveDense(rng, n, 2))
		for _, ex := range []Exec{Serial, Parallel()} {
			cell := func(what string) string { return fmt.Sprintf("%s/%+v/%s", sc.name, ex, what) }
			op := nt.Operand(ex)
			if op.rows.NumChunks() != 1 {
				t.Fatalf("%s: %d chunks, want one", sc.name, op.rows.NumChunks())
			}
			tx, err := mulExec(nt.Operand(ex), x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Dense()
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, cell("Mul"), got, sc.nm.Mul(x))
			tx.Free()

			got, err = la.ScanTMul(op, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := la.ScanTMul(mem, p)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, cell("TMul"), got, want)

			_, got, err = op.Scan(groupStep, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, want, _ = mem.Scan(groupStep, nil)
			bitsEqual(t, cell("GroupTMul"), got, want)

			got, err = op.Gram()
			if err != nil {
				t.Fatal(err)
			}
			want, _ = mem.Gram()
			bitsEqual(t, cell("Gram"), got, want)

			tm, err := nt.Materialize(ex)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = tm.Dense(); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, cell("Materialize"), got, sc.nm.Dense())
			tm.Free()

			for _, algo := range closureAlgos {
				fit, err := algo.chunked(nt.Operand(ex), y)
				if err != nil {
					t.Fatalf("%s: %v", cell(algo.name), err)
				}
				for i, want := range algo.memory(sc.nm, y) {
					bitsEqual(t, cell(fmt.Sprintf("%s part %d", algo.name, i)), fit.parts[i], want)
				}
				if err := fit.free(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := nt.Free(); err != nil {
			t.Fatal(err)
		}
	}
}
