package chunk

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
)

// snowflake is T = [S, K·R] whose attribute table R is itself a PK-FK
// normalized matrix [S_R, K_R·R_R]: a snowflake schema, built by closure
// with no type of its own. Every value is positive, so GNMF is defined,
// and TᵀT is non-singular, so the solvers are functions of T.
type snowflake struct {
	s     *la.Dense
	k     *la.Indicator
	inner *core.NormalizedMatrix // R
	outer *core.NormalizedMatrix // T
	y     *la.Dense
}

// newSnowflake builds an n-row snowflake whose inner arm R_R is dense or
// CSR. The same seed builds the same matrices with fresh indicators.
func newSnowflake(t *testing.T, seed int64, n int, csrArm bool) snowflake {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := func(n, domain int) *la.Indicator {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = int32(rng.Intn(domain))
		}
		return la.NewIndicatorInt32(ks, domain)
	}
	const nR, nRR = 23, 7
	var rr la.Mat = positiveDense(rng, nRR, 3)
	if csrArm {
		b := la.NewCSRBuilder(nRR, 3)
		for i := 0; i < nRR; i++ { // sparse, and every column is stored in several rows
			b.Add(i, i%3, rng.Float64()+0.05)
			if i%2 == 1 {
				b.Add(i, (i+1)%3, rng.Float64()+0.05)
			}
		}
		rr = b.Build()
	}
	inner, err := core.NewPKFK(positiveDense(rng, nR, 2), keys(nR, nRR), rr)
	if err != nil {
		t.Fatal(err)
	}
	sf := snowflake{s: positiveDense(rng, n, 3), k: keys(n, nR), inner: inner}
	if sf.outer, err = core.NewPKFK(sf.s, sf.k, inner); err != nil {
		t.Fatal(err)
	}
	sf.y = pmLabels(rng, n)
	return sf
}

// spill puts the snowflake out of core: S and the key column on disk, the
// nested attribute table held in memory as the arm's R.
func (sf snowflake) spill(t *testing.T, st *Store, chunkRows int) *NormalizedTable {
	t.Helper()
	nt, err := FromNormalized(st, sf.s, nil, []*la.Indicator{sf.k}, []la.Mat{sf.inner}, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func armName(csrArm bool) string {
	if csrArm {
		return "csr-arm"
	}
	return "dense-arm"
}

// relClose fails unless got is within 1e-12 of want, relative to want's
// largest magnitude (at least 1).
func relClose(t *testing.T, what string, got, want *la.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	scale := 1.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	if d := la.MaxAbsDiff(got, want); d > 1e-12*scale {
		t.Fatalf("%s: deviates by %g (scale %g)", what, d, scale)
	}
}

// TestSnowflakeInMemory: a normalized matrix as an attribute table. All
// seven algorithms through la.InMemory over the nested T agree with the
// same algorithms over its materialization, and so do the operators.
func TestSnowflakeInMemory(t *testing.T) {
	for _, csrArm := range []bool{false, true} {
		sf := newSnowflake(t, 27, 203, csrArm)
		mat := sf.outer.Dense()
		for _, algo := range closureAlgos {
			want := algo.memory(mat, sf.y)
			for i, got := range algo.memory(sf.outer, sf.y) {
				relClose(t, fmt.Sprintf("%s/%s part %d", algo.name, armName(csrArm), i), got, want[i])
			}
		}
		rng := rand.New(rand.NewSource(28))
		x, p := positiveDense(rng, mat.Cols(), 2), positiveDense(rng, mat.Rows(), 2)
		for _, c := range []struct {
			name      string
			got, want *la.Dense
		}{
			{"Ginv", sf.outer.Ginv(), la.Ginv(mat)},
			{"CrossProd", sf.outer.CrossProd(), mat.CrossProd()},
			{"ColSums", sf.outer.ColSums(), mat.ColSums()},
			{"RowSums", sf.outer.RowSums(), mat.RowSums()},
			{"Scale·Mul", sf.outer.Scale(2).Mul(x), mat.Scale(2).Mul(x)},
			{"TMul", sf.outer.TMul(p), mat.TMul(p)},
		} {
			relClose(t, c.name+"/"+armName(csrArm), c.got, c.want)
		}
	}
}

// TestSnowflakeChunked spills the snowflake with its nested attribute table
// held in memory: every algorithm's scan form agrees with the in-memory
// factorized run, Parallel is bit-identical to Serial, and every fit's
// output chunks are freed.
func TestSnowflakeChunked(t *testing.T) {
	for _, csrArm := range []bool{false, true} {
		st := testStore(t)
		defer st.Close()
		sf := newSnowflake(t, 27, 203, csrArm)
		nt := sf.spill(t, st, 32)
		base := st.LiveChunks()
		serial := map[string][]*la.Dense{}
		for _, ex := range []Exec{Serial, Parallel()} {
			for _, algo := range closureAlgos {
				cell := algo.name + "/" + armName(csrArm)
				fit, err := algo.chunked(nt.Operand(ex), sf.y)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				for i, want := range algo.memory(sf.outer, sf.y) {
					relClose(t, fmt.Sprintf("%s part %d", cell, i), fit.parts[i], want)
				}
				if ref, ok := serial[cell]; !ok {
					serial[cell] = fit.parts
				} else {
					for i := range ref {
						if la.MaxAbsDiff(fit.parts[i], ref[i]) != 0 {
							t.Fatalf("%s part %d: Parallel is not bit-identical to Serial", cell, i)
						}
					}
				}
				if err := fit.free(); err != nil {
					t.Fatal(err)
				}
				if got := st.LiveChunks(); got != base {
					t.Fatalf("%s: %d live chunks after the fit was freed, want %d", cell, got, base)
				}
			}
		}
		if err := nt.Free(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWidthDeterminismSnowflake: every algorithm over the snowflake, in
// memory and chunked under Exec{Workers: 0}, and the nested operators are
// bit-identical at GOMAXPROCS 1, 2 and 7. The join is large enough that
// the la kernels underneath fan out, and the matrices are rebuilt per
// width so that state their indicators cache is built at that width too.
func TestWidthDeterminismSnowflake(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	st := testStore(t)
	defer st.Close()
	const n = 12_000
	ref := map[string][]*la.Dense{}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, csrArm := range []bool{false, true} {
			sf := newSnowflake(t, 29, n, csrArm)
			nt := sf.spill(t, st, 1000)
			x := la.Ones(sf.outer.Cols(), 3)
			cells := map[string][]*la.Dense{
				"ops": {sf.outer.Mul(x), sf.outer.TMul(sf.y), sf.outer.CrossProd(), sf.outer.Ginv()},
			}
			for _, algo := range closureAlgos {
				cells["memory/"+algo.name] = algo.memory(sf.outer, sf.y)
				fit, err := algo.chunked(nt.Operand(Exec{Workers: 0}), sf.y)
				if err != nil {
					t.Fatal(err)
				}
				cells["chunked/"+algo.name] = fit.parts
				if err := fit.free(); err != nil {
					t.Fatal(err)
				}
			}
			if err := nt.Free(); err != nil {
				t.Fatal(err)
			}
			for name, parts := range cells {
				cell := name + "/" + armName(csrArm)
				want, ok := ref[cell]
				if !ok {
					ref[cell] = parts
					continue
				}
				for i := range want {
					if la.MaxAbsDiff(parts[i], want[i]) != 0 {
						t.Fatalf("%s part %d differs between GOMAXPROCS 1 and %d", cell, i, procs)
					}
				}
			}
		}
	}
}
