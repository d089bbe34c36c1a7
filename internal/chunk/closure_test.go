package chunk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/la"
	"repro/internal/ml"
)

// Test shorthands over the one entry point per algorithm: an ml scan-form
// fit over a chunked operand, with the bytes its scans read from the
// table's store (IOStats deltas: the store keeps the one tally).

type glmFit struct {
	W         *la.Dense
	BytesRead int64
}

type kmFit struct {
	Centroids *la.Dense
	Assign    *Matrix
	Objective float64
	BytesRead int64
}

type gnmfFit struct {
	W         *Matrix
	H         *la.Dense
	BytesRead int64
}

func logRegOver(st *Store, t la.Operand, y *la.Dense, iters int, alpha float64) (*glmFit, error) {
	before := st.IOStats().BytesRead
	w, err := ml.LogRegScan(t, y, nil, ml.Options{Iters: iters, StepSize: alpha})
	if err != nil {
		return nil, err
	}
	return &glmFit{W: w, BytesRead: st.IOStats().BytesRead - before}, nil
}

func logRegM(ex Exec, t Mat, y *la.Dense, iters int, alpha float64) (*glmFit, error) {
	return logRegOver(t.Store(), MatOperand(ex, t), y, iters, alpha)
}

func logRegF(ex Exec, nt *NormalizedTable, y *la.Dense, iters int, alpha float64) (*glmFit, error) {
	return logRegOver(nt.scanned().Store(), nt.Operand(ex), y, iters, alpha)
}

func kMeans(ex Exec, t Mat, k, iters int, seed int64) (*kmFit, error) {
	before := t.Store().IOStats().BytesRead
	fit, err := ml.KMeansScan(MatOperand(ex, t), k, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &kmFit{Centroids: fit.Centroids, Assign: fit.Assign.(*Matrix), Objective: fit.Objective,
		BytesRead: t.Store().IOStats().BytesRead - before}, nil
}

func gnmf(ex Exec, t Mat, rank, iters int, seed int64) (*gnmfFit, error) {
	before := t.Store().IOStats().BytesRead
	fit, err := ml.GNMFScan(MatOperand(ex, t), rank, ml.Options{Iters: iters, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &gnmfFit{W: fit.W.(*Matrix), H: fit.H, BytesRead: t.Store().IOStats().BytesRead - before}, nil
}

// The closure matrix: every algorithm × every chunked representation ×
// every way of executing a scan. One table instead of one file per driver,
// because there is one stack: each cell is ml's scan form over an operand.

// closureOperand is one chunked representation with the in-memory matrix
// it must agree with.
type closureOperand struct {
	name string
	op   func(Exec) *Operand
	mem  la.Matrix
	y    *la.Dense
	// registered reports whether every block is a stored chunk, so the
	// k-means assignment step runs as the registered op (and ships to
	// exec-capable shards).
	registered bool
}

// closureOperands spills the five representations into st. Everything is
// non-negative so that GNMF is defined on all of them, and every row count
// leaves a ragged last chunk.
func closureOperands(t *testing.T, st *Store) []closureOperand {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const n, cr = 203, 32
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := func(n, domain int) []int32 {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = int32(rng.Intn(domain))
		}
		return ks
	}
	// join materializes [S, R_1[k_1], …] row by row.
	join := func(s *la.Dense, ks [][]int32, rs []*la.Dense) *la.Dense {
		d := 0
		if s != nil {
			d = s.Cols()
		}
		for _, r := range rs {
			d += r.Cols()
		}
		out := la.NewDense(len(ks[0]), d)
		for i := 0; i < out.Rows(); i++ {
			row := out.Row(i)
			if s != nil {
				row = row[copy(row, s.Row(i)):]
			}
			for a, r := range rs {
				row = row[copy(row, r.Row(int(ks[a][i]))):]
			}
		}
		return out
	}
	var ops []closureOperand

	dense := positiveDense(rng, n, 9)
	dm, err := FromDense(st, dense, cr)
	must(err)
	ops = append(ops, closureOperand{"dense", func(ex Exec) *Operand { return MatOperand(ex, dm) }, dense, pmLabels(rng, n), true})

	csr := oneHotCSR(rng, n, 3, 4)
	sm, err := FromCSR(st, csr, cr)
	must(err)
	ops = append(ops, closureOperand{"csr", func(ex Exec) *Operand { return MatOperand(ex, sm) }, csr, pmLabels(rng, n), true})

	s1, r1, k1 := positiveDense(rng, n, 3), positiveDense(rng, 11, 5), keys(n, 11)
	s1m, err := FromDense(st, s1, cr)
	must(err)
	fk1, err := BuildIntVector(st, k1, cr)
	must(err)
	pkfk, err := NewNormalizedTable(s1m, fk1, r1)
	must(err)
	ops = append(ops, closureOperand{"pkfk", pkfk.Operand, join(s1, [][]int32{k1}, []*la.Dense{r1}), pmLabels(rng, n), false})

	// One one-hot group: a second would make TᵀT singular, and the normal
	// equations of a singular system are not a function of T to 1e-12.
	s2, ra, rb := positiveDense(rng, n, 2), positiveDense(rng, 9, 4), oneHotCSR(rng, 7, 1, 3)
	ka, kb := keys(n, 9), keys(n, 7)
	s2m, err := FromDense(st, s2, cr)
	must(err)
	fka, err := BuildIntVector(st, ka, cr)
	must(err)
	fkb, err := BuildIntVector(st, kb, cr)
	must(err)
	star, err := NewStarTable(s2m, []AttrTable{{FK: fka, R: ra}, {FK: fkb, R: rb}})
	must(err)
	ops = append(ops, closureOperand{"star", star.Operand, join(s2, [][]int32{ka, kb}, []*la.Dense{ra, rb.Dense()}), pmLabels(rng, n), false})

	bs, br := positiveDense(rng, 37, 3), positiveDense(rng, 29, 4)
	is, ir := keys(n, 37), keys(n, 29)
	bsm, err := FromDense(st, bs, 16)
	must(err)
	brm, err := FromDense(st, br, 16)
	must(err)
	isv, err := BuildIntVector(st, is, cr)
	must(err)
	irv, err := BuildIntVector(st, ir, cr)
	must(err)
	mn, err := NewStarTable(nil, []AttrTable{{FK: isv, Disk: bsm}, {FK: irv, Disk: brm}})
	must(err)
	ops = append(ops, closureOperand{"mn", mn.Operand, join(nil, [][]int32{is, ir}, []*la.Dense{bs, br}), pmLabels(rng, n), false})
	return ops
}

// closureFit is one algorithm's whole result as flat matrices, so cells
// compare with one loop; free releases its n-tall outputs.
type closureFit struct {
	parts []*la.Dense
	free  func() error
}

type closureAlgo struct {
	name    string
	chunked func(t la.Operand, y *la.Dense) (closureFit, error)
	memory  func(t la.Matrix, y *la.Dense) []*la.Dense
}

var closureAlgos = []closureAlgo{
	{"logreg", oneShot(func(t la.Operand, y *la.Dense) (*la.Dense, error) {
		return ml.LogRegScan(t, y, nil, ml.Options{Iters: 4, StepSize: 1e-3})
	}), func(t la.Matrix, y *la.Dense) []*la.Dense {
		w, _ := ml.LogisticRegressionGD(t, y, nil, ml.Options{Iters: 4, StepSize: 1e-3})
		return []*la.Dense{w}
	}},
	{"kmeans", func(t la.Operand, _ *la.Dense) (closureFit, error) {
		fit, err := ml.KMeansScan(t, 4, ml.Options{Iters: 3, Seed: 7})
		if err != nil {
			return closureFit{}, err
		}
		ids, err := fit.Assign.(*Matrix).Dense()
		return closureFit{[]*la.Dense{fit.Centroids, ids, la.ColVector([]float64{fit.Objective})}, fit.Assign.Free}, err
	}, func(t la.Matrix, _ *la.Dense) []*la.Dense {
		res, _ := ml.KMeans(t, 4, ml.Options{Iters: 3, Seed: 7})
		ids := la.NewDense(len(res.Assign), 1)
		for i, a := range res.Assign {
			ids.Data()[i] = float64(a)
		}
		return []*la.Dense{res.Centroids, ids, la.ColVector([]float64{res.Objective})}
	}},
	{"gnmf", func(t la.Operand, _ *la.Dense) (closureFit, error) {
		fit, err := ml.GNMFScan(t, 3, ml.Options{Iters: 3, Seed: 11})
		if err != nil {
			return closureFit{}, err
		}
		w, err := fit.W.(*Matrix).Dense()
		return closureFit{[]*la.Dense{fit.H, w}, fit.W.Free}, err
	}, func(t la.Matrix, _ *la.Dense) []*la.Dense {
		res, _ := ml.GNMF(t, 3, ml.Options{Iters: 3, Seed: 11})
		return []*la.Dense{res.H, res.W}
	}},
	// The one-shot solvers: Operand.Gram, then one scan for Tᵀ·y.
	{"ne", oneShot(func(t la.Operand, y *la.Dense) (*la.Dense, error) { return ml.LinRegNEScan(t, y) }),
		func(t la.Matrix, y *la.Dense) []*la.Dense {
			w, _ := ml.LinearRegressionNE(t, y)
			return []*la.Dense{w}
		}},
	{"ridge", oneShot(func(t la.Operand, y *la.Dense) (*la.Dense, error) { return ml.RidgeScan(t, y, 0.5) }),
		func(t la.Matrix, y *la.Dense) []*la.Dense {
			w, _ := ml.RidgeRegression(t, y, 0.5)
			return []*la.Dense{w}
		}},
	{"cofactor", oneShot(func(t la.Operand, y *la.Dense) (*la.Dense, error) {
		return ml.CofactorScan(t, y, nil, ml.Options{Iters: 5, StepSize: 0.1})
	}), func(t la.Matrix, y *la.Dense) []*la.Dense {
		w, _ := ml.LinearRegressionCofactor(t, y, nil, ml.Options{Iters: 5, StepSize: 0.1})
		return []*la.Dense{w}
	}},
	{"pca", func(t la.Operand, _ *la.Dense) (closureFit, error) {
		fit, err := ml.PCAScan(t, 2)
		if err != nil {
			return closureFit{}, err
		}
		return closureFit{[]*la.Dense{fit.Components, la.ColVector(fit.Variances)}, func() error { return nil }}, nil
	}, func(t la.Matrix, _ *la.Dense) []*la.Dense {
		fit, _ := ml.PCA(t, 2)
		return []*la.Dense{fit.Components, la.ColVector(fit.Variances)}
	}},
}

// oneShot adapts a solver that returns one weight vector and spills nothing.
func oneShot(fit func(la.Operand, *la.Dense) (*la.Dense, error)) func(la.Operand, *la.Dense) (closureFit, error) {
	return func(t la.Operand, y *la.Dense) (closureFit, error) {
		w, err := fit(t, y)
		return closureFit{[]*la.Dense{w}, func() error { return nil }}, err
	}
}

// usesGram lists the algorithms whose first pass is Operand.Gram: on a
// materialized operand that is the registered crossprod op.
var usesGram = map[string]bool{"ne": true, "ridge": true, "cofactor": true, "pca": true}

// failingBackend fails every ReadChunk once its countdown of allowed reads
// is used up, and keeps failing until it is re-armed: a read a cancelled
// pipeline's reader still had in flight can use up an allowed read, but
// never the failure itself.
type failingBackend struct {
	Backend
	left atomic.Int64
}

const neverFail = math.MaxInt64

var errInjectedRead = errors.New("injected read failure")

func (b *failingBackend) ReadChunk(key string) ([]byte, error) {
	if b.left.Add(-1) < 0 {
		return nil, errInjectedRead
	}
	return b.Backend.ReadChunk(key)
}

// TestClosureMatrix: {LogReg, k-means, GNMF, normal equations, ridge,
// co-factor, PCA} × {chunked dense, CSR, PK-FK,
// 2-arm star with a CSR arm, M:N} × {Serial, Parallel, a 2-shard store,
// pushdown through in-process chunkd workers}. Every cell agrees with the
// in-memory ml run on the equivalent matrix to 1e-12, every execution is
// bit-identical to Serial, and the chunk ledger returns to its baseline —
// also after a backend failure injected in the middle of a scan.
func TestClosureMatrix(t *testing.T) {
	failing := &failingBackend{}
	failing.left.Store(neverFail)
	configs := []struct {
		name  string
		ex    Exec
		store func(t *testing.T) *Store
	}{
		// First: the bitwise reference, on the store failures are injected into.
		{"serial", Serial, func(t *testing.T) *Store {
			inner, err := NewDirBackend(filepath.Join(t.TempDir(), "flaky"))
			if err != nil {
				t.Fatal(err)
			}
			failing.Backend = inner
			st, err := NewShardedStoreBackends([]Backend{failing}, RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"parallel", Exec{Workers: 4}, testStore},
		{"sharded", Parallel(), func(t *testing.T) *Store {
			st, _ := testShardedStore(t, 2, RoundRobin)
			return st
		}},
		// Two in-process chunkd workers beside a local shard: placement is
		// the store's, so the same Exec runs registered steps on them.
		{"pushdown", Exec{Workers: 3}, func(t *testing.T) *Store {
			st, _ := pushdownStore(t, 2)
			return st
		}},
	}
	const tol = 1e-12
	serial := map[string][]*la.Dense{}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			st := cfg.store(t)
			defer st.Close()
			ops := closureOperands(t, st)
			base := st.LiveChunks()
			for _, op := range ops {
				for _, algo := range closureAlgos {
					cell := algo.name + "/" + op.name
					before := st.IOStats().ChunksExecuted
					fit, err := algo.chunked(op.op(cfg.ex), op.y)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					for i, want := range algo.memory(op.mem, op.y) {
						scale := 1.0
						for _, v := range want.Data() {
							scale = math.Max(scale, math.Abs(v))
						}
						if diff := la.MaxAbsDiff(fit.parts[i], want); diff > tol*scale {
							t.Fatalf("%s part %d: chunked deviates from in-memory ml by %g (scale %g)", cell, i, diff, scale)
						}
					}
					if ref, ok := serial[cell]; !ok {
						serial[cell] = fit.parts
					} else {
						for i := range ref {
							if la.MaxAbsDiff(fit.parts[i], ref[i]) != 0 {
								t.Fatalf("%s part %d: %s is not bit-identical to Serial", cell, i, cfg.name)
							}
						}
					}
					// Observed placement: registered steps over stored chunks
					// ran on the workers; closure steps never do.
					executed := st.IOStats().ChunksExecuted - before
					if cfg.name == "pushdown" && (algo.name == "kmeans" || usesGram[algo.name]) && op.registered && executed == 0 {
						t.Fatalf("%s: the registered step (k-means assignment, Gram's crossprod) was never executed on a shard", cell)
					}
					if (algo.name == "logreg" || algo.name == "gnmf") && executed != 0 {
						t.Fatalf("%s: %d chunks executed on a shard, but its steps are closures", cell, executed)
					}
					if err := fit.free(); err != nil {
						t.Fatal(err)
					}
					if got := st.LiveChunks(); got != base {
						t.Fatalf("%s: %d live chunks after the fit was freed, want the baseline %d", cell, got, base)
					}
				}
			}
			if cfg.name != "serial" {
				return
			}
			// Injected failure: the (k+1)-th chunk read of each fit fails;
			// the error surfaces and no output chunk outlives the fit.
			for _, op := range ops {
				for _, algo := range closureAlgos {
					for _, ex := range []Exec{Serial, {Workers: 3}} {
						failing.left.Store(9)
						_, err := algo.chunked(op.op(ex), op.y)
						failing.left.Store(neverFail)
						if !errors.Is(err, errInjectedRead) {
							t.Fatalf("%s/%s under %+v: err = %v, want the injected read failure", algo.name, op.name, ex, err)
						}
						if got := st.LiveChunks(); got != base {
							t.Fatalf("%s/%s under %+v: failed fit left %d live chunks, want %d", algo.name, op.name, ex, got, base)
						}
					}
				}
			}
		})
	}
}

// TestScanReadsPerIteration pins the I/O shape of every algorithm from the
// store's own counters: a GLM iteration reads its operand once, k-means
// reads it iters+1 times (the final assignment pass), GNMF twice per
// iteration plus the aligned W generation each time, and an M:N scan adds
// one pass over the base tables to prepare a product and one to finish a
// reduction. The normal equations read T twice — the Gram pass, then the
// scan for Tᵀ·y (Gram is a method, not a step that could carry both: see
// la.Operand) — which on a star is S and the key columns only, and on an
// M:N join the base tables once per pass (loaded whole for Gram, streamed
// to finish Tᵀ·y).
func TestScanReadsPerIteration(t *testing.T) {
	st := testStore(t)
	ops := closureOperands(t, st)
	reads := func(f func()) int {
		before := st.IOStats().ChunksRead
		f()
		return st.IOStats().ChunksRead - before
	}
	const chunks = 7     // ⌈203/32⌉ scan blocks
	const baseChunks = 5 // ⌈37/16⌉ + ⌈29/16⌉ chunks of the M:N base tables
	perScan := map[string]int{"dense": chunks, "csr": chunks, "pkfk": 2 * chunks, "star": 3 * chunks, "mn": 2 * chunks}
	for _, op := range ops {
		scan, arms := perScan[op.name], 0
		if op.name == "mn" {
			arms = baseChunks
		}
		got := reads(func() {
			if _, err := ml.LinRegNEScan(op.op(Parallel()), op.y); err != nil {
				t.Fatal(err)
			}
		})
		if want := 2 * (scan + arms); got != want {
			t.Fatalf("ne/%s read %d chunks, want %d", op.name, got, want)
		}
		for _, iters := range []int{1, 3} {
			got = reads(func() {
				if _, err := ml.LogRegScan(op.op(Parallel()), op.y, nil, ml.Options{Iters: iters, StepSize: 1e-3}); err != nil {
					t.Fatal(err)
				}
			})
			if want := iters * (scan + 2*arms); got != want { // arms: one pass for T·w, one for Tᵀ·p
				t.Fatalf("logreg/%s ×%d read %d chunks, want %d", op.name, iters, got, want)
			}
			got = reads(func() {
				fit, err := ml.KMeansScan(op.op(Parallel()), 3, ml.Options{Iters: iters, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				fit.Assign.Free()
			})
			// arms: T·(2C) every scan, Tᵀ·A every iteration, the row norms once.
			if want := (iters+1)*scan + (2*iters+1+1)*arms; got != want {
				t.Fatalf("kmeans/%s ×%d read %d chunks, want %d", op.name, iters, got, want)
			}
			got = reads(func() {
				fit, err := ml.GNMFScan(op.op(Parallel()), 2, ml.Options{Iters: iters, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				fit.W.Free()
			})
			// Two scans an iteration, each beside the W chunks; arms: Tᵀ·W and T·H.
			if want := iters * (2*(scan+chunks) + 2*arms); got != want {
				t.Fatalf("gnmf/%s ×%d read %d chunks, want %d", op.name, iters, got, want)
			}
		}
	}
}

// TestWidthDeterminismChunked: no chunked result may depend on the
// machine's core count. Exec{Workers: 0} sizes its worker pool (and
// Parallel() its prefetch) from GOMAXPROCS; every algorithm of the closure
// matrix, and Gram by itself, must be bit-identical at widths 1, 2 and 7
// on every operand.
func TestWidthDeterminismChunked(t *testing.T) {
	st := testStore(t)
	ops := closureOperands(t, st)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	algos := append(slices.Clip(closureAlgos), closureAlgo{name: "gram", chunked: oneShot(func(t la.Operand, _ *la.Dense) (*la.Dense, error) {
		return t.Gram()
	})})
	ref := map[string][]*la.Dense{}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, op := range ops {
			for _, algo := range algos {
				fit, err := algo.chunked(op.op(Exec{Workers: 0}), op.y)
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("%s/%s", algo.name, op.name)
				if want, ok := ref[cell]; !ok {
					ref[cell] = fit.parts
				} else {
					for i := range want {
						if la.MaxAbsDiff(fit.parts[i], want[i]) != 0 {
							t.Fatalf("%s part %d differs between GOMAXPROCS 1 and %d", cell, i, procs)
						}
					}
				}
				fit.free()
			}
		}
	}
}
