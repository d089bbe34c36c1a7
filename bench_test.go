package repro

// One testing.B benchmark family per table/figure of the paper's
// evaluation. Each family runs the materialized (M) and factorized (F)
// strategies as sub-benchmarks on the same generated data, so
// `go test -bench=. -benchmem` regenerates every experiment's comparison at
// reduced, fixed dimensions; `cmd/morpheus-bench` runs the full sweeps and
// prints paper-style tables (each experiment id names its paper table or
// figure; `morpheus-bench -list` enumerates them).

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/orion"
	"repro/internal/realdata"
	"repro/internal/serve"
)

// benchPKFK generates the scaled Table 4 dataset for a TR×FR cell.
func benchPKFK(b *testing.B, tr int, fr float64) (*core.NormalizedMatrix, *la.Dense) {
	b.Helper()
	nR := 1000
	spec := datagen.PKFKSpec{NS: tr * nR, DS: 20, NR: nR, DR: int(fr * 20), Seed: 1}
	nm, err := datagen.PKFK(spec)
	if err != nil {
		b.Fatal(err)
	}
	return nm, nm.Dense()
}

// benchMN generates the scaled Table 5 dataset for a uniqueness degree.
func benchMN(b *testing.B, nS int, deg float64) (*core.NormalizedMatrix, *la.Dense) {
	b.Helper()
	nU := int(deg * float64(nS))
	if nU < 1 {
		nU = 1
	}
	nm, err := datagen.MN(datagen.MNSpec{NS: nS, NR: nS, DS: 50, DR: 50, NU: nU, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return nm, nm.Dense()
}

// mfBench runs op on the materialized and factorized operand.
func mfBench(b *testing.B, nm *core.NormalizedMatrix, td *la.Dense, op func(la.Matrix)) {
	b.Helper()
	b.Run("M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op(td)
		}
	})
	b.Run("F", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op(nm)
		}
	})
}

// --- Figure 3: PK-FK operator speed-ups ---

func BenchmarkFig3ScalarMul(b *testing.B) {
	for _, cell := range []struct {
		tr int
		fr float64
	}{{5, 1}, {20, 4}} {
		nm, td := benchPKFK(b, cell.tr, cell.fr)
		b.Run(fmt.Sprintf("TR%d_FR%g", cell.tr, cell.fr), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) { m.Scale(3) })
		})
	}
}

func BenchmarkFig3LMM(b *testing.B) {
	for _, cell := range []struct {
		tr int
		fr float64
	}{{5, 1}, {20, 4}} {
		nm, td := benchPKFK(b, cell.tr, cell.fr)
		x := la.Ones(td.Cols(), 2)
		b.Run(fmt.Sprintf("TR%d_FR%g", cell.tr, cell.fr), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) { m.Mul(x) })
		})
	}
}

func BenchmarkFig3CrossProd(b *testing.B) {
	for _, cell := range []struct {
		tr int
		fr float64
	}{{5, 1}, {20, 4}} {
		nm, td := benchPKFK(b, cell.tr, cell.fr)
		b.Run(fmt.Sprintf("TR%d_FR%g", cell.tr, cell.fr), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) { m.CrossProd() })
		})
	}
}

func BenchmarkFig3Ginv(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	mfBench(b, nm, td, func(m la.Matrix) { m.Ginv() })
}

// --- Figure 6/7 (appendix): remaining Table 1 operators ---

func BenchmarkFig6ScalarAdd(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	mfBench(b, nm, td, func(m la.Matrix) { m.AddScalar(1) })
}

func BenchmarkFig6RMM(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	x := la.Ones(2, td.Rows())
	mfBench(b, nm, td, func(m la.Matrix) { m.LeftMul(x) })
}

func BenchmarkFig6RowSums(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	mfBench(b, nm, td, func(m la.Matrix) { m.RowSums() })
}

func BenchmarkFig6ColSums(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	mfBench(b, nm, td, func(m la.Matrix) { m.ColSums() })
}

func BenchmarkFig6Sum(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	mfBench(b, nm, td, func(m la.Matrix) { m.Sum() })
}

// --- Figure 4 / 11 / 12: M:N join operators ---

func BenchmarkFig4MNLMM(b *testing.B) {
	for _, deg := range []float64{0.01, 0.1} {
		nm, td := benchMN(b, 1000, deg)
		x := la.Ones(td.Cols(), 2)
		b.Run(fmt.Sprintf("deg%g", deg), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) { m.Mul(x) })
		})
	}
}

func BenchmarkFig4MNCrossProd(b *testing.B) {
	for _, deg := range []float64{0.01, 0.1} {
		nm, td := benchMN(b, 1000, deg)
		b.Run(fmt.Sprintf("deg%g", deg), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) { m.CrossProd() })
		})
	}
}

func BenchmarkFig11MNAggregates(b *testing.B) {
	nm, td := benchMN(b, 1000, 0.05)
	b.Run("rowSums", func(b *testing.B) {
		mfBench(b, nm, td, func(m la.Matrix) { m.RowSums() })
	})
	b.Run("colSums", func(b *testing.B) {
		mfBench(b, nm, td, func(m la.Matrix) { m.ColSums() })
	})
	b.Run("sum", func(b *testing.B) {
		mfBench(b, nm, td, func(m la.Matrix) { m.Sum() })
	})
}

func BenchmarkFig12MNRMM(b *testing.B) {
	nm, td := benchMN(b, 1000, 0.05)
	x := la.Ones(2, td.Rows())
	mfBench(b, nm, td, func(m la.Matrix) { m.LeftMul(x) })
}

// --- Figure 5 / 8 / 9 / 10: the four ML algorithms ---

func BenchmarkFig5LogReg(b *testing.B) {
	for _, fr := range []float64{2, 4} {
		nm, td := benchPKFK(b, 20, fr)
		y := datagen.Labels(nm, 0, true, 1)
		opt := ml.Options{Iters: 20, StepSize: 1e-6}
		b.Run(fmt.Sprintf("FR%g", fr), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) {
				if _, err := ml.LogisticRegressionGD(m, y, nil, opt); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkFig5LinRegNE(b *testing.B) {
	for _, fr := range []float64{2, 4} {
		nm, td := benchPKFK(b, 20, fr)
		y := datagen.Labels(nm, 0, false, 1)
		b.Run(fmt.Sprintf("FR%g", fr), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) {
				if _, err := ml.LinearRegressionNE(m, y); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkFig5KMeans(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	opt := ml.Options{Iters: 20, Seed: 7}
	mfBench(b, nm, td, func(m la.Matrix) {
		if _, err := ml.KMeans(m, 10, opt); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig5GNMF(b *testing.B) {
	nm, _ := benchPKFK(b, 20, 2)
	pos := nm.Apply(math.Abs).(*core.NormalizedMatrix)
	td := pos.Dense()
	opt := ml.Options{Iters: 20, Seed: 7}
	mfBench(b, pos, td, func(m la.Matrix) {
		if _, err := ml.GNMF(m, 5, opt); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig8LinRegGD(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	y := datagen.Labels(nm, 0, false, 1)
	opt := ml.Options{Iters: 20, StepSize: 1e-8}
	mfBench(b, nm, td, func(m la.Matrix) {
		if _, err := ml.LinearRegressionGD(m, y, nil, opt); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig9LogRegIters(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	y := datagen.Labels(nm, 0, true, 1)
	for _, iters := range []int{5, 20} {
		opt := ml.Options{Iters: iters, StepSize: 1e-6}
		b.Run(fmt.Sprintf("iters%d", iters), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) {
				if _, err := ml.LogisticRegressionGD(m, y, nil, opt); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkFig10KMeansCentroids(b *testing.B) {
	nm, td := benchPKFK(b, 10, 2)
	for _, k := range []int{5, 20} {
		opt := ml.Options{Iters: 10, Seed: 7}
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			mfBench(b, nm, td, func(m la.Matrix) {
				if _, err := ml.KMeans(m, k, opt); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkFig10GNMFTopics(b *testing.B) {
	nm, _ := benchPKFK(b, 10, 2)
	pos := nm.Apply(math.Abs).(*core.NormalizedMatrix)
	td := pos.Dense()
	for _, topics := range []int{2, 10} {
		opt := ml.Options{Iters: 10, Seed: 7}
		b.Run(fmt.Sprintf("topics%d", topics), func(b *testing.B) {
			mfBench(b, pos, td, func(m la.Matrix) {
				if _, err := ml.GNMF(m, topics, opt); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// --- Table 7: real-data clones ---

func BenchmarkTable7LogReg(b *testing.B) {
	for _, spec := range realdata.Specs() {
		ds, err := realdata.Generate(spec.Scaled(400), 1)
		if err != nil {
			b.Fatal(err)
		}
		sp := ds.Norm.Sparse()
		y := ds.BinaryY()
		opt := ml.Options{Iters: 20, StepSize: 1e-6}
		b.Run(spec.Name, func(b *testing.B) {
			b.Run("M", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ml.LogisticRegressionGD(sp, y, nil, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("F", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ml.LogisticRegressionGD(ds.Norm, y, nil, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkTable7LinReg(b *testing.B) {
	spec := realdata.Specs()[1] // Movies
	ds, err := realdata.Generate(spec.Scaled(400), 1)
	if err != nil {
		b.Fatal(err)
	}
	sp := ds.Norm.Sparse()
	b.Run("M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LinearRegressionNE(sp, ds.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("F", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LinearRegressionNE(ds.Norm, ds.Y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 8: Orion baseline comparison ---

func BenchmarkTable8OrionVsMorpheus(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	y := datagen.Labels(nm, 0, true, 1)
	glm, err := orion.NewGLM(nm.S().Dense(), nm.Rs()[0].Dense(), nm.Ks()[0].Assignments())
	if err != nil {
		b.Fatal(err)
	}
	const iters, alpha = 10, 1e-6
	opt := ml.Options{Iters: iters, StepSize: alpha}
	b.Run("Materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogisticRegressionGD(td, y, nil, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Orion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := glm.LogisticGD(y, iters, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Morpheus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogisticRegressionGD(nm, y, nil, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Tables 9/10: out-of-core (ORE substitute) ---

func BenchmarkTable9OutOfCore(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	y := datagen.Labels(nm, 0, true, 1)
	store := dirStore(b)
	tM, err := chunk.FromDense(store, td, 2048)
	if err != nil {
		b.Fatal(err)
	}
	sM, err := chunk.FromDense(store, nm.S().Dense(), 2048)
	if err != nil {
		b.Fatal(err)
	}
	fkv, err := chunk.BuildIntVector(store, nm.Ks()[0].Assignments(), 2048)
	if err != nil {
		b.Fatal(err)
	}
	nt, err := chunk.NewNormalizedTable(sM, fkv, nm.Rs()[0].Dense())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogRegScan(chunk.MatOperand(chunk.Parallel(), tM), y, nil, ml.Options{Iters: 2, StepSize: 1e-6}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("F", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogRegScan(nt.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 2, StepSize: 1e-6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable10OutOfCoreMN(b *testing.B) {
	nm, _ := benchMN(b, 1000, 0.05)
	y := datagen.Labels(nm, 0, true, 1)
	store := dirStore(b)
	mn, err := chunk.FromNormalized(store, nm.S(), nm.IS(), nm.Ks(), nm.Rs(), 2048)
	if err != nil {
		b.Fatal(err)
	}
	tM, err := mn.Materialize(chunk.Parallel())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogRegScan(chunk.MatOperand(chunk.Parallel(), tM), y, nil, ml.Options{Iters: 2, StepSize: 1e-7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("F", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ml.LogRegScan(mn.Operand(chunk.Parallel()), y, nil, ml.Options{Iters: 2, StepSize: 1e-7}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChunkedGLMSerialVsParallel records the tentpole comparison:
// the same chunked GLM iterations under the strictly serial engine
// (read-compute-read, the pre-parallel behavior) and under the
// prefetching parallel pipeline. Results are bit-identical (ordered
// commit); on a multi-core runner the parallel path should be ≥2× faster.
func BenchmarkChunkedGLMSerialVsParallel(b *testing.B) {
	nm, td := benchPKFK(b, 20, 2)
	y := datagen.Labels(nm, 0, true, 1)
	store := dirStore(b)
	defer store.Close()
	tM, err := chunk.FromDense(store, td, 1024)
	if err != nil {
		b.Fatal(err)
	}
	sM, err := chunk.FromDense(store, nm.S().Dense(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	fkv, err := chunk.BuildIntVector(store, nm.Ks()[0].Assignments(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	nt, err := chunk.NewNormalizedTable(sM, fkv, nm.Rs()[0].Dense())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		ex   chunk.Exec
	}{{"Serial", chunk.Serial}, {"Parallel", chunk.Parallel()}} {
		b.Run("M/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.LogRegScan(chunk.MatOperand(mode.ex, tM), y, nil, ml.Options{Iters: 2, StepSize: 1e-6}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("F/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.LogRegScan(nt.Operand(mode.ex), y, nil, ml.Options{Iters: 2, StepSize: 1e-6}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: naive vs efficient cross-product (Algorithms 1 vs 2) ---

func BenchmarkCrossprodAblation(b *testing.B) {
	nm, td := benchPKFK(b, 20, 4)
	b.Run("Materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			td.CrossProd()
		}
	})
	b.Run("NaiveAlgo1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nm.CrossProdNaive()
		}
	})
	b.Run("EfficientAlgo2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nm.CrossProd()
		}
	})
}

// --- Serving: cached-partial scoring vs naive factorized prediction ---

// serveSetup trains a quick logistic model on a Table 4-shaped dataset and
// builds the cached-partial scorer for it.
func serveSetup(b *testing.B, tr int, fr float64) (*core.NormalizedMatrix, *la.Dense, *serve.Scorer) {
	b.Helper()
	nm, _ := benchPKFK(b, tr, fr)
	y := datagen.Labels(nm, 0, true, 1)
	w, err := ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: 5, StepSize: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := serve.NewScorer(nm, w, serve.Logistic)
	if err != nil {
		b.Fatal(err)
	}
	return nm, w, sc
}

// BenchmarkServeScoreAll scores the entire feature store: the naive path
// reruns the factorized multiply (ml.PredictLogistic on the normalized
// matrix), the cached path gathers precomputed partials. Cells sweep the
// tuple/feature ratios of Fig. 3; the dR ≫ dS cells are where serving-time
// factorization matters most.
func BenchmarkServeScoreAll(b *testing.B) {
	for _, cell := range []struct {
		tr int
		fr float64
	}{{5, 1}, {20, 2}, {20, 4}} {
		nm, w, sc := serveSetup(b, cell.tr, cell.fr)
		b.Run(fmt.Sprintf("TR%d_FR%g", cell.tr, cell.fr), func(b *testing.B) {
			b.Run("NaivePredict", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ml.PredictLogistic(nm, w)
				}
			})
			b.Run("CachedPartials", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sc.ScoreAll()
				}
			})
		})
	}
}

// BenchmarkServeScoreBatch serves a fixed 1024-request batch of row ids.
// The naive baseline must rerun the full factorized predictor and pick the
// requested rows (ml's predictors have no per-row path — that is exactly
// the serving gap internal/serve closes).
func BenchmarkServeScoreBatch(b *testing.B) {
	for _, cell := range []struct {
		tr int
		fr float64
	}{{5, 1}, {20, 4}} {
		nm, w, sc := serveSetup(b, cell.tr, cell.fr)
		ids := make([]int, 1024)
		for i := range ids {
			ids[i] = (i * 7919) % nm.Rows()
		}
		b.Run(fmt.Sprintf("TR%d_FR%g", cell.tr, cell.fr), func(b *testing.B) {
			b.Run("NaivePredict", func(b *testing.B) {
				out := make([]float64, len(ids))
				for i := 0; i < b.N; i++ {
					p := ml.PredictLogistic(nm, w)
					for j, id := range ids {
						out[j] = p.At(id, 0)
					}
				}
			})
			b.Run("CachedPartials", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sc.ScoreBatch(ids); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServeScoreRow is the single-request latency comparison.
func BenchmarkServeScoreRow(b *testing.B) {
	nm, w, sc := serveSetup(b, 20, 4)
	b.Run("NaivePredict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ml.PredictLogistic(nm, w).At(i%nm.Rows(), 0)
		}
	})
	b.Run("CachedPartials", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.ScoreRow(i % nm.Rows()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeUpdateWeights measures the cost of a model hot-swap (the
// explicit cache invalidation point).
func BenchmarkServeUpdateWeights(b *testing.B) {
	_, w, sc := serveSetup(b, 20, 4)
	for i := 0; i < b.N; i++ {
		if err := sc.UpdateWeights(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatcher pushes concurrent single-row traffic through the
// flat-combining frontend (8 client goroutines per core so coalescing has
// traffic to work with).
func BenchmarkServeBatcher(b *testing.B) {
	nm, _, sc := serveSetup(b, 20, 2)
	bt := serve.NewBatcher(sc, serve.BatchOptions{})
	defer bt.Close()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := bt.Score(i % nm.Rows()); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkRouterScore measures the routed steady-state batch path for
// both fleet placements and asserts it performs zero heap allocations
// per call — the allocation audit CI's bench smoke gates on. The batch is
// small enough that the gather kernel stays on its serial in-line path,
// matching the per-request regime the Batcher feeds the Router.
func BenchmarkRouterScore(b *testing.B) {
	nm, w, _ := serveSetup(b, 20, 2)
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = (i * 9973) % nm.Rows() // deterministic scatter across shards
	}
	out := make([]float64, len(ids))
	for _, pl := range []serve.Placement{serve.Replicated, serve.HashSharded} {
		rt, err := serve.NewScorerFleet(nm, w, serve.Logistic, 4, pl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pl.String(), func(b *testing.B) {
			for i := 0; i < 4; i++ { // warm the router's scratch pools
				if err := rt.ScoreBatchInto(ids, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.ScoreBatchInto(ids, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if a := testing.AllocsPerRun(50, func() {
				if err := rt.ScoreBatchInto(ids, out); err != nil {
					b.Error(err)
				}
			}); a != 0 {
				b.Fatalf("steady-state routed ScoreBatchInto: %v allocs/op, want 0", a)
			}
		})
	}
}

// --- Table 12 (appendix): data preparation ---

func BenchmarkTable12DataPrep(b *testing.B) {
	spec := realdata.Specs()[0] // Expedia
	ds, err := realdata.Generate(spec.Scaled(400), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MaterializeJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Norm.Sparse()
		}
	})
	b.Run("BuildIndicators", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range ds.Norm.Ks() {
				assign := k.Assignments()
				raw := make([]int, len(assign))
				for j, a := range assign {
					raw[j] = int(a)
				}
				la.NewIndicator(raw, k.Cols())
			}
		}
	})
}

// dirStore is a chunk store over one fresh temp directory.
func dirStore(tb testing.TB) *chunk.Store {
	tb.Helper()
	b, err := chunk.NewDirBackend(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := chunk.NewShardedStoreBackends([]chunk.Backend{b}, chunk.RoundRobin)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
