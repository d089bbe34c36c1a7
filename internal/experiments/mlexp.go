package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
)

const mlIters = 20 // the paper fixes 20 iterations for all ML experiments

// mlAlgo wraps one of the four §4 algorithms for the M-vs-F sweeps.
type mlAlgo struct {
	name string
	run  func(t la.Matrix, y *la.Dense) error
}

func mlAlgos(k, topics int) []mlAlgo {
	opt := ml.Options{Iters: mlIters, StepSize: 1e-6}
	return []mlAlgo{
		{"logreg", func(t la.Matrix, y *la.Dense) error {
			_, err := ml.LogisticRegressionGD(t, y, nil, opt)
			return err
		}},
		{"linreg-ne", func(t la.Matrix, y *la.Dense) error {
			_, err := ml.LinearRegressionNE(t, y)
			return err
		}},
		{"kmeans", func(t la.Matrix, y *la.Dense) error {
			_, err := ml.KMeans(t, k, ml.Options{Iters: mlIters, Seed: 7})
			return err
		}},
		{"gnmf", func(t la.Matrix, y *la.Dense) error {
			_, err := ml.GNMF(t, topics, ml.Options{Iters: mlIters, Seed: 7})
			return err
		}},
	}
}

// posNorm returns a non-negative copy of the normalized matrix (GNMF input).
func posNorm(nm *core.NormalizedMatrix) *core.NormalizedMatrix {
	return nm.Apply(math.Abs).(*core.NormalizedMatrix)
}

// runAlgo times one ML algorithm materialized and factorized; GNMF runs on
// the absolute-value matrices so multiplicative updates stay valid.
func runAlgo(a mlAlgo, nm *core.NormalizedMatrix, y *la.Dense) (m, f time.Duration, err error) {
	if a.name == "gnmf" {
		nm = posNorm(nm)
	}
	return timePair(nm.Dense(), nm, func(t la.Matrix) error { return a.run(t, y) })
}

// fig5 regenerates Figure 5: the four ML algorithms across tuple-ratio and
// feature-ratio sweeps (a1/a2 logistic, b1/b2 linear-NE, c1/c2 K-Means,
// d1/d2 GNMF; the iteration/centroid/topic sweeps are fig9/fig10).
func fig5(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig5",
		Title:  "ML algorithms on synthetic PK-FK data vs TR and FR (Figure 5)",
		Header: []string{"algo", "axis", "TR", "FR", "M(s)", "F(s)", "speedup"},
		Notes:  fmt.Sprintf("%d iterations, k=10 centroids, 5 topics (paper settings)", mlIters),
	}
	algos := mlAlgos(10, 5)
	for _, a := range algos {
		for _, fr := range []float64{2, 4} {
			for _, tr := range []int{5, 10, 15, 20} {
				nm, err := datagen.PKFK(pkfkSpec(cfg, tr, fr))
				if err != nil {
					return Result{}, err
				}
				y := datagen.Labels(nm, 0, true, cfg.Seed)
				mT, fT, err := runAlgo(a, nm, y)
				if err != nil {
					return Result{}, err
				}
				res.Rows = append(res.Rows, []string{
					a.name, "TR", fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
			}
		}
		for _, tr := range []int{10, 20} {
			for _, fr := range []float64{1, 2, 3, 4} {
				nm, err := datagen.PKFK(pkfkSpec(cfg, tr, fr))
				if err != nil {
					return Result{}, err
				}
				y := datagen.Labels(nm, 0, true, cfg.Seed)
				mT, fT, err := runAlgo(a, nm, y)
				if err != nil {
					return Result{}, err
				}
				res.Rows = append(res.Rows, []string{
					a.name, "FR", fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
			}
		}
	}
	return res, nil
}

// fig8 regenerates the appendix Figure 8: linear regression with gradient
// descent vs TR, FR, and the number of iterations.
func fig8(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig8",
		Title:  "Linear regression with gradient descent (appendix Figure 8)",
		Header: []string{"axis", "TR", "FR", "iters", "M(s)", "F(s)", "speedup"},
	}
	// add times one sweep point and appends its row.
	add := func(axis string, tr int, fr float64, iters int) error {
		nm, err := datagen.PKFK(pkfkSpec(cfg, tr, fr))
		if err != nil {
			return err
		}
		y := datagen.Labels(nm, 0, false, cfg.Seed)
		opt := ml.Options{Iters: iters, StepSize: 1e-7}
		mT, fT, err := timePair(nm.Dense(), nm, func(t la.Matrix) error {
			_, err := ml.LinearRegressionGD(t, y, nil, opt)
			return err
		})
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, []string{axis, fmt.Sprint(tr), fmt.Sprint(fr), fmt.Sprint(iters), secs(mT), secs(fT), ratio(mT, fT)})
		return nil
	}
	for _, tr := range []int{5, 10, 15, 20} {
		if err := add("TR", tr, 2, mlIters); err != nil {
			return Result{}, err
		}
	}
	for _, fr := range []float64{1, 2, 3, 4} {
		if err := add("FR", 20, fr, mlIters); err != nil {
			return Result{}, err
		}
	}
	for _, iters := range []int{5, 10, 15, 20} {
		if err := add("iters", 20, 2, iters); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// fig9 regenerates the appendix Figure 9: logistic regression runtime vs
// the number of iterations (runtime is linear in iterations; the speed-up
// is iteration-count independent).
func fig9(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig9",
		Title:  "Logistic regression vs number of iterations (appendix Figure 9)",
		Header: []string{"iters", "FR", "M(s)", "F(s)", "speedup"},
	}
	for _, fr := range []float64{2, 4} {
		nm, err := datagen.PKFK(pkfkSpec(cfg, 20, fr))
		if err != nil {
			return Result{}, err
		}
		y := datagen.Labels(nm, 0, true, cfg.Seed)
		td := nm.Dense()
		for _, iters := range []int{5, 10, 15, 20} {
			opt := ml.Options{Iters: iters, StepSize: 1e-6}
			mT, fT, err := timePair(td, nm, func(t la.Matrix) error {
				_, err := ml.LogisticRegressionGD(t, y, nil, opt)
				return err
			})
			if err != nil {
				return Result{}, err
			}
			res.Rows = append(res.Rows, []string{fmt.Sprint(iters), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
		}
	}
	return res, nil
}

// fig10 regenerates Figure 5(c2)/(d2) and appendix Figure 10: K-Means vs
// the number of centroids and GNMF vs the number of topics.
func fig10(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig10",
		Title:  "K-Means vs #centroids and GNMF vs #topics (Figure 5c2/d2, appendix Figure 10)",
		Header: []string{"algo", "param", "FR", "M(s)", "F(s)", "speedup"},
		Notes:  "speed-ups shrink as k/topics grow: the non-factorizable portion of the computation grows with k",
	}
	for _, fr := range []float64{2, 4} {
		nm, err := datagen.PKFK(pkfkSpec(cfg, 10, fr))
		if err != nil {
			return Result{}, err
		}
		td := nm.Dense()
		for _, k := range []int{5, 10, 15, 20} {
			opt := ml.Options{Iters: mlIters, Seed: 7}
			mT, fT, err := timePair(td, nm, func(t la.Matrix) error {
				_, err := ml.KMeans(t, k, opt)
				return err
			})
			if err != nil {
				return Result{}, err
			}
			res.Rows = append(res.Rows, []string{"kmeans", fmt.Sprint(k), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
		}
		pos := posNorm(nm)
		posD := pos.Dense()
		for _, topics := range []int{2, 4, 6, 8, 10} {
			opt := ml.Options{Iters: mlIters, Seed: 7}
			mT, fT, err := timePair(posD, pos, func(t la.Matrix) error {
				_, err := ml.GNMF(t, topics, opt)
				return err
			})
			if err != nil {
				return Result{}, err
			}
			res.Rows = append(res.Rows, []string{"gnmf", fmt.Sprint(topics), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
		}
	}
	return res, nil
}

func init() {
	register("fig5", fig5)
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
}
