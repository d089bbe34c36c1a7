package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
)

// opCase is one LA operator benchmarked materialized-vs-factorized.
type opCase struct {
	name string
	// run executes the operator on any la.Matrix (Dense for M,
	// NormalizedMatrix for F).
	run func(m la.Matrix)
}

// operatorCases covers every operator family of Table 1 (cross-product via
// the efficient Algorithm 2; the naive variant has its own ablation).
func operatorCases(d int) []opCase {
	return []opCase{
		{"scalar-mul", func(m la.Matrix) { m.Scale(3.0) }},
		{"scalar-add", func(m la.Matrix) { m.AddScalar(1.0) }},
		{"scalar-exp", func(m la.Matrix) { m.Apply(math.Exp) }},
		{"rowSums", func(m la.Matrix) { m.RowSums() }},
		{"colSums", func(m la.Matrix) { m.ColSums() }},
		{"sum", func(m la.Matrix) { m.Sum() }},
		{"LMM", func(m la.Matrix) { m.Mul(la.Ones(d, 2)) }},
		{"RMM", func(m la.Matrix) { m.LeftMul(la.Ones(2, m.Rows())) }},
		{"crossprod", func(m la.Matrix) { m.CrossProd() }},
		{"ginv", func(m la.Matrix) { m.Ginv() }},
	}
}

// pkfkTRValues and pkfkFRValues are the paper's Figure 3 sweep axes.
var (
	pkfkTRValues = []int{1, 2, 5, 10, 15, 20}
	pkfkFRValues = []float64{0.25, 0.5, 1, 2, 3, 4}
)

const (
	basePKFKNR = 5000 // paper: 1e6; scaled by Config.Scale
	basePKFKDS = 20   // paper: 20
)

func pkfkSpec(cfg Config, tr int, fr float64) datagen.PKFKSpec {
	nR := cfg.scaled(basePKFKNR)
	dR := int(fr * basePKFKDS)
	if dR < 1 {
		dR = 1
	}
	return datagen.PKFKSpec{NS: tr * nR, DS: basePKFKDS, NR: nR, DR: dR, Seed: cfg.Seed}
}

// runOp times one operator on the factorized and materialized forms.
func runOp(nm *core.NormalizedMatrix, td *la.Dense, op opCase) (m, f time.Duration) {
	m = timeOp(func() { op.run(td) })
	f = timeOp(func() { op.run(nm) })
	return m, f
}

// fig3 regenerates the Figure 3 speed-up grids for the four headline
// operators (scalar multiplication, LMM, cross-product, pseudo-inverse)
// over the tuple-ratio × feature-ratio plane.
func fig3(cfg Config) (Result, error) {
	ops := []string{"scalar-mul", "LMM", "crossprod", "ginv"}
	res := Result{
		ID:     "fig3",
		Title:  "PK-FK operator speed-ups (F over M) across tuple ratio x feature ratio",
		Header: []string{"op", "TR", "FR", "M(s)", "F(s)", "speedup"},
		Notes:  fmt.Sprintf("nR=%d dS=%d (paper: nR=1e6); speedups grow with both ratios, 'L'-shaped slowdown region at low TR/FR", cfg.scaled(basePKFKNR), basePKFKDS),
	}
	for _, opName := range ops {
		for _, tr := range pkfkTRValues {
			for _, fr := range pkfkFRValues {
				spec := pkfkSpec(cfg, tr, fr)
				nm, err := datagen.PKFK(spec)
				if err != nil {
					return Result{}, err
				}
				td := nm.Dense()
				var op opCase
				for _, c := range operatorCases(td.Cols()) {
					if c.name == opName {
						op = c
					}
				}
				mT, fT := runOp(nm, td, op)
				res.Rows = append(res.Rows, []string{
					opName, fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
			}
		}
	}
	return res, nil
}

// fig6and7 regenerates the appendix operator runtime sweeps (Figures 6 and
// 7): every Table 1 operator along the TR axis (FR fixed) and the FR axis
// (TR fixed).
func fig6and7(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig6",
		Title:  "PK-FK operator runtimes vs tuple ratio (FR=2,4) and feature ratio (TR=10,20) — appendix Figures 6/7",
		Header: []string{"op", "axis", "TR", "FR", "M(s)", "F(s)", "speedup"},
	}
	for _, opName := range []string{"scalar-add", "scalar-mul", "RMM", "LMM", "rowSums", "colSums", "sum", "crossprod", "ginv"} {
		for _, fr := range []float64{2, 4} {
			for _, tr := range pkfkTRValues {
				spec := pkfkSpec(cfg, tr, fr)
				nm, err := datagen.PKFK(spec)
				if err != nil {
					return Result{}, err
				}
				td := nm.Dense()
				for _, c := range operatorCases(td.Cols()) {
					if c.name != opName {
						continue
					}
					mT, fT := runOp(nm, td, c)
					res.Rows = append(res.Rows, []string{
						opName, "TR", fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
				}
			}
		}
		for _, tr := range []int{10, 20} {
			for _, fr := range pkfkFRValues {
				spec := pkfkSpec(cfg, tr, fr)
				nm, err := datagen.PKFK(spec)
				if err != nil {
					return Result{}, err
				}
				td := nm.Dense()
				for _, c := range operatorCases(td.Cols()) {
					if c.name != opName {
						continue
					}
					mT, fT := runOp(nm, td, c)
					res.Rows = append(res.Rows, []string{
						opName, "FR", fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(fT), ratio(mT, fT)})
				}
			}
		}
	}
	return res, nil
}

// mnBase gives the scaled Table 5 defaults (paper: nS=nR up to 2e5,
// dS=dR=200, nU=1000).
func mnBase(cfg Config) (nBig, nSmall, d int) {
	return cfg.scaled(2000), cfg.scaled(1000), 100
}

// fig4 regenerates Figure 4: M:N LMM and cross-product runtimes as the
// join-attribute uniqueness degree nU/nS shrinks toward the cartesian
// product.
func fig4(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig4",
		Title:  "M:N join operators vs join-attribute uniqueness degree (Figure 4)",
		Header: []string{"op", "nS", "nU/nS", "|T'|", "M(s)", "F(s)", "speedup"},
		Notes:  "as nU/nS -> 0.01 each base tuple is repeated ~nS/nU times; factorized speedups approach that repetition factor",
	}
	nBig, nSmall, d := mnBase(cfg)
	for _, op := range []string{"LMM", "crossprod"} {
		for _, nS := range []int{nBig, nSmall} {
			for _, deg := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5} {
				nU := int(deg * float64(nS))
				if nU < 1 {
					nU = 1
				}
				nm, err := datagen.MN(datagen.MNSpec{NS: nS, NR: nS, DS: d, DR: d, NU: nU, Seed: cfg.Seed})
				if err != nil {
					return Result{}, err
				}
				td := nm.Dense()
				for _, c := range operatorCases(td.Cols()) {
					if c.name != op {
						continue
					}
					mT, fT := runOp(nm, td, c)
					res.Rows = append(res.Rows, []string{
						op, fmt.Sprint(nS), fmt.Sprint(deg), fmt.Sprint(nm.Rows()), secs(mT), secs(fT), ratio(mT, fT)})
				}
			}
		}
	}
	return res, nil
}

// fig11and12 regenerates the appendix M:N sweeps: every operator against
// the number of tuples, the number of features, and the uniqueness degree.
func fig11and12(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig11",
		Title:  "M:N operator sweeps over #tuples, #features, uniqueness degree (appendix Figures 11/12)",
		Header: []string{"op", "axis", "nS", "d", "nU/nS", "M(s)", "F(s)", "speedup"},
	}
	nBig, nSmall, dBase := mnBase(cfg)
	opNames := []string{"scalar-add", "scalar-mul", "rowSums", "colSums", "sum", "LMM", "RMM", "crossprod"}
	type cell struct {
		axis   string
		nS, d  int
		degree float64
	}
	var cells []cell
	for _, n := range []int{nSmall / 2, nSmall, nBig} {
		cells = append(cells, cell{"tuples", n, dBase, 0.1})
	}
	for _, d := range []int{dBase / 4, dBase / 2, dBase} {
		cells = append(cells, cell{"features", nBig, d, 0.1})
	}
	for _, deg := range []float64{0.02, 0.1, 0.5} {
		cells = append(cells, cell{"uniqueness", nBig, dBase, deg})
	}
	for _, op := range opNames {
		for _, cl := range cells {
			nU := int(cl.degree * float64(cl.nS))
			if nU < 1 {
				nU = 1
			}
			nm, err := datagen.MN(datagen.MNSpec{NS: cl.nS, NR: cl.nS, DS: cl.d, DR: cl.d, NU: nU, Seed: cfg.Seed})
			if err != nil {
				return Result{}, err
			}
			td := nm.Dense()
			for _, c := range operatorCases(td.Cols()) {
				if c.name != op {
					continue
				}
				mT, fT := runOp(nm, td, c)
				res.Rows = append(res.Rows, []string{
					op, cl.axis, fmt.Sprint(cl.nS), fmt.Sprint(cl.d), fmt.Sprint(cl.degree), secs(mT), secs(fT), ratio(mT, fT)})
			}
		}
	}
	return res, nil
}

// cpAblate compares the naive (Algorithm 1) and efficient (Algorithm 2)
// cross-product rewrites: the design-choice ablation of §3.3.5.
func cpAblate(cfg Config) (Result, error) {
	res := Result{
		ID:     "cpablate",
		Title:  "Cross-product rewrite ablation: naive Algorithm 1 vs efficient Algorithm 2",
		Header: []string{"TR", "FR", "materialized(s)", "naive(s)", "efficient(s)", "eff/naive speedup"},
		Notes:  "Algorithm 2 exploits crossprod(S) symmetry and K'K=diag(colSums(K))",
	}
	for _, tr := range []int{5, 10, 20} {
		for _, fr := range []float64{1, 2, 4} {
			nm, err := datagen.PKFK(pkfkSpec(cfg, tr, fr))
			if err != nil {
				return Result{}, err
			}
			td := nm.Dense()
			mT := timeOp(func() { td.CrossProd() })
			naiveT := timeOp(func() { nm.CrossProdNaive() })
			effT := timeOp(func() { nm.CrossProd() })
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(tr), fmt.Sprint(fr), secs(mT), secs(naiveT), secs(effT), ratio(naiveT, effT)})
		}
	}
	return res, nil
}

// rule evaluates the §3.7 heuristic decision rule against measured LMM
// speed-ups over the Figure 3 grid: the rule should never predict
// "factorize" where a slow-down occurs (conservativeness).
func rule(cfg Config) (Result, error) {
	adv := core.DefaultAdvisor()
	res := Result{
		ID:     "rule",
		Title:  "Heuristic decision rule (tau=5, rho=1) vs measured LMM speed-ups",
		Header: []string{"TR", "FR", "speedup", "rule says", "verdict"},
	}
	falsePositives, cells := 0, 0
	for _, tr := range pkfkTRValues {
		for _, fr := range pkfkFRValues {
			nm, err := datagen.PKFK(pkfkSpec(cfg, tr, fr))
			if err != nil {
				return Result{}, err
			}
			td := nm.Dense()
			x := la.Ones(td.Cols(), 2)
			mT := timeOp(func() { td.Mul(x) })
			fT := timeOp(func() { nm.Mul(x) })
			sp := float64(mT) / float64(fT)
			decide := adv.Decide(nm)
			verdict := "ok"
			if decide && sp < 1 {
				verdict = "FALSE POSITIVE"
				falsePositives++
			} else if !decide && sp > 1.5 {
				verdict = "missed win (conservative)"
			}
			cells++
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(tr), fmt.Sprint(fr), fmt.Sprintf("%.2f", sp), fmt.Sprint(decide), verdict})
		}
	}
	res.Notes = fmt.Sprintf("%d/%d cells where the rule predicted factorization that slowed down", falsePositives, cells)
	return res, nil
}

func init() {
	register("fig3", fig3)
	register("fig6", fig6and7)
	register("fig7", fig6and7) // Figure 7 shares the sweep with Figure 6
	register("fig4", fig4)
	register("fig11", fig11and12)
	register("fig12", fig11and12)
	register("cpablate", cpAblate)
	register("rule", rule)
}
