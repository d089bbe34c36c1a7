package repro_test

import (
	"fmt"

	repro "repro"
)

// ExampleNewPKFK shows the basic construction of a normalized matrix and
// that its operators agree with the materialized join output.
func ExampleNewPKFK() {
	s := repro.DenseFromRows([][]float64{{1, 2}, {4, 3}, {5, 6}})
	r := repro.DenseFromRows([][]float64{{1.5, 2.5}, {3.5, 4.5}})
	k := repro.NewIndicator([]int{0, 1, 1}, 2)
	t, err := repro.NewPKFK(s, k, r)
	if err != nil {
		panic(err)
	}
	fmt.Printf("T is %dx%d\n", t.Rows(), t.Cols())
	fmt.Printf("sum factorized  : %.1f\n", t.Sum())
	fmt.Printf("sum materialized: %.1f\n", t.Dense().Sum())
	// Output:
	// T is 3x4
	// sum factorized  : 41.0
	// sum materialized: 41.0
}

// ExampleAdvisor shows the §3.7 heuristic decision rule.
func ExampleAdvisor() {
	adv := repro.DefaultAdvisor()
	high := repro.Stats{TupleRatio: 20, FeatureRatio: 4}
	low := repro.Stats{TupleRatio: 2, FeatureRatio: 0.5}
	fmt.Println(adv.ShouldFactorize(high), adv.ShouldFactorize(low))
	// Output: true false
}

// ExampleLogisticRegressionGD trains the same script materialized and
// factorized; the weights agree exactly.
func ExampleLogisticRegressionGD() {
	s := repro.DenseFromRows([][]float64{{1}, {2}, {-1}, {-2}})
	r := repro.DenseFromRows([][]float64{{0.5}, {-0.5}})
	k := repro.NewIndicator([]int{0, 0, 1, 1}, 2)
	t, _ := repro.NewPKFK(s, k, r)
	y := repro.ColVector([]float64{1, 1, -1, -1})
	opt := repro.Options{Iters: 50, StepSize: 0.1}
	wF, _ := repro.LogisticRegressionGD(t, y, nil, opt)
	wM, _ := repro.LogisticRegressionGD(t.Dense(), y, nil, opt)
	fmt.Printf("same weights: %v\n", wF.At(0, 0) == wM.At(0, 0) && wF.At(1, 0) == wM.At(1, 0))
	// Output: same weights: true
}

// ExampleNewMN joins S and R on an attribute both repeat: an M:N join, whose
// output repeats base rows. The normalized matrix never builds it, and its
// operators agree with the materialized join output.
func ExampleNewMN() {
	// S's join attribute is a, b, a and R's is a, a, b: rows (S, R) pair up
	// as (0,0) (0,1) (1,2) (2,0) (2,1).
	s := repro.DenseFromRows([][]float64{{1}, {2}, {3}})
	r := repro.DenseFromRows([][]float64{{1, 0}, {0, 1}, {2, 2}})
	is := repro.NewIndicator([]int{0, 0, 1, 2, 2}, 3)
	ir := repro.NewIndicator([]int{0, 1, 2, 0, 1}, 3)
	t, err := repro.NewMN(s, is, ir, r)
	if err != nil {
		panic(err)
	}
	td := t.Dense()
	x := repro.ColVector([]float64{1, 2, 3})
	fmt.Printf("T is %dx%d, factorized then materialized:\n", t.Rows(), t.Cols())
	fmt.Printf("LMM       %.6g %.6g\n", t.Mul(x).Data(), repro.MatMul(td, x).Data())
	fmt.Printf("crossprod %.6g %.6g\n", t.CrossProd().Data(), td.CrossProd().Data())
	fmt.Printf("colSums   %.6g %.6g\n", t.ColSums().Data(), td.ColSums().Data())
	fmt.Printf("sum       %.6g %.6g\n", t.Sum(), td.Sum())
	// Output:
	// T is 5x3, factorized then materialized:
	// LMM       [3 4 12 5 6] [3 4 12 5 6]
	// crossprod [24 8 8 8 6 4 8 4 6] [24 8 8 8 6 4 8 4 6]
	// colSums   [10 4 4] [10 4 4]
	// sum       18 18
}
