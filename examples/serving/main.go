// Serving walkthrough: train a model over normalized data, then stand up
// the factorized scoring service and watch the partial-product cache pay
// off.
//
// The same algebra that factorizes training (T·w = S·wS + K·(R·wR), §3.3.3
// of the paper) makes serving cheap: R·wR depends only on the model, so the
// Scorer computes it once and every prediction becomes a tiny per-row
// gather. The walkthrough covers:
//
//  1. building a PK-FK normalized matrix with a high feature ratio
//     (dR ≫ dS, the regime of the paper's Fig. 3 where factorization
//     matters most),
//  2. training logistic regression factorized,
//  3. single-row and batch scoring from cached partials, checked against
//     the full predictor,
//  4. a model hot-swap via UpdateWeights,
//  5. micro-batched serving with concurrent callers,
//  6. a quick throughput comparison: cached partials vs rerunning the
//     factorized predictor per request wave.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"time"

	repro "repro"
)

// randDense fills a rows×cols matrix with standard normal draws.
func randDense(rng *rand.Rand, rows, cols int) *repro.Dense {
	m := repro.NewDense(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func main() {
	// 1. A PK-FK dataset shaped like the paper's serving-relevant cells:
	// 20k fact rows with 5 features, 1k dimension rows with 80 features.
	rng := rand.New(rand.NewSource(42))
	s, r := randDense(rng, 20000, 5), randDense(rng, 1000, 80)
	fk := make([]int, s.Rows())
	for i := range fk {
		fk[i] = rng.Intn(r.Rows())
	}
	nm, err := repro.NewPKFK(s, repro.NewIndicator(fk, r.Rows()), r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feature store: %d rows x %d features (dS=5, dR=80, never joined)\n",
		nm.Rows(), nm.Cols())

	// 2. Train factorized, on ±1 labels from a hidden linear model.
	y := nm.Mul(randDense(rng, nm.Cols(), 1))
	for i, v := range y.Data() {
		y.Data()[i] = math.Copysign(1, v)
	}
	w, err := repro.LogisticRegressionGD(nm, y, nil, repro.Options{Iters: 20, StepSize: 1e-6})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The scoring service: partials R·wR are computed here, once.
	sc, err := repro.NewScorer(nm, w, repro.LogisticHead)
	if err != nil {
		log.Fatal(err)
	}
	p0, err := sc.ScoreRow(0)
	if err != nil {
		log.Fatal(err)
	}
	full := repro.PredictLogistic(nm, w)
	fmt.Printf("\nrow 0: cached score %.6f, full predictor %.6f (diff %.2g)\n",
		p0, full.At(0, 0), math.Abs(p0-full.At(0, 0)))

	batch := []int{5, 17, 4096, 19999}
	scores, err := sc.ScoreBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch %v -> %.4f\n", batch, scores)

	// 4. Hot-swap the model; the partial cache rebuilds atomically.
	w2 := w.ScaleDense(0.5)
	if err := sc.UpdateWeights(w2); err != nil {
		log.Fatal(err)
	}
	p0v2, _ := sc.ScoreRow(0)
	fmt.Printf("after UpdateWeights(0.5*w): row 0 score %.6f (was %.6f)\n", p0v2, p0)

	// 5. Batched serving: concurrent callers share gather passes, which
	// the callers themselves run; a lone request is scored at once.
	b := repro.NewBatcher(sc, repro.BatchOptions{MaxBatch: 512})
	defer b.Close()
	var wg sync.WaitGroup
	const clients, perClient = 32, 50
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := b.Score((c*perClient + i) % nm.Rows()); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("\n%d concurrent clients x %d requests served in %v\n",
		clients, perClient, time.Since(start).Round(time.Microsecond))

	// 6. Throughput: score every row 10 times, cached vs naive.
	const waves = 10
	t0 := time.Now()
	for i := 0; i < waves; i++ {
		repro.PredictLogistic(nm, w2)
	}
	naive := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < waves; i++ {
		sc.ScoreAll()
	}
	cached := time.Since(t0)
	fmt.Printf("scoring all %d rows x%d: naive %v, cached partials %v (%.1fx)\n",
		nm.Rows(), waves, naive.Round(time.Microsecond), cached.Round(time.Microsecond),
		float64(naive)/float64(cached))
}
