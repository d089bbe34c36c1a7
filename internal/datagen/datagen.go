// Package datagen generates the synthetic normalized datasets used by the
// paper's experiments: single PK-FK joins with controlled tuple/feature
// ratios (Table 4), star-schema multi-table joins, and M:N equi-joins with
// controlled join-attribute domain size (Table 5). All generators are
// deterministic given a seed.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/la"
)

// PKFKSpec describes a single PK-FK join dataset (paper Table 4 uses
// nS up to 2e7, dS=20, nR=1e6, dR up to 80; benchmarks scale these down
// while preserving the tuple ratio nS/nR and feature ratio dR/dS).
type PKFKSpec struct {
	NS, DS, NR, DR int
	Seed           int64
}

// TupleRatio returns nS/nR.
func (s PKFKSpec) TupleRatio() float64 { return float64(s.NS) / float64(s.NR) }

// FeatureRatio returns dR/dS.
func (s PKFKSpec) FeatureRatio() float64 { return float64(s.DR) / float64(s.DS) }

func (s PKFKSpec) String() string {
	return fmt.Sprintf("pkfk(nS=%d,dS=%d,nR=%d,dR=%d)", s.NS, s.DS, s.NR, s.DR)
}

// PKFK generates S, K, R with i.i.d. standard normal features and a
// uniform foreign key that references every R tuple at least once when
// nS ≥ nR (so no Compact step is needed, matching §3.1's assumption).
func PKFK(spec PKFKSpec) (*core.NormalizedMatrix, error) {
	if spec.NS <= 0 || spec.NR <= 0 || spec.DS < 0 || spec.DR <= 0 {
		return nil, fmt.Errorf("datagen: invalid PK-FK spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var s la.Mat
	if spec.DS > 0 {
		s = randDense(rng, spec.NS, spec.DS)
	}
	r := randDense(rng, spec.NR, spec.DR)
	assign := make([]int, spec.NS)
	for i := range assign {
		if i < spec.NR {
			assign[i] = i // guarantee full coverage first
		} else {
			assign[i] = rng.Intn(spec.NR)
		}
	}
	rng.Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	return core.NewPKFK(s, la.NewIndicator(assign, spec.NR), r)
}

// StarSpec describes a multi-table star-schema dataset (§3.5): one entity
// table and q attribute tables.
type StarSpec struct {
	NS, DS int
	NR, DR []int // per attribute table
	Seed   int64
}

// Star generates a star-schema normalized matrix.
func Star(spec StarSpec) (*core.NormalizedMatrix, error) {
	if len(spec.NR) != len(spec.DR) || len(spec.NR) == 0 {
		return nil, fmt.Errorf("datagen: star spec needs matching NR/DR, got %d/%d", len(spec.NR), len(spec.DR))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var s la.Mat
	if spec.DS > 0 {
		s = randDense(rng, spec.NS, spec.DS)
	}
	ks := make([]*la.Indicator, len(spec.NR))
	rs := make([]la.Mat, len(spec.NR))
	for t, nR := range spec.NR {
		assign := make([]int, spec.NS)
		for i := range assign {
			if i < nR {
				assign[i] = i
			} else {
				assign[i] = rng.Intn(nR)
			}
		}
		rng.Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
		ks[t] = la.NewIndicator(assign, nR)
		rs[t] = randDense(rng, nR, spec.DR[t])
	}
	return core.NewStar(s, ks, rs)
}

// MNSpec describes an M:N equi-join dataset (paper Table 5): S and R each
// carry a join attribute drawn uniformly from a domain of size NU. The
// smaller NU is relative to NS, the more output tuples each base tuple
// spawns (NU=1 degenerates to the full cartesian product).
type MNSpec struct {
	NS, NR, DS, DR, NU int
	Seed               int64
}

func (s MNSpec) String() string {
	return fmt.Sprintf("mn(nS=%d,nR=%d,dS=%d,dR=%d,nU=%d)", s.NS, s.NR, s.DS, s.DR, s.NU)
}

// MN generates the M:N join: it draws join attributes, computes the
// non-deduplicating projection join T' (the §3.6 construction), and builds
// the IS/IR indicator matrices from the matching row pairs.
func MN(spec MNSpec) (*core.NormalizedMatrix, error) {
	if spec.NS <= 0 || spec.NR <= 0 || spec.DS <= 0 || spec.DR <= 0 || spec.NU <= 0 {
		return nil, fmt.Errorf("datagen: invalid M:N spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	jS := make([]int, spec.NS)
	jR := make([]int, spec.NR)
	for i := range jS {
		jS[i] = rng.Intn(spec.NU)
	}
	for i := range jR {
		jR[i] = rng.Intn(spec.NU)
	}
	// Group R rows by join value, then emit matches in S order: this is
	// exactly T' = π(S) ⋈ π(R) with row-number bookkeeping.
	byVal := make([][]int32, spec.NU)
	for i, v := range jR {
		byVal[v] = append(byVal[v], int32(i))
	}
	var isAssign, irAssign []int32
	for i, v := range jS {
		for _, rrow := range byVal[v] {
			isAssign = append(isAssign, int32(i))
			irAssign = append(irAssign, rrow)
		}
	}
	if len(isAssign) == 0 {
		return nil, fmt.Errorf("datagen: M:N join produced no tuples (nU=%d too large for nS=%d)", spec.NU, spec.NS)
	}
	s := randDense(rng, spec.NS, spec.DS)
	r := randDense(rng, spec.NR, spec.DR)
	m, err := core.NewMN(s, la.NewIndicatorInt32(isAssign, spec.NS), la.NewIndicatorInt32(irAssign, spec.NR), r)
	if err != nil {
		return nil, err
	}
	// Drop base tuples that matched nothing, per §3.6's assumption.
	return m.Compact(), nil
}

// Labels generates an n×1 target vector from planted weights over the
// materialized features plus optional Gaussian noise; binarize turns it
// into ±1 labels for classification.
func Labels(m *core.NormalizedMatrix, noise float64, binarize bool, seed int64) *la.Dense {
	rng := rand.New(rand.NewSource(seed))
	w := randDense(rng, m.Cols(), 1)
	y := m.Mul(w)
	for i := 0; i < y.Rows(); i++ {
		v := y.At(i, 0) + noise*rng.NormFloat64()
		if binarize {
			if v >= 0 {
				v = 1
			} else {
				v = -1
			}
		}
		y.Set(i, 0, v)
	}
	return y
}

func randDense(rng *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}
