package core

import (
	"math"

	"repro/internal/la"
)

// Block is a run of T's rows: the entity features S_b (zero columns wide
// when T has none) and, per arm, every row's key into R_t.
type Block struct {
	S    la.Mat
	Keys [][]int32
}

// rowMuler is a base table whose LMM kernel writes a caller's output
// block by block (la.Dense and la.CSR).
type rowMuler interface {
	MulRows(out, x *la.Dense, lo, hi int)
}

// mulBlock is how many output rows MulBlock finishes at a time: few enough
// to stay in cache between S writing them and the gathers adding to them.
const mulBlock = 256

// MulBlock writes the block's rows of the LMM T·X (§3.3.3) into out:
//
//	out[i,:] = S_b[i,:]·xs + Σ_t z_t[key_t(i),:],   z_t = R_t·X_t prepared
//
// The order K_t·(R_t·X_t), never (K_t·R_t)·X_t, is what avoids
// re-materializing the join, and each row is written once instead of once
// per table. S_b must be a la.Dense or la.CSR; a nil S_b means out already
// holds S_b·xs (row sums, row norms) and only the gathers run.
func MulBlock(out *la.Dense, b Block, xs *la.Dense, z []*la.Dense) {
	n, k, od := out.Rows(), out.Cols(), out.Data()
	direct, _ := b.S.(rowMuler)
	work := n * k * len(z)
	if direct != nil {
		work += n * k * b.S.Cols()
	}
	la.ParallelRows(n, work, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += mulBlock {
			i1 := min(i0+mulBlock, hi)
			if direct != nil {
				direct.MulRows(out, xs, i0, i1) // written before read: one page fault per fresh page, not two
			}
			for t, keys := range b.Keys {
				zt := z[t].Data()
				if k == 1 {
					for i, a := range keys[i0:i1] {
						od[i0+i] += zt[a]
					}
					continue
				}
				for i := i0; i < i1; i++ {
					dst, a := od[i*k:(i+1)*k], int(keys[i])
					for c, v := range zt[a*k : (a+1)*k] {
						dst[c] += v
					}
				}
			}
		}
	})
}

// TMul reduces the transposed LMM (§3.3.4), the [PS, (PK)R]ᵀ pattern of
// the factorized ML algorithms in §4, over blocks:
//
//	TᵀP = [ Σ_b S_bᵀ·P_b ; R_1ᵀ·(K_1ᵀP) ; … ; R_qᵀ·(K_qᵀP) ]
//
// A one-hot P (k-means' assignment) comes as its groups: the S side is then
// group sums and each K_tᵀP a matrix of join counts, small integers exact
// in any order, and no n×k matrix is formed.
type TMul struct {
	k   int
	top *la.Dense   // Σ S_bᵀ·P_b
	kp  []*la.Dense // K_tᵀ·P, nR_t×k
}

// NewTMul starts a reduction of Tᵀ·P for P k columns wide, S dS columns
// wide and arms of nR[t] rows.
func NewTMul(dS int, nR []int, k int) *TMul {
	r := &TMul{k: k, top: la.NewDense(dS, k), kp: make([]*la.Dense, len(nR))}
	for t, rows := range nR {
		r.kp[t] = la.NewDense(rows, k)
	}
	return r
}

// TMulBlock returns a block's S-side partial of Tᵀ·P, S_bᵀ·P_b, or S_b's
// group sums when P (k columns) comes as groups; blocks run it concurrently.
func TMulBlock(s la.Mat, p *la.Dense, groups []int32, k int) *la.Dense {
	if p == nil {
		return s.GroupTMul(groups, k)
	}
	return s.TMul(p)
}

// Merge adds a block's partial and scatter-adds its rows of P (or its join
// counts) into each arm's K_tᵀP. Blocks merge in ascending row order, the
// summation order, whatever number of them ran at once.
func (r *TMul) Merge(top *la.Dense, keys [][]int32, p *la.Dense, groups []int32) {
	r.top.AddInPlace(top) // top sums from +0, never −0: 0 + top is top
	for t, ks := range keys {
		acc := r.kp[t].Data()
		switch {
		case p == nil:
			for i, key := range ks {
				acc[int(key)*r.k+int(groups[i])]++
			}
		case r.k == 1:
			for i, key := range ks {
				acc[key] += p.Data()[i]
			}
		default:
			for i, key := range ks {
				src := p.Row(i)
				dst := acc[int(key)*r.k:][:len(src)]
				for c, v := range src {
					dst[c] += v
				}
			}
		}
	}
}

// Finish stacks the S side over each arm's R_tᵀ·(K_tᵀP), which armTMul
// computes wherever R_t lives.
func (r *TMul) Finish(armTMul func(t int, kp *la.Dense) (*la.Dense, error)) (*la.Dense, error) {
	parts := []*la.Dense{r.top}
	for t, kp := range r.kp {
		g, err := armTMul(t, kp)
		if err != nil {
			return nil, err
		}
		parts = append(parts, g)
	}
	return la.VCat(parts...), nil
}

// Gram reduces TᵀT over blocks with the paper's efficient method
// (Algorithm 2, generalized to star schemas in §3.5 and to M:N joins in
// Algorithm 10), or with naive set Algorithm 1's diagonal blocks (S_bᵀ·S_b
// and R_tᵀ·((K_tᵀK_t)·R_t), no symmetry exploited), kept for the ablation:
//
//	Σ_b S_bᵀS_b            (K_tᵀS)ᵀ·R_t                 R_aᵀ·((K_aᵀK_b)·R_b)
//	                        crossprod(diag(colSums K_t)^½·R_t)
//
// Finish assembles the result from the arms, which the driver holds in
// memory.
type Gram struct {
	naive  bool
	rs     []la.Mat
	rows   []la.Mat // rs, row-addressable
	sts    *la.Dense
	kts    []*la.Dense // K_tᵀS, nR_t×dS
	counts [][]float64 // colSums(K_t)
	cross  []*la.Dense // (K_aᵀK_b)·R_b per arm pair a < b
}

// NewGram starts a reduction of TᵀT for S dS columns wide and arms rs.
func NewGram(dS int, rs []la.Mat, naive bool) *Gram {
	g := &Gram{naive: naive, rs: rs, sts: la.NewDense(dS, dS)}
	for a, r := range rs {
		g.rows = append(g.rows, rowAddressable(r))
		g.kts = append(g.kts, la.NewDense(r.Rows(), dS))
		g.counts = append(g.counts, make([]float64, r.Rows()))
		for _, rb := range rs[a+1:] {
			g.cross = append(g.cross, la.NewDense(r.Rows(), rb.Cols()))
		}
	}
	return g
}

// Block computes a block's share of TᵀT concurrently — S_bᵀS_b and each
// arm pair's count matrix over the block's keys — and returns its merge,
// which the driver runs in ascending row order: the sums, the K_tᵀS
// scatter, the key counts and each count matrix times R_b into an
// nR_a×dR_b accumulator.
func (g *Gram) Block(b Block) (merge func()) {
	var sts *la.Dense
	if g.naive {
		sts = matTMulMat(b.S, b.S)
	} else {
		sts = b.S.CrossProd()
	}
	s, cross := rowAddressable(b.S), []*la.CSR(nil)
	for a, ka := range b.Keys {
		for c := a + 1; c < len(b.Keys); c++ {
			cross = append(cross, la.NewIndicatorInt32(ka, g.rs[a].Rows()).TMulIndicator(la.NewIndicatorInt32(b.Keys[c], g.rs[c].Rows())))
		}
	}
	return func() {
		g.sts.AddInPlace(sts)
		for t, ks := range b.Keys {
			for i, key := range ks {
				g.counts[t][key]++
				addRow(g.kts[t].Row(int(key)), s, i, 1)
			}
		}
		pair := 0
		for a := range b.Keys {
			for c := a + 1; c < len(b.Keys); c, pair = c+1, pair+1 {
				for r := 0; r < cross[pair].Rows(); r++ {
					idx, vs := cross[pair].RowNNZ(r)
					for q, j := range idx {
						addRow(g.cross[pair].Row(r), g.rows[c], int(j), vs[q])
					}
				}
			}
		}
	}
}

// Finish assembles the symmetric d×d result.
func (g *Gram) Finish() *la.Dense {
	offs := []int{g.sts.Rows()}
	for _, r := range g.rs {
		offs = append(offs, offs[len(offs)-1]+r.Cols())
	}
	out := la.NewDense(offs[len(g.rs)], offs[len(g.rs)])
	set := func(i, j int, blk *la.Dense) {
		out.SetBlock(i, j, blk)
		out.SetBlock(j, i, blk.TDense())
	}
	out.SetBlock(0, 0, g.sts)
	pair := 0
	for t, r := range g.rs {
		set(0, offs[t], matTMulMat(g.kts[t], r))
		if g.naive {
			out.SetBlock(offs[t], offs[t], r.TMul(r.ScaleRows(g.counts[t]).Dense()))
		} else {
			sq := make([]float64, len(g.counts[t]))
			for c, v := range g.counts[t] {
				sq[c] = math.Sqrt(v)
			}
			out.SetBlock(offs[t], offs[t], r.ScaleRows(sq).CrossProd())
		}
		for c := t + 1; c < len(g.rs); c, pair = c+1, pair+1 {
			set(offs[t], offs[c], r.TMul(g.cross[pair]))
		}
	}
	return out
}

// JoinBlock writes the block's rows of the join output
// [S_b, R_1[keys_1], …, R_q[keys_q]] into out.
func JoinBlock(out *la.Dense, b Block, rs []la.Mat) {
	parts := []*la.Dense{b.S.Dense()}
	for _, r := range rs {
		parts = append(parts, r.Dense())
	}
	la.ParallelRows(out.Rows(), out.Rows()*out.Cols(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Row(i)[copy(out.Row(i), parts[0].Row(i)):]
			for t, r := range parts[1:] {
				row = row[copy(row, r.Row(int(b.Keys[t][i]))):]
			}
		}
	})
}

// rowAddressable returns m if its rows can be read directly (la.Dense,
// la.CSR), else m materialized.
func rowAddressable(m la.Mat) la.Mat {
	switch m.(type) {
	case *la.Dense, *la.CSR:
		return m
	}
	return m.Dense()
}

// addRow adds alpha times row i of a row-addressable m into dst.
func addRow(dst []float64, m la.Mat, i int, alpha float64) {
	if d, ok := m.(*la.Dense); ok {
		for j, v := range d.Row(i) {
			dst[j] += alpha * v
		}
		return
	}
	idx, vs := m.(*la.CSR).RowNNZ(i)
	for q, j := range idx {
		dst[j] += alpha * vs[q]
	}
}

// matTMulMat computes Aᵀ·B for two base-table matrices, without
// densifying a CSR B when A is already dense.
func matTMulMat(a, b la.Mat) *la.Dense {
	switch t := b.(type) {
	case *la.Dense:
		return a.TMul(t)
	case *la.CSR:
		if ad, ok := a.(*la.Dense); ok {
			// Aᵀ·B = (Bᵀ·A)ᵀ using the CSR transposed kernel.
			return t.TMul(ad).TDense()
		}
	}
	return a.TMul(b.Dense())
}
