package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
)

// Op is a registered per-chunk map on the /exec wire: the name a shard
// resolves in its registry (prepareOp) and the step's closure state (e.g.
// the k-means centroids) as an opaque blob, checked against the chunks'
// width before any chunk is read. The driver runs the step it holds.
type Op struct {
	Name   string
	Params []byte
}

// ErrUnknownOp reports an op name absent from the registry (e.g. a newer
// client against an older chunkd).
var ErrUnknownOp = errors.New("chunk: unknown op")

// execStep names a pass's per-chunk map as a registered op for the shards
// that can run it: the name and params a shard rebuilds it from (params
// encoded only when one is asked) and the partial's shape it must answer.
type execStep struct {
	name   string
	params *la.Dense // nil: the op takes none
	shape  partialShape
}

// partialShape is what a registered op's partial is on the wire: a
// scanPart whose top is rows×cols, and for k > 0 whose part is the chunk's
// 1×k counts — the same Go value whether the driver or the shard holding
// the chunk mapped it.
type partialShape struct {
	rows, cols int // top's shape
	k          int // counts' width; 0: the partial is top alone
}

// preparedOp is a registered op resolved by /exec for chunks cols wide,
// shared by all the pipeline's workers.
type preparedOp struct {
	apply func(c la.Mat) (scanPart, error)
	partialShape
}

var opRegistry = map[string]func(params []byte, cols int) (*preparedOp, error){
	"crossprod": func(params []byte, cols int) (*preparedOp, error) {
		if len(params) != 0 {
			return nil, errors.New("chunk: op crossprod takes no params")
		}
		return &preparedOp{apply: func(c la.Mat) (scanPart, error) { return scanPart{top: c.CrossProd()}, nil }, partialShape: crossProdShape(cols)}, nil
	},
	// The name carries a version: this partial sums S_bᵀ·A by groups, and a
	// chunkd that still answers the first name forms the dense product, so
	// a driver must not merge its partials with these (it gets 501 instead
	// and reads passively).
	"kmeans-assign-v2": func(params []byte, cols int) (*preparedOp, error) {
		cent, rest, err := readDenseBlob(params)
		if err != nil {
			return nil, fmt.Errorf("chunk: op kmeans-assign-v2 params: %w", err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("chunk: op kmeans-assign-v2 params: %d trailing bytes", len(rest))
		}
		if cent.Rows() != cols || cent.Cols() == 0 {
			return nil, fmt.Errorf("chunk: op kmeans-assign-v2 params: %dx%d centroids for %d-column chunks, want %d×k with k ≥ 1", cent.Rows(), cent.Cols(), cols, cols)
		}
		// The step ml.KMeansScan runs on the driver, over a bare chunk:
		// its part is the chunk's cols×k share of Tᵀ·A and its k counts.
		step := ml.KMeansAssign(cent)
		o := &Operand{feat: true, offs: []int{cols}}
		do, err := o.prepare(step)
		if err != nil {
			return nil, err
		}
		apply := func(c la.Mat) (scanPart, error) {
			_, part, err := do(&block{Block: core.Block{S: c}})
			if err != nil {
				return scanPart{}, err
			}
			return part.(scanPart), nil
		}
		return &preparedOp{apply: apply, partialShape: stepShape(cols, step)}, nil
	},
}

// crossProdShape is the crossprod partial: the chunk's cols×cols AᵀA.
func crossProdShape(cols int) partialShape { return partialShape{cols, cols, 0} }

// stepShape is a registered scan step's partial over chunks cols wide: its
// block's share of Tᵀ·P and, as its Part, the PCols counts of its groups.
func stepShape(cols int, step la.Step) partialShape {
	return partialShape{cols, step.PCols, step.PCols}
}

// prepareOp is the /exec interpreter: op resolved for chunks cols wide.
func prepareOp(op Op, cols int) (*preparedOp, error) {
	mk, ok := opRegistry[op.Name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownOp, op.Name)
	}
	return mk(op.Params, cols)
}

// encodePartial serializes a partial for the /exec wire: the top blob,
// then the counts blob when the shape has counts. Floats travel as raw
// IEEE-754 bit patterns, so the round trip is lossless.
func (o partialShape) encodePartial(p scanPart) []byte {
	raw := appendDenseBlob(nil, p.top)
	if o.k > 0 {
		raw = appendDenseBlob(raw, la.RowVector(p.part.([]float64)))
	}
	return raw
}

// decodePartial checks the partial against the shape, so a shard
// answering the wrong shape is a decode error (and a fallback to the
// passive path), never a shape panic in the reduction.
func (o partialShape) decodePartial(raw []byte) (scanPart, error) {
	top, rest, err := readDenseBlob(raw)
	if err != nil {
		return scanPart{}, fmt.Errorf("chunk: partial: %w", err)
	}
	if top.Rows() != o.rows || top.Cols() != o.cols {
		return scanPart{}, fmt.Errorf("chunk: partial is %dx%d, want %dx%d", top.Rows(), top.Cols(), o.rows, o.cols)
	}
	p := scanPart{top: top}
	if o.k > 0 {
		counts, tail, err := readDenseBlob(rest)
		if err != nil {
			return scanPart{}, fmt.Errorf("chunk: partial counts: %w", err)
		}
		if counts.Rows() != 1 || counts.Cols() != o.k {
			return scanPart{}, fmt.Errorf("chunk: partial counts are %dx%d, want 1x%d", counts.Rows(), counts.Cols(), o.k)
		}
		p.part, rest = counts.Data(), tail
	}
	if len(rest) != 0 {
		return scanPart{}, fmt.Errorf("chunk: partial: %d trailing bytes", len(rest))
	}
	return p, nil
}

// appendDenseBlob serializes a dense matrix as uint64 rows, uint64 cols,
// then rows·cols float64 bit patterns, all little-endian.
func appendDenseBlob(raw []byte, d *la.Dense) []byte {
	raw = binary.LittleEndian.AppendUint64(raw, uint64(d.Rows()))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(d.Cols()))
	for _, v := range d.Data() {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// readDenseBlob decodes one appendDenseBlob matrix and returns the
// remaining bytes.
func readDenseBlob(raw []byte) (*la.Dense, []byte, error) {
	if len(raw) < 16 {
		return nil, nil, fmt.Errorf("dense blob: %d bytes, want ≥16", len(raw))
	}
	rows := binary.LittleEndian.Uint64(raw)
	cols := binary.LittleEndian.Uint64(raw[8:])
	if rows > uint64(1)<<31 || cols > uint64(1)<<31 {
		return nil, nil, fmt.Errorf("dense blob: implausible shape %dx%d", rows, cols)
	}
	cells := rows * cols
	if cells > uint64(1)<<32 {
		return nil, nil, fmt.Errorf("dense blob: implausible size %dx%d", rows, cols)
	}
	need := 16 + cells*8
	if uint64(len(raw)) < need {
		return nil, nil, fmt.Errorf("dense blob: %d bytes, want %d for %dx%d", len(raw), need, rows, cols)
	}
	data := make([]float64, cells)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16+i*8:]))
	}
	return la.NewDenseData(int(rows), int(cols), data), raw[need:], nil
}
