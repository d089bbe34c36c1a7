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

// Op names a per-chunk map whose partials reduce associatively on the
// driver. Ops are registered by name so the exact same apply code runs on
// the driver's workers and on a remote chunkd worker: a pushed-down pass
// merges bit-identically with the all-local run because the per-chunk
// floating-point work is byte-for-byte the same and the committer reduces
// in ascending chunk order either way.
//
// Params carries the op's closure state (e.g. the k-means centroids) as an
// opaque blob produced by the Op constructors below; both sides decode it
// with the same registry entry, and check it against the width of the
// chunks it will be applied to before any chunk is read.
type Op struct {
	Name   string
	Params []byte
}

// ErrUnknownOp reports an op name absent from the registry (e.g. a newer
// client against an older chunkd).
var ErrUnknownOp = errors.New("chunk: unknown op")

// preparedOp is a registered op resolved for chunks cols wide: immutable
// after construction, so one instance is shared safely by all pipeline
// workers. Every op's partial is a scanPart: top, a rows×cols dense share
// of a reduction, and for k > 0 the chunk's 1×k counts as part — the same
// Go value whether the chunk was mapped by the driver or by the shard
// holding it.
type preparedOp struct {
	apply      func(c la.Mat) (scanPart, error)
	rows, cols int // top's shape
	k          int // counts' width; 0: the partial is top alone
}

var opRegistry = map[string]func(params []byte, cols int) (*preparedOp, error){
	"crossprod": func(params []byte, cols int) (*preparedOp, error) {
		if len(params) != 0 {
			return nil, errors.New("chunk: op crossprod takes no params")
		}
		return &preparedOp{apply: func(c la.Mat) (scanPart, error) { return scanPart{top: c.CrossProd()}, nil }, rows: cols, cols: cols}, nil
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
		// The step ml.KMeansScan runs locally, prepared over a bare chunk:
		// its part is the chunk's cols×k share of Tᵀ·A and its k counts.
		o := &Operand{feat: true, offs: []int{cent.Rows()}}
		do, err := o.prepare(ml.KMeansAssign(cent))
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
		return &preparedOp{apply: apply, rows: cols, cols: cent.Cols(), k: cent.Cols()}, nil
	},
}

// OpCrossProd names the AᵀA partial: each chunk contributes chunkᵀ·chunk.
func OpCrossProd() Op { return Op{Name: "crossprod"} }

// prepareOp resolves an Op against the registry for chunks cols wide.
func prepareOp(op Op, cols int) (*preparedOp, error) {
	mk, ok := opRegistry[op.Name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownOp, op.Name)
	}
	return mk(op.Params, cols)
}

// encodePartial serializes apply's result for the /exec wire: the top
// blob, then the counts blob when the op has counts. Floats travel as raw
// IEEE-754 bit patterns, so the round trip is lossless.
func (o *preparedOp) encodePartial(p scanPart) []byte {
	raw := appendDenseBlob(nil, p.top)
	if o.k > 0 {
		raw = appendDenseBlob(raw, la.RowVector(p.part.([]float64)))
	}
	return raw
}

// decodePartial checks the partial against the prepared op's shape, so a
// shard answering the wrong shape is a decode error (and a fallback to the
// passive path), never a shape panic in the reduction.
func (o *preparedOp) decodePartial(raw []byte) (scanPart, error) {
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
