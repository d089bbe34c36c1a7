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

// opState is a prepared op: immutable after construction, so one instance
// is shared safely by all pipeline workers.
type opState interface {
	// apply runs the per-chunk map. The returned value is what the
	// driver-side committer sees — the same Go value whether the chunk was
	// mapped locally or remotely.
	apply(c la.Mat) (any, error)
	// encodePartial and decodePartial serialize apply's result for the
	// /exec wire. Floats travel as raw IEEE-754 bit patterns, so the
	// round-trip is lossless.
	encodePartial(v any) ([]byte, error)
	decodePartial(raw []byte) (any, error)
}

var opRegistry = map[string]func(params []byte, cols int) (opState, error){
	"crossprod": func(params []byte, cols int) (opState, error) {
		if len(params) != 0 {
			return nil, errors.New("chunk: op crossprod takes no params")
		}
		return denseReduceOp{f: func(c la.Mat) *la.Dense { return c.CrossProd() }, rows: cols, cols: cols}, nil
	},
	// The name carries a version: this partial sums S_bᵀ·A by groups, and a
	// chunkd that still answers the first name forms the dense product, so
	// a driver must not merge its partials with these (it gets 501 instead
	// and reads passively).
	"kmeans-assign-v2": func(params []byte, cols int) (opState, error) {
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
		// The step ml.KMeansScan runs locally, prepared over a bare chunk.
		o := &Operand{feat: true, offs: []int{cent.Rows()}}
		do, err := o.prepare(ml.KMeansAssign(cent))
		if err != nil {
			return nil, err
		}
		return assignOp{do: do, cols: cols, k: cent.Cols()}, nil
	},
}

// OpCrossProd names the AᵀA partial: each chunk contributes chunkᵀ·chunk.
func OpCrossProd() Op { return Op{Name: "crossprod"} }

// prepareOp resolves an Op against the registry for chunks cols wide.
func prepareOp(op Op, cols int) (opState, error) {
	mk, ok := opRegistry[op.Name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownOp, op.Name)
	}
	return mk(op.Params, cols)
}

// denseReduceOp covers ops whose partial is a single rows×cols dense matrix
// reduced by element-wise addition (crossprod).
type denseReduceOp struct {
	f          func(c la.Mat) *la.Dense
	rows, cols int
}

func (o denseReduceOp) apply(c la.Mat) (any, error) { return o.f(c), nil }

func (o denseReduceOp) encodePartial(v any) ([]byte, error) {
	d, ok := v.(*la.Dense)
	if !ok {
		return nil, fmt.Errorf("chunk: dense op partial is %T, want *la.Dense", v)
	}
	return appendDenseBlob(nil, d), nil
}

// decodePartial checks the partial against the prepared op's shape, so a
// shard answering the wrong shape is a decode error (and a fallback to the
// passive path), never a shape panic in the reduction.
func (o denseReduceOp) decodePartial(raw []byte) (any, error) {
	d, rest, err := readDenseBlob(raw)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("chunk: dense partial: %d trailing bytes", len(rest))
	}
	if d.Rows() != o.rows || d.Cols() != o.cols {
		return nil, fmt.Errorf("chunk: dense partial is %dx%d, want %dx%d", d.Rows(), d.Cols(), o.rows, o.cols)
	}
	return d, nil
}

// assignOp maps a chunk to its scanPart under ml.KMeansAssign for fixed
// centroids — the chunk's cols×k share of Tᵀ·A and its k cluster counts:
// the same function whether the chunk is mapped by the driver's workers or
// by the chunkd worker holding it.
type assignOp struct {
	do      func(*block) (*la.Dense, any, error)
	cols, k int
}

func (o assignOp) apply(c la.Mat) (any, error) {
	_, part, err := o.do(&block{Block: core.Block{S: c}})
	return part, err
}

func (assignOp) encodePartial(v any) ([]byte, error) {
	sp, ok := v.(scanPart)
	if !ok {
		return nil, fmt.Errorf("chunk: kmeans-assign-v2 partial is %T, want scanPart", v)
	}
	raw := appendDenseBlob(nil, sp.top)
	return appendDenseBlob(raw, la.RowVector(sp.part.([]float64))), nil
}

func (o assignOp) decodePartial(raw []byte) (any, error) {
	sums, rest, err := readDenseBlob(raw)
	if err != nil {
		return nil, fmt.Errorf("chunk: kmeans-assign-v2 partial: %w", err)
	}
	counts, rest, err := readDenseBlob(rest)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("chunk: kmeans-assign-v2 partial: bad counts (%d trailing bytes): %v", len(rest), err)
	}
	if sums.Rows() != o.cols || sums.Cols() != o.k || counts.Rows() != 1 || counts.Cols() != o.k {
		return nil, fmt.Errorf("chunk: kmeans-assign-v2 partial is %dx%d sums and %dx%d counts, want %dx%d and 1x%d",
			sums.Rows(), sums.Cols(), counts.Rows(), counts.Cols(), o.cols, o.k, o.k)
	}
	return scanPart{top: sums, part: counts.Data()}, nil
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
