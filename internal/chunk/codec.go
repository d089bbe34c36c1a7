package chunk

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Codec is a named chunk-blob codec: Encode wraps a chunk's raw encoding in
// a self-describing, versioned frame; Decode strictly validates and inverts
// it. Names are wire-stable identifiers — they travel in /exec requests so
// a chunkd worker can decode compressed blobs shard-side — and a codec's
// output format must never change under an existing name (add a new name
// for a new format).
type Codec interface {
	Name() string
	// Encode wraps raw in the codec's framed format. Encoding never fails:
	// incompressible input is framed in a stored (uncompressed) variant.
	Encode(raw []byte) []byte
	// Decode inverts Encode bit-exactly. Truncated or corrupt input is an
	// error — never silently short or wrong data.
	Decode(blob []byte) ([]byte, error)
}

// CodecShuffleFlate names the default chunk codec: a byte-shuffle
// (transposing the blob's 8-byte words so each float64 byte lane is stored
// contiguously) followed by DEFLATE at the fastest level. The shuffle turns
// the slowly-varying sign/exponent bytes of neighboring float64 values into
// long runs the LZ77 stage folds cheaply — the classic shuffle+LZ layout
// for dense numeric blocks.
const CodecShuffleFlate = "shuffle-flate"

// Codec frame, version 1 (the "1" in the magic): 4-byte magic, one method
// byte, uint64-LE decoded length, then the method's payload. The decoded
// length is declared up front so Decode can validate it got exactly the
// bytes Encode saw, and a stored method keeps incompressible blobs from
// growing beyond the fixed header.
const codecMagic = "MCZ1"

const codecHeaderLen = len(codecMagic) + 1 + 8

const (
	codecMethodStored       = 0x00 // payload is the raw bytes verbatim
	codecMethodShuffleFlate = 0x01 // payload is DEFLATE(byteShuffle(raw))
)

// codecRegistry maps wire names to implementations. chunkd resolves /exec
// codec names here too, so driver and worker always agree on a format.
var codecRegistry = map[string]Codec{
	CodecShuffleFlate: shuffleFlateCodec{},
}

// CodecByName resolves a codec wire name.
func CodecByName(name string) (Codec, error) {
	c, ok := codecRegistry[name]
	if !ok {
		return nil, fmt.Errorf("chunk: unknown codec %q (have %v)", name, Codecs())
	}
	return c, nil
}

// Codecs lists the registered codec names, sorted.
func Codecs() []string {
	names := make([]string, 0, len(codecRegistry))
	for n := range codecRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type shuffleFlateCodec struct{}

func (shuffleFlateCodec) Name() string { return CodecShuffleFlate }

func appendCodecHeader(dst []byte, method byte, rawLen int) []byte {
	dst = append(dst, codecMagic...)
	dst = append(dst, method)
	return binary.LittleEndian.AppendUint64(dst, uint64(rawLen))
}

func (shuffleFlateCodec) Encode(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(codecHeaderLen + len(raw)/2)
	buf.Write(appendCodecHeader(nil, codecMethodShuffleFlate, len(raw)))
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(byteShuffle(raw))
	fw.Close()
	if buf.Len() >= codecHeaderLen+len(raw) {
		// Incompressible (or tiny): store raw so the overhead is bounded by
		// the fixed header.
		out := appendCodecHeader(make([]byte, 0, codecHeaderLen+len(raw)), codecMethodStored, len(raw))
		return append(out, raw...)
	}
	return buf.Bytes()
}

func (shuffleFlateCodec) Decode(blob []byte) ([]byte, error) {
	if len(blob) < codecHeaderLen {
		return nil, fmt.Errorf("chunk: codec frame truncated: %d bytes, want ≥%d", len(blob), codecHeaderLen)
	}
	if string(blob[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("chunk: bad codec magic %q", blob[:len(codecMagic)])
	}
	method := blob[len(codecMagic)]
	rawLen := binary.LittleEndian.Uint64(blob[len(codecMagic)+1:])
	if rawLen > maxPartialBytes {
		return nil, fmt.Errorf("chunk: codec frame declares %d decoded bytes, exceeds cap", rawLen)
	}
	payload := blob[codecHeaderLen:]
	switch method {
	case codecMethodStored:
		if uint64(len(payload)) != rawLen {
			return nil, fmt.Errorf("chunk: stored codec payload has %d bytes, frame declares %d", len(payload), rawLen)
		}
		return append([]byte(nil), payload...), nil
	case codecMethodShuffleFlate:
		fr := flate.NewReader(bytes.NewReader(payload))
		defer fr.Close()
		shuf := make([]byte, rawLen)
		if _, err := io.ReadFull(fr, shuf); err != nil {
			return nil, fmt.Errorf("chunk: corrupt compressed payload: %w", err)
		}
		// The stream must end exactly at rawLen: trailing compressed data
		// means the frame misdescribes its contents.
		var tail [1]byte
		if n, err := fr.Read(tail[:]); n != 0 || (err != nil && err != io.EOF) {
			return nil, fmt.Errorf("chunk: compressed payload longer than the declared %d bytes", rawLen)
		}
		return byteUnshuffle(shuf), nil
	default:
		return nil, fmt.Errorf("chunk: unknown codec method 0x%02x", method)
	}
}

// byteShuffle transposes the blob viewed as (n/8)×8 bytes: byte lane k of
// every 8-byte word is grouped contiguously, so for float64 data the sign/
// exponent bytes (near-constant across neighboring values) form long runs.
// The tail (n mod 8 bytes) is copied unchanged. byteUnshuffle is the exact
// inverse for every input length.
func byteShuffle(raw []byte) []byte {
	n := len(raw)
	words := n / 8
	out := make([]byte, n)
	for lane := 0; lane < 8; lane++ {
		base := lane * words
		for w := 0; w < words; w++ {
			out[base+w] = raw[w*8+lane]
		}
	}
	copy(out[8*words:], raw[8*words:])
	return out
}

func byteUnshuffle(shuf []byte) []byte {
	n := len(shuf)
	words := n / 8
	out := make([]byte, n)
	for lane := 0; lane < 8; lane++ {
		base := lane * words
		for w := 0; w < words; w++ {
			out[w*8+lane] = shuf[base+w]
		}
	}
	copy(out[8*words:], shuf[8*words:])
	return out
}

// compressingBackend wraps an inner Backend so every chunk blob is stored —
// and, when the inner backend is remote, shipped — in the codec's framed
// format. The compression is transparent at the Backend seam: ReadChunk
// returns the original raw encoding, so the store's decoders (and every
// driver above them) run unmodified.
type compressingBackend struct {
	inner Backend
	codec Codec
}

// NewCompressingBackend wraps inner with the named codec (see Codecs). If
// the inner backend can execute pushed-down ops, the returned backend keeps
// that capability, adding content negotiation: /exec requests name the
// codec so the worker decodes blobs shard-side and compressed chunks never
// travel for a pushed-down pass.
func NewCompressingBackend(inner Backend, codecName string) (Backend, error) {
	codec, err := CodecByName(codecName)
	if err != nil {
		return nil, err
	}
	cb := &compressingBackend{inner: inner, codec: codec}
	if ce, ok := inner.(codecExecer); ok {
		return &compressingExecBackend{compressingBackend: cb, exec: ce}, nil
	}
	return cb, nil
}

// Unwrap exposes the inner backend for capability probes (wire metering,
// nested wrappers).
func (b *compressingBackend) Unwrap() Backend { return b.inner }

func (b *compressingBackend) Name() string { return b.inner.Name() }

func (b *compressingBackend) WriteChunk(key string, data []byte) error {
	_, err := b.WriteChunkSized(key, data)
	return err
}

// WriteChunkSized stores the encoded blob and reports the bytes that
// actually landed — the compressed size, which is what the store's
// BytesOnDisk accounting should track.
func (b *compressingBackend) WriteChunkSized(key string, data []byte) (int64, error) {
	blob := b.codec.Encode(data)
	if err := b.inner.WriteChunk(key, blob); err != nil {
		return 0, err
	}
	return int64(len(blob)), nil
}

func (b *compressingBackend) ReadChunk(key string) ([]byte, error) {
	blob, err := b.inner.ReadChunk(key)
	if err != nil {
		return nil, err
	}
	raw, err := b.codec.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("chunk: %s: %w", key, err)
	}
	return raw, nil
}

func (b *compressingBackend) Remove(key string) error { return b.inner.Remove(key) }

func (b *compressingBackend) Reap() error { return b.inner.Reap() }

// compressingExecBackend adds pushdown to the compressing wrapper: the op
// ships with the codec name and the worker decodes blobs shard-side, so a
// pushed-down pass over compressed chunks moves only partials (and the
// request), never chunk bytes in either format.
type compressingExecBackend struct {
	*compressingBackend
	exec codecExecer
}

func (b *compressingExecBackend) ExecOp(ctx context.Context, op Op, kind string, cols int, chunks []ExecChunk) (*PartialStream, error) {
	return b.exec.execOpCodec(ctx, op, kind, cols, chunks, b.codec.Name())
}

var (
	_ Backend     = (*compressingBackend)(nil)
	_ sizedWriter = (*compressingBackend)(nil)
	_ ExecBackend = (*compressingExecBackend)(nil)
)
