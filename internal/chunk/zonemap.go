package chunk

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/la"
)

// ZoneMap is the per-chunk metadata an annotating backend records at spill
// time: value bounds, a stored-entry count, the all-zero proof the read
// path skips on, and a coarse per-column-block occupancy mask (for CSR
// chunks, which columns hold any stored entry).
type ZoneMap struct {
	// Min and Max bound the chunk's stored values (0 for a chunk with no
	// stored entries). Advisory facts — NaNs are not ordered into them.
	Min float64
	Max float64
	// NNZ counts stored entries that are not bit-pattern +0.0 for dense
	// chunks, and all stored entries for CSR chunks (an explicitly stored
	// zero still occupies structure a synthesized chunk would lack).
	NNZ int64
	// AllZero is the skip proof: decoding the chunk is guaranteed to yield
	// exactly the zero chunk of its shape. It is deliberately strict — a
	// dense cell holding -0.0 or NaN is NOT zero (its bit pattern differs
	// from +0.0), because skipping is only sound when the synthesized
	// replacement is bit-identical to what a read would have decoded.
	AllZero bool
	// ColBlocks is a 64-bit occupancy mask: the chunk's columns are split
	// into 64 even blocks and bit b is set iff block b holds a counted
	// entry. Lets a pass reason about column locality without the chunk.
	ColBlocks uint64
}

// colBlock maps column j of cols to its ColBlocks bit.
func colBlock(j, cols int) uint { return uint(j * 64 / cols) }

// denseZoneMap scans one dense chunk. Zero is bit-pattern +0.0: anything
// else (including -0.0 and NaN) counts as an entry and defeats AllZero.
func denseZoneMap(d *la.Dense) ZoneMap {
	zm := ZoneMap{AllZero: true}
	data := d.Data()
	cols := d.Cols()
	first := true
	for i, v := range data {
		if math.Float64bits(v) == 0 {
			continue
		}
		zm.NNZ++
		zm.AllZero = false
		if first {
			zm.Min, zm.Max = v, v
			first = false
		} else if v < zm.Min {
			zm.Min = v
		} else if v > zm.Max {
			zm.Max = v
		}
		if cols > 0 {
			zm.ColBlocks |= 1 << colBlock(i%cols, cols)
		}
	}
	return zm
}

// csrZoneMap scans one CSR chunk. Every stored entry counts — AllZero means
// "no stored entries", which is exactly the condition under which the
// synthesized empty CSR is bit-identical to the decoded chunk.
func csrZoneMap(c *la.CSR) ZoneMap {
	zm := ZoneMap{AllZero: true}
	cols := c.Cols()
	first := true
	for i := 0; i < c.Rows(); i++ {
		idx, vals := c.RowNNZ(i)
		for k, j := range idx {
			v := vals[k]
			zm.NNZ++
			zm.AllZero = false
			if first {
				zm.Min, zm.Max = v, v
				first = false
			} else if v < zm.Min {
				zm.Min = v
			} else if v > zm.Max {
				zm.Max = v
			}
			if cols > 0 {
				zm.ColBlocks |= 1 << colBlock(int(j), cols)
			}
		}
	}
	return zm
}

// Zone-map sidecar file, version 1 (the "1" in the magic): 4-byte magic,
// one flags byte (bit 0 = AllZero), then min, max (float64 bit patterns),
// NNZ, and ColBlocks, all little-endian uint64. Fixed 37-byte layout so a
// truncated sidecar is always detectable.
const zoneMagic = "MZM1"

// zoneSuffix names a chunk's zone-map sidecar: <key>.zm. The suffix keeps
// sidecars out of every chunk namespace check (validChunkKey requires a
// .bin suffix), so they can share a directory with dirBackend blobs without
// ever being listed, served, or reaped as chunks.
const zoneSuffix = ".zm"

const zoneFileLen = len(zoneMagic) + 1 + 4*8

func encodeZoneMap(zm ZoneMap) []byte {
	raw := make([]byte, 0, zoneFileLen)
	raw = append(raw, zoneMagic...)
	var flags byte
	if zm.AllZero {
		flags |= 1
	}
	raw = append(raw, flags)
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(zm.Min))
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(zm.Max))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(zm.NNZ))
	raw = binary.LittleEndian.AppendUint64(raw, zm.ColBlocks)
	return raw
}

func decodeZoneMap(raw []byte) (ZoneMap, error) {
	if len(raw) != zoneFileLen {
		return ZoneMap{}, fmt.Errorf("chunk: zone map sidecar has %d bytes, want %d", len(raw), zoneFileLen)
	}
	if string(raw[:len(zoneMagic)]) != zoneMagic {
		return ZoneMap{}, fmt.Errorf("chunk: bad zone map magic %q", raw[:len(zoneMagic)])
	}
	flags := raw[len(zoneMagic)]
	if flags&^1 != 0 {
		return ZoneMap{}, fmt.Errorf("chunk: zone map sidecar has unknown flags %#x", flags)
	}
	p := len(zoneMagic) + 1
	zm := ZoneMap{
		Min:       math.Float64frombits(binary.LittleEndian.Uint64(raw[p:])),
		Max:       math.Float64frombits(binary.LittleEndian.Uint64(raw[p+8:])),
		NNZ:       int64(binary.LittleEndian.Uint64(raw[p+16:])),
		AllZero:   flags&1 != 0,
		ColBlocks: binary.LittleEndian.Uint64(raw[p+24:]),
	}
	// The skip proof must agree with the facts beside it: an all-zero chunk
	// has no entries, no occupied column block and +0.0 bounds.
	if zm.AllZero && (zm.NNZ != 0 || zm.ColBlocks != 0 || math.Float64bits(zm.Min)|math.Float64bits(zm.Max) != 0) {
		return ZoneMap{}, fmt.Errorf("chunk: zone map sidecar claims an all-zero chunk with %d entries", zm.NNZ)
	}
	return zm, nil
}

// Capability interfaces the store probes on a chunk's backend. They are
// structural (type assertions), so wrappers compose freely and a plain
// Backend implementation never has to know about them.

// sizedWriter is implemented by backends whose stored blob differs in size
// from the logical chunk encoding (compression): WriteChunkSized reports
// the bytes that actually landed, which the store records instead of the
// raw encoding's length.
type sizedWriter interface {
	WriteChunkSized(key string, data []byte) (int64, error)
}

// zoneWriter is the annotating capability: store the blob and persist its
// zone map sidecar-atomically in the same write.
type zoneWriter interface {
	WriteChunkZoned(key string, data []byte, zm ZoneMap) (int64, error)
}

// zoneMapper exposes recorded zone maps to the read path.
type zoneMapper interface {
	ZoneMap(key string) (ZoneMap, bool)
}

// wireMeter is implemented by backends that move chunk bytes over a
// network (RemoteBackend) and can report how many.
type wireMeter interface {
	BytesOnWire() int64
}

// unwrapper is implemented by wrapper backends; capability probes walk the
// chain so e.g. the wire meter of a zone-mapped, compressed remote shard is
// still found.
type unwrapper interface {
	Unwrap() Backend
}

// zoneMapperOf probes b and its wrapped chain for the zone-map capability.
func zoneMapperOf(b Backend) (zoneMapper, bool) {
	for b != nil {
		if z, ok := b.(zoneMapper); ok {
			return z, true
		}
		u, ok := b.(unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
	return nil, false
}

// wireMeterOf probes b and its wrapped chain for the wire meter.
func wireMeterOf(b Backend) (wireMeter, bool) {
	for b != nil {
		if m, ok := b.(wireMeter); ok {
			return m, true
		}
		u, ok := b.(unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
	return nil, false
}

// writeSized writes through b, preferring the sized-write capability so the
// bytes that actually landed (compressed, when a codec wrapper is in the
// chain) flow back to the store's accounting.
func writeSized(b Backend, key string, data []byte) (int64, error) {
	if sw, ok := b.(sizedWriter); ok {
		return sw.WriteChunkSized(key, data)
	}
	if err := b.WriteChunk(key, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// writeThrough routes one encoded chunk to its backend with whatever
// capabilities the wrapper chain offers: annotating backends get the zone
// map (computed lazily, so plain backends never pay the scan), sized
// writers report the stored size.
func writeThrough(b Backend, key string, data []byte, zm func() ZoneMap) (int64, error) {
	if zw, ok := b.(zoneWriter); ok {
		return zw.WriteChunkZoned(key, data, zm())
	}
	return writeSized(b, key, data)
}

// zoneMapBackend is the annotating wrapper: chunk blobs pass through to the
// inner backend unchanged while each chunk's ZoneMap is persisted as a
// sidecar file (<key>.zm) under the same temp+rename discipline as chunks.
// Sidecars live in a wrapper-owned directory, so the inner backend may be
// local or remote; when it is a local dirBackend, the sidecar directory can
// simply be the shard directory itself (sidecar names never collide with
// the chunk namespace).
type zoneMapBackend struct {
	inner Backend
	dir   string

	mu    sync.Mutex
	cache map[string]ZoneMap
}

// NewZoneMapBackend wraps inner with zone-map annotation, persisting
// sidecars under sidecarDir (created if needed). Zone maps recorded by a
// previous run are reloaded lazily from their sidecars, so a store adopting
// already-spilled chunks regains skip eligibility without rescanning data.
// If the inner backend can execute pushed-down ops, the returned backend
// forwards that capability.
//
// Composition order: zone maps go outside, compression inside
// (NewZoneMapBackend over NewCompressingBackend), so annotations describe
// the decoded values regardless of how blobs are stored.
func NewZoneMapBackend(inner Backend, sidecarDir string) (Backend, error) {
	if err := os.MkdirAll(sidecarDir, 0o755); err != nil {
		return nil, fmt.Errorf("chunk: creating zone-map sidecar dir: %w", err)
	}
	zb := &zoneMapBackend{inner: inner, dir: sidecarDir, cache: make(map[string]ZoneMap)}
	if eb, ok := inner.(ExecBackend); ok {
		return &zoneMapExecBackend{zoneMapBackend: zb, exec: eb}, nil
	}
	return zb, nil
}

// Unwrap exposes the inner backend for capability probes.
func (b *zoneMapBackend) Unwrap() Backend { return b.inner }

func (b *zoneMapBackend) Name() string { return b.inner.Name() }

func (b *zoneMapBackend) sidecarPath(key string) string {
	return filepath.Join(b.dir, key+zoneSuffix)
}

// WriteChunkZoned stores the blob through the inner backend and persists
// its zone map sidecar-atomically. The chunk lands first: a crash between
// the two writes leaves a chunk without a sidecar — merely not skippable —
// never a sidecar describing a chunk that was not durably written.
func (b *zoneMapBackend) WriteChunkZoned(key string, data []byte, zm ZoneMap) (int64, error) {
	stored, err := writeSized(b.inner, key, data)
	if err != nil {
		return 0, err
	}
	final := b.sidecarPath(key)
	tmp := final + tmpSuffix
	if err := os.WriteFile(tmp, encodeZoneMap(zm), 0o644); err != nil {
		return 0, fmt.Errorf("chunk: zone map for %s: %w", key, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("chunk: zone map for %s: %w", key, err)
	}
	b.mu.Lock()
	b.cache[key] = zm
	b.mu.Unlock()
	return stored, nil
}

// WriteChunk stores a blob with no zone information, invalidating whatever
// sidecar a previous blob under the key may have left: a stale annotation
// must never describe fresh bytes.
func (b *zoneMapBackend) WriteChunk(key string, data []byte) error {
	b.mu.Lock()
	delete(b.cache, key)
	b.mu.Unlock()
	if err := os.Remove(b.sidecarPath(key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return b.inner.WriteChunk(key, data)
}

// ZoneMap reports the recorded zone map for key: from the in-memory cache,
// or lazily reloaded from the sidecar file — which is how a fresh wrapper
// over already-spilled chunks (store adoption after a restart) regains its
// annotations without rescanning any chunk. A missing or corrupt sidecar
// just means the chunk is not skippable.
func (b *zoneMapBackend) ZoneMap(key string) (ZoneMap, bool) {
	b.mu.Lock()
	zm, ok := b.cache[key]
	b.mu.Unlock()
	if ok {
		return zm, true
	}
	raw, err := os.ReadFile(b.sidecarPath(key))
	if err != nil {
		return ZoneMap{}, false
	}
	zm, err = decodeZoneMap(raw)
	if err != nil {
		return ZoneMap{}, false
	}
	b.mu.Lock()
	b.cache[key] = zm
	b.mu.Unlock()
	return zm, true
}

func (b *zoneMapBackend) ReadChunk(key string) ([]byte, error) { return b.inner.ReadChunk(key) }

func (b *zoneMapBackend) Remove(key string) error {
	b.mu.Lock()
	delete(b.cache, key)
	b.mu.Unlock()
	if err := os.Remove(b.sidecarPath(key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return b.inner.Remove(key)
}

// Reap reaps the inner backend, then removes sidecar debris — stale .zm
// files and interrupted .zm.tmp writes. Sidecars are metadata, not chunks,
// so they do not inflate the reported reap count.
func (b *zoneMapBackend) Reap() (int, error) {
	b.mu.Lock()
	b.cache = make(map[string]ZoneMap)
	b.mu.Unlock()
	n, err := b.inner.Reap()
	if err != nil {
		return n, err
	}
	for _, pattern := range []string{"chunk-*.bin" + zoneSuffix, "chunk-*.bin" + zoneSuffix + tmpSuffix} {
		stale, gerr := filepath.Glob(filepath.Join(b.dir, pattern))
		if gerr != nil {
			return n, fmt.Errorf("chunk: scanning for stale zone maps: %w", gerr)
		}
		for _, p := range stale {
			if rerr := os.Remove(p); rerr != nil && !os.IsNotExist(rerr) {
				return n, fmt.Errorf("chunk: reaping stale zone map: %w", rerr)
			}
		}
	}
	return n, nil
}

func (b *zoneMapBackend) BytesOf(key string) (int64, error) { return b.inner.BytesOf(key) }

// List delegates and re-filters through validChunkKey: even when the
// sidecar directory is the inner backend's own directory, .zm files are not
// valid chunk keys, so the Backend.List contract (write debris and metadata
// excluded) holds for the wrapped backend too.
func (b *zoneMapBackend) List() ([]string, error) {
	keys, err := b.inner.List()
	if err != nil {
		return nil, err
	}
	out := keys[:0]
	for _, k := range keys {
		if validChunkKey(k) {
			out = append(out, k)
		}
	}
	return out, nil
}

// zoneMapExecBackend forwards the inner backend's pushdown capability
// through the annotating wrapper (the inner ExecOp already carries any
// codec negotiation a compressing layer added).
type zoneMapExecBackend struct {
	*zoneMapBackend
	exec ExecBackend
}

func (b *zoneMapExecBackend) ExecOp(op Op, kind string, cols int, chunks []ExecChunk) (*PartialStream, error) {
	return b.exec.ExecOp(op, kind, cols, chunks)
}

var (
	_ Backend     = (*zoneMapBackend)(nil)
	_ zoneWriter  = (*zoneMapBackend)(nil)
	_ zoneMapper  = (*zoneMapBackend)(nil)
	_ ExecBackend = (*zoneMapExecBackend)(nil)
)
