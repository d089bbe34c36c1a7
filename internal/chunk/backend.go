package chunk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Backend stores the chunk blobs of one shard. The Store handles placement,
// refcounting, and byte accounting; a Backend only has to persist, return,
// and delete opaque blobs under store-assigned keys (chunk-NNNNNN.bin). The
// default backend is a local directory (NewDirBackend); NewRemoteBackend
// talks to a morpheus-chunkd chunk server over HTTP, so one sharded store
// can mix local disks and remote nodes behind the same placement policies,
// per-shard write-behind queues, and ShardStats accounting.
//
// A Backend must be safe for concurrent use: a streaming pass reads chunks
// from worker goroutines while the write-behind stage spills to the same
// shard.
//
// Blobs cross the interface as whole []byte values (the natural unit for a
// remote shard), so each in-flight spill briefly holds one encoded copy of
// its chunk next to the decoded *la.Dense — budget for it when sizing
// chunks, as the AutoRows docs describe for output residency.
type Backend interface {
	// Name identifies the shard in stats and errors: the directory path
	// for a local shard, the base URL for a remote one. Names must be
	// unique within a store.
	Name() string
	// WriteChunk durably stores data under key, replacing any previous
	// blob. The write must be atomic: a crashed or failed write may leave
	// temporary debris (removed by Reap) but never a readable partial
	// blob under the final key.
	WriteChunk(key string, data []byte) error
	// ReadChunk returns the blob stored under key. The slice belongs to
	// the caller from then on: the backend must never retain, reuse or
	// write it again (a dense chunk is decoded in place, so the blob
	// becomes the chunk's storage).
	ReadChunk(key string) ([]byte, error)
	// Remove deletes the blob under key. Removing a key that was never
	// written (e.g. after a failed spill) is not an error.
	Remove(key string) error
	// Reap removes stale blobs left behind by a crashed previous run —
	// chunk blobs and write-temporary debris — and reports how many it
	// removed. The Store calls it once when the backend is adopted.
	Reap() (int, error)
	// BytesOf reports the stored size of the blob under key.
	BytesOf(key string) (int64, error)
	// List returns the valid chunk keys currently stored, sorted. Write
	// debris (*.tmp) and foreign files are excluded here, so a wrapped
	// backend (compression) and the chunk server's listing share one
	// notion of "what is a chunk".
	List() ([]string, error)
}

// tmpSuffix marks an in-progress dirBackend spill. writeChunkFile goes
// through key+tmpSuffix and renames into place, so a crash mid-write leaves
// only *.tmp debris, never a truncated chunk at a readable key.
const tmpSuffix = ".tmp"

// dirBackend is the default Backend: one local spill directory.
type dirBackend struct {
	dir string
}

// NewDirBackend creates (if needed) dir and returns the local-directory
// chunk backend over it. Stale chunk and temp files are not removed here;
// the Store reaps them via Reap when it adopts the backend.
func NewDirBackend(dir string) (Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunk: creating store: %w", err)
	}
	return &dirBackend{dir: dir}, nil
}

func (b *dirBackend) Name() string { return b.dir }

// WriteChunk spills via a temp file and an atomic rename, removing the
// temp on any failure: an interrupted spill never leaves a truncated chunk
// at its final path to be misread later as a byte-count error.
func (b *dirBackend) WriteChunk(key string, data []byte) error {
	final := filepath.Join(b.dir, key)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("chunk: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("chunk: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chunk: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chunk: %w", err)
	}
	return nil
}

func (b *dirBackend) ReadChunk(key string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(b.dir, key))
	if err != nil {
		return nil, fmt.Errorf("chunk: %w", err)
	}
	return raw, nil
}

// readInto is ReadChunk into buf when it holds the blob (a recycled read
// buffer, Store.readChunkBlob), so it is neither allocated nor zeroed.
func (b *dirBackend) readInto(key string, buf []byte) ([]byte, error) {
	f, err := os.Open(filepath.Join(b.dir, key))
	if err != nil {
		return nil, fmt.Errorf("chunk: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err == nil {
		if n := int(st.Size()); cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		_, err = io.ReadFull(f, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("chunk: %w", err)
	}
	return buf, nil
}

func (b *dirBackend) Remove(key string) error {
	if err := os.Remove(filepath.Join(b.dir, key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Reap removes the debris of a crashed previous run: stale chunk files and
// interrupted-spill *.tmp files.
func (b *dirBackend) Reap() (int, error) {
	reaped := 0
	for _, pattern := range []string{"chunk-*.bin", "chunk-*.bin" + tmpSuffix} {
		stale, err := filepath.Glob(filepath.Join(b.dir, pattern))
		if err != nil {
			return reaped, fmt.Errorf("chunk: scanning for orphans: %w", err)
		}
		for _, p := range stale {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return reaped, fmt.Errorf("chunk: reaping orphan: %w", err)
			}
			reaped++
		}
	}
	return reaped, nil
}

// List returns the chunk keys in the directory, sorted (os.ReadDir order),
// skipping *.tmp debris and anything else that is not a valid chunk key.
func (b *dirBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("chunk: %w", err)
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !validChunkKey(e.Name()) {
			continue
		}
		keys = append(keys, e.Name())
	}
	return keys, nil
}

func (b *dirBackend) BytesOf(key string) (int64, error) {
	fi, err := os.Stat(filepath.Join(b.dir, key))
	if err != nil {
		return 0, fmt.Errorf("chunk: %w", err)
	}
	return fi.Size(), nil
}

// validChunkKey reports whether key is a store-assigned chunk key. Both the
// chunk server and the remote client reject anything else, so a key can
// never escape a shard's namespace (path traversal) on either end.
func validChunkKey(key string) bool {
	if !strings.HasPrefix(key, "chunk-") || !strings.HasSuffix(key, ".bin") {
		return false
	}
	digits := key[len("chunk-") : len(key)-len(".bin")]
	if digits == "" {
		return false
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
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

// wireMeter is implemented by backends that move chunk bytes over a
// network (RemoteBackend) and can report how many.
type wireMeter interface {
	BytesOnWire() int64
}

// unwrapper is implemented by wrapper backends; the wire-meter probe walks
// the chain so the meter of a compressed remote shard is still found.
type unwrapper interface {
	Unwrap() Backend
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
