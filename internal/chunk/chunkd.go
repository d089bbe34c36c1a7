package chunk

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/la"
)

// DefaultMaxChunkBytes bounds the chunk blobs a ChunkServer accepts. A
// chunk's size is set by the store's memory budget (AutoRows), so anything
// approaching this limit indicates a misconfigured client, not a real
// chunk.
const DefaultMaxChunkBytes = 1 << 30 // 1 GiB

// ChunkServer serves one shard directory over HTTP — the morpheus-chunkd
// wire protocol that RemoteBackend speaks:
//
//	PUT    /chunks/{key}  store a chunk blob (Content-Length required,
//	                      bounded by maxBytes; the write is atomic, so a
//	                      client that dies mid-upload leaves nothing at key)
//	GET    /chunks/{key}  fetch a blob (exact Content-Length set)
//	HEAD   /chunks/{key}  stored size only
//	DELETE /chunks/{key}  remove a blob (idempotent)
//	GET    /chunks        list stored chunk keys, one per line
//	DELETE /chunks        reap every stored chunk plus interrupted-spill
//	                      temp debris; 200 with an empty body
//	POST   /exec          run a registered op over locally stored chunks
//	                      and stream back the encoded partials, in request
//	                      order (see the framing in exec.go)
//
// Keys are store-assigned chunk names (chunk-NNNNNN.bin); anything else is
// rejected, so a request can never escape the shard directory. Blobs land
// in the directory through the same atomic temp-file+rename path local
// shards use, making a crashed server restartable: debris is reaped by the
// next store that adopts the shard (DELETE /chunks).
//
// A ChunkServer holds no chunk state in memory — all state is the
// directory — so it can sit behind any stock HTTP server or mux.
type ChunkServer struct {
	dir      string
	backend  *dirBackend
	maxBytes int64
}

// NewChunkServer creates (if needed) dir and returns a handler serving it.
// maxChunkBytes bounds accepted uploads; <=0 means DefaultMaxChunkBytes.
func NewChunkServer(dir string, maxChunkBytes int64) (*ChunkServer, error) {
	b, err := NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	if maxChunkBytes <= 0 {
		maxChunkBytes = DefaultMaxChunkBytes
	}
	return &ChunkServer{dir: dir, backend: b.(*dirBackend), maxBytes: maxChunkBytes}, nil
}

// ServeHTTP implements http.Handler.
func (s *ChunkServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" {
		s.serveExec(w, r)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/chunks")
	if !ok {
		http.NotFound(w, r)
		return
	}
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		s.serveCollection(w, r)
		return
	}
	if !validChunkKey(rest) {
		http.Error(w, fmt.Sprintf("invalid chunk key %q", rest), http.StatusBadRequest)
		return
	}
	s.serveChunk(w, r, rest)
}

// serveCollection handles the keyless /chunks endpoints: listing and reap.
func (s *ChunkServer) serveCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		keys, err := s.backend.List()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, k := range keys {
			fmt.Fprintln(w, k)
		}
	case http.MethodDelete:
		if err := s.backend.Reap(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveChunk handles the per-key verbs.
func (s *ChunkServer) serveChunk(w http.ResponseWriter, r *http.Request, key string) {
	switch r.Method {
	case http.MethodPut:
		s.put(w, r, key)
	case http.MethodGet:
		raw, err := s.backend.ReadChunk(key)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, os.ErrNotExist) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		if _, err := w.Write(raw); err != nil {
			// The client is gone (it will see the cut and retry); log so a
			// half-sent chunk is visible server-side.
			log.Printf("morpheus-chunkd: sending %s: %v", key, err)
		}
	case http.MethodHead:
		n, err := s.backend.BytesOf(key)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, os.ErrNotExist) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	case http.MethodDelete:
		if err := s.backend.Remove(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// put stores an uploaded blob. The declared Content-Length is required and
// validated against the received bytes, so a connection cut mid-upload is
// rejected — and because the underlying write is temp-file+rename, a
// rejected or failed upload never leaves a partial blob at the key.
func (s *ChunkServer) put(w http.ResponseWriter, r *http.Request, key string) {
	if r.ContentLength < 0 {
		http.Error(w, "Content-Length required", http.StatusLengthRequired)
		return
	}
	if r.ContentLength > s.maxBytes {
		http.Error(w, fmt.Sprintf("chunk of %d bytes exceeds the server limit of %d", r.ContentLength, s.maxBytes), http.StatusRequestEntityTooLarge)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBytes))
	if err != nil {
		// A body overrunning the reader's limit is the same protocol
		// violation as an over-limit Content-Length; answer 413 for both
		// instead of a generic 400.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("chunk body exceeds the server limit of %d", s.maxBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("reading chunk body: %v", err), http.StatusBadRequest)
		return
	}
	if int64(len(raw)) != r.ContentLength {
		http.Error(w, fmt.Sprintf("received %d bytes, Content-Length declared %d", len(raw), r.ContentLength), http.StatusBadRequest)
		return
	}
	if err := s.backend.WriteChunk(key, raw); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveExec runs a registered op over locally stored chunks — the worker
// half of pushdown. Partial frames stream back in request order, flushed
// as they complete, through the same ordered-commit pipeline the driver
// uses locally; a per-chunk failure after streaming has begun is reported
// in-band as an error frame (the HTTP status is already committed) — a
// panic in apply too, which net/http would not recover on a pipeline worker.
func (s *ChunkServer) serveExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("exec request exceeds the server limit of %d", s.maxBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("reading exec request: %v", err), http.StatusBadRequest)
		return
	}
	// Codec is set only by an older driver whose store compressed its
	// chunks; this server cannot decode such blobs and refuses it below.
	var req struct {
		execRequest
		Codec string `json:"codec"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decoding exec request: %v", err), http.StatusBadRequest)
		return
	}
	st, err := prepareOp(Op{Name: req.Op, Params: req.Params}, req.Cols)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownOp) {
			// Not implemented: the client treats this as "no pushdown
			// here" and falls back, same as a pre-/exec server.
			status = http.StatusNotImplemented
		}
		http.Error(w, err.Error(), status)
		return
	}
	if req.Kind != chunkKindDense && req.Kind != chunkKindCSR {
		http.Error(w, fmt.Sprintf("unknown chunk kind %q", req.Kind), http.StatusBadRequest)
		return
	}
	if req.Cols <= 0 {
		http.Error(w, fmt.Sprintf("invalid cols %d", req.Cols), http.StatusBadRequest)
		return
	}
	if req.Codec != "" {
		// 400, not 501: the client reads just this group's chunks
		// passively, where a 501 would stop it asking this shard for /exec
		// on every later pass.
		http.Error(w, fmt.Sprintf("chunk codec %q is not supported", req.Codec), http.StatusBadRequest)
		return
	}
	if len(req.Chunks) == 0 {
		http.Error(w, "no chunks requested", http.StatusBadRequest)
		return
	}
	for _, c := range req.Chunks {
		if !validChunkKey(c.Key) {
			http.Error(w, fmt.Sprintf("invalid chunk key %q", c.Key), http.StatusBadRequest)
			return
		}
		if c.Rows <= 0 {
			http.Error(w, fmt.Sprintf("invalid rows %d for %s", c.Rows, c.Key), http.StatusBadRequest)
			return
		}
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // the client opens every shard's stream before its first read
	read := func(ci int) (la.Mat, error) {
		c := req.Chunks[ci]
		raw, err := s.backend.ReadChunk(c.Key)
		if err != nil {
			return nil, err
		}
		if req.Kind == chunkKindCSR {
			return decodeSparseChunk(c.Key, raw, c.Rows, req.Cols)
		}
		return decodeDenseChunk(c.Key, raw, c.Rows, req.Cols)
	}
	err = runPipeline(len(req.Chunks), Parallel(), read,
		func(ci int, c la.Mat) (raw any, err error) {
			defer func() {
				if p := recover(); p != nil {
					raw, err = nil, fmt.Errorf("chunk: op %s on %s: %v", req.Op, req.Chunks[ci].Key, p)
				}
			}()
			p, err := st.apply(c)
			if err != nil {
				return nil, err
			}
			return st.encodePartial(p), nil
		},
		func(ci int, v any) error {
			if err := writePartialFrame(w, v.([]byte)); err != nil {
				return err
			}
			flush()
			return nil
		})
	if err != nil {
		// Best effort: the client treats a failed error frame (cut
		// connection) the same way — fall back for the remaining chunks.
		if werr := writeErrorFrame(w, err.Error()); werr == nil {
			flush()
		}
		return
	}
	if err := writeEndFrame(w); err == nil {
		flush()
	}
}
