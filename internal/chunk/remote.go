package chunk

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// remoteAttempts bounds how many times the client tries one operation.
// Every verb in the chunkd protocol is idempotent (PUT is a full replace,
// DELETE tolerates missing keys), so a retry after an ambiguous network
// failure is always safe.
const remoteAttempts = 3

// remoteBackoff spaces the retries. Kept short: the store's pipeline is
// blocked on the chunk, so a dead shard should fail fast, not hang.
const remoteBackoff = 50 * time.Millisecond

// remoteHeaderTimeout bounds how long a wedged server may sit on a request
// before sending response headers; without it a host that accepts the TCP
// connection but never answers would hang an attempt forever and the
// remoteAttempts bound would never engage.
const remoteHeaderTimeout = 30 * time.Second

// remoteOpTimeout bounds one whole attempt including the body transfer.
// Generous relative to chunk sizes (a server-limit-sized 1 GiB chunk at
// ~20 MB/s still fits), but finite, so a transfer that stalls mid-body
// fails the attempt instead of blocking the pipeline indefinitely.
const remoteOpTimeout = 2 * time.Minute

// RemoteBackend is the client side of the morpheus-chunkd protocol: a
// chunk Backend whose blobs live on a remote chunk server, so a sharded
// store can place chunks on other nodes next to (or instead of) local
// disks. It maintains a keep-alive connection pool sized for the parallel
// pipeline (reads from worker goroutines overlap write-behind spills),
// retries each operation a bounded number of times on network errors and
// 5xx responses, and validates every fetched blob against the response's
// Content-Length so a connection cut mid-stream surfaces as an error, not
// as a short chunk.
type RemoteBackend struct {
	base   string // normalized base URL, no trailing slash
	client *http.Client
	// execClient issues /exec requests. Separate from client because an
	// exec response is an open-ended partial stream: it keeps the
	// per-header timeout but no whole-request deadline.
	execClient *http.Client
	// noExec caches a definitive "this server has no /exec" answer
	// (404/405/501) so later passes skip straight to the passive path.
	noExec atomic.Bool
	// wire counts chunk payload bytes shipped to or fetched from this
	// shard (PUT bodies and GET responses; headers, retries of failed
	// attempts, and /exec partial frames excluded). With a compressing
	// wrapper around the backend this is the compressed byte count — the
	// "ship less" half of the store's IOStats.
	wire atomic.Int64
}

// BytesOnWire reports the chunk payload bytes this backend has moved over
// the network so far.
func (b *RemoteBackend) BytesOnWire() int64 { return b.wire.Load() }

// NewRemoteBackend returns a Backend speaking to the chunk server at
// baseURL (e.g. http://spill-node-1:9431). The URL must be absolute; any
// path prefix is kept, so one HTTP server can host several shards under
// different prefixes.
func NewRemoteBackend(baseURL string) (*RemoteBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("chunk: remote shard URL %q: %w", baseURL, err)
	}
	if !u.IsAbs() || u.Host == "" {
		return nil, fmt.Errorf("chunk: remote shard URL %q must be absolute (http://host:port)", baseURL)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	// One store streams a shard from many pipeline workers at once; keep
	// enough warm connections that reads, write-behind spills, and frees
	// reuse sockets instead of re-dialing.
	transport.MaxIdleConnsPerHost = 16
	transport.ResponseHeaderTimeout = remoteHeaderTimeout
	return &RemoteBackend{
		base:       strings.TrimRight(u.String(), "/"),
		client:     &http.Client{Transport: transport, Timeout: remoteOpTimeout},
		execClient: &http.Client{Transport: transport},
	}, nil
}

// Name identifies the shard by its base URL.
func (b *RemoteBackend) Name() string { return b.base }

func (b *RemoteBackend) chunkURL(key string) string { return b.base + "/chunks/" + key }

// retryable classifies one attempt's outcome: transport errors, mid-body
// read errors, and 5xx responses are worth retrying; everything else is a
// hard answer from the server.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.StatusCode >= 500
}

// do runs one request up to remoteAttempts times and returns the last
// response's status and body. body (may be nil) is re-sent from the start
// on every attempt. The response body is fully read, validated against the
// response's Content-Length, and the connection returned to the pool.
func (b *RemoteBackend) do(method, u string, body []byte) (status int, respBody []byte, err error) {
	for attempt := 0; ; attempt++ {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req, reqErr := http.NewRequest(method, u, r)
		if reqErr != nil {
			return 0, nil, fmt.Errorf("chunk: remote %s %s: %w", method, u, reqErr)
		}
		if body != nil {
			req.ContentLength = int64(len(body))
		}
		resp, doErr := b.client.Do(req)
		if doErr == nil {
			respBody, doErr = io.ReadAll(resp.Body)
			resp.Body.Close()
			if doErr == nil && resp.ContentLength >= 0 && int64(len(respBody)) != resp.ContentLength {
				doErr = fmt.Errorf("body has %d bytes, Content-Length declared %d", len(respBody), resp.ContentLength)
			}
			if doErr == nil && !retryable(resp, nil) {
				return resp.StatusCode, respBody, nil
			}
		}
		if attempt+1 >= remoteAttempts {
			if doErr != nil {
				return 0, nil, fmt.Errorf("chunk: remote %s %s: %w (after %d attempts)", method, u, doErr, attempt+1)
			}
			return 0, nil, fmt.Errorf("chunk: remote %s %s: server error %s: %s (after %d attempts)",
				method, u, resp.Status, strings.TrimSpace(string(respBody)), attempt+1)
		}
		time.Sleep(remoteBackoff * time.Duration(attempt+1))
	}
}

// statusErr turns a non-2xx hard answer into an error carrying the
// server's message.
func statusErr(method, u string, status int, body []byte) error {
	return fmt.Errorf("chunk: remote %s %s: HTTP %d: %s", method, u, status, strings.TrimSpace(string(body)))
}

// WriteChunk uploads the blob with a declared Content-Length; the server
// stores it atomically, so an interrupted upload leaves nothing readable.
func (b *RemoteBackend) WriteChunk(key string, data []byte) error {
	if !validChunkKey(key) {
		return fmt.Errorf("chunk: invalid chunk key %q", key)
	}
	u := b.chunkURL(key)
	status, body, err := b.do(http.MethodPut, u, data)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent && status != http.StatusOK && status != http.StatusCreated {
		return statusErr(http.MethodPut, u, status, body)
	}
	b.wire.Add(int64(len(data)))
	return nil
}

// ReadChunk fetches the blob; the length is validated against the
// response's Content-Length (and again against the expected chunk shape
// by the store's decoder).
func (b *RemoteBackend) ReadChunk(key string) ([]byte, error) {
	if !validChunkKey(key) {
		return nil, fmt.Errorf("chunk: invalid chunk key %q", key)
	}
	u := b.chunkURL(key)
	status, body, err := b.do(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, statusErr(http.MethodGet, u, status, body)
	}
	b.wire.Add(int64(len(body)))
	return body, nil
}

// Remove deletes the blob; a missing key is not an error.
func (b *RemoteBackend) Remove(key string) error {
	if !validChunkKey(key) {
		return fmt.Errorf("chunk: invalid chunk key %q", key)
	}
	u := b.chunkURL(key)
	status, body, err := b.do(http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent && status != http.StatusOK && status != http.StatusNotFound {
		return statusErr(http.MethodDelete, u, status, body)
	}
	return nil
}

// Reap asks the server to remove every stored chunk plus temp debris (the
// remote analogue of startup orphan reaping).
func (b *RemoteBackend) Reap() error {
	u := b.base + "/chunks"
	status, body, err := b.do(http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusErr(http.MethodDelete, u, status, body)
	}
	return nil
}

// ExecOp asks the chunk server to run the op over chunks it holds and
// returns the stream of encoded partials, in request order. A server
// without /exec (or without this op in its registry) yields
// ErrExecUnsupported — remembered, so later passes skip the probe.
// Transport errors and 5xx answers before the stream starts are retried
// like every other verb; once the stream is open, failures surface through
// PartialStream.Next and the caller falls back per chunk.
func (b *RemoteBackend) ExecOp(ctx context.Context, op Op, kind string, cols int, chunks []ExecChunk) (*PartialStream, error) {
	return b.execOpCodec(ctx, op, kind, cols, chunks, "")
}

// execOpCodec is ExecOp with content negotiation: codec (when non-empty)
// names the framing of the stored blobs, and the worker decodes them
// shard-side before the chunk decode. A server that does not know the
// codec answers 400, which surfaces as a hard error here and drops the
// group to the passive path — without caching noExec, since plain /exec
// may still work.
func (b *RemoteBackend) execOpCodec(ctx context.Context, op Op, kind string, cols int, chunks []ExecChunk, codec string) (*PartialStream, error) {
	if b.noExec.Load() {
		return nil, fmt.Errorf("%w: %s", ErrExecUnsupported, b.base)
	}
	for _, c := range chunks {
		if !validChunkKey(c.Key) {
			return nil, fmt.Errorf("chunk: invalid chunk key %q", c.Key)
		}
	}
	body, err := json.Marshal(execRequest{Op: op.Name, Params: op.Params, Kind: kind, Cols: cols, Codec: codec, Chunks: chunks})
	if err != nil {
		return nil, fmt.Errorf("chunk: encoding exec request: %w", err)
	}
	u := b.base + "/exec"
	for attempt := 0; ; attempt++ {
		req, reqErr := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if reqErr != nil {
			return nil, fmt.Errorf("chunk: remote POST %s: %w", u, reqErr)
		}
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
		resp, doErr := b.execClient.Do(req)
		if doErr == nil {
			switch resp.StatusCode {
			case http.StatusOK:
				return newPartialStream(resp.Body), nil
			case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
				resp.Body.Close()
				b.noExec.Store(true)
				return nil, fmt.Errorf("%w: %s: HTTP %d: %s", ErrExecUnsupported, b.base, resp.StatusCode, strings.TrimSpace(string(msg)))
			default:
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
				resp.Body.Close()
				if !retryable(resp, nil) {
					return nil, statusErr(http.MethodPost, u, resp.StatusCode, msg)
				}
				if attempt+1 >= remoteAttempts {
					return nil, fmt.Errorf("chunk: remote POST %s: server error %s: %s (after %d attempts)",
						u, resp.Status, strings.TrimSpace(string(msg)), attempt+1)
				}
			}
		} else if attempt+1 >= remoteAttempts {
			return nil, fmt.Errorf("chunk: remote POST %s: %w (after %d attempts)", u, doErr, attempt+1)
		}
		time.Sleep(remoteBackoff * time.Duration(attempt+1))
	}
}

var (
	_ Backend     = (*RemoteBackend)(nil)
	_ ExecBackend = (*RemoteBackend)(nil)
	_ codecExecer = (*RemoteBackend)(nil)
	_ wireMeter   = (*RemoteBackend)(nil)
)
