package chunk

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/la"
)

// startChunkServer serves a fresh shard directory over a real HTTP
// listener and returns the remote backend speaking to it.
func startChunkServer(t testing.TB) (*RemoteBackend, string) {
	t.Helper()
	dir := t.TempDir()
	h, err := NewChunkServer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	b, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return b, dir
}

// remoteStore builds a store with one local shard and one remote
// (HTTP-served) shard — the mixed deployment the backend interface exists
// for.
func remoteStore(t testing.TB, policy Placement) *Store {
	t.Helper()
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := startChunkServer(t)
	s, err := NewShardedStoreBackends([]Backend{local, remote}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRemoteBackendRoundTrip exercises the wire protocol end to end:
// write, size, list, read, remove, reap. Size and list are chunkd's HEAD
// and GET /chunks, which the store does not call; they are asked directly.
func TestRemoteBackendRoundTrip(t *testing.T) {
	b, dir := startChunkServer(t)
	blob := []byte{1, 2, 3, 4, 5}
	if err := b.WriteChunk("chunk-000001.bin", blob); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChunk("chunk-000002.bin", nil); err != nil { // 0-byte chunk (0-col matrices)
		t.Fatal(err)
	}
	resp, err := http.Head(b.chunkURL("chunk-000001.bin"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(blob)) {
		t.Fatalf("HEAD = %s, Content-Length %d, want 200 and %d", resp.Status, resp.ContentLength, len(blob))
	}
	if keys := listChunks(t, b); len(keys) != 2 {
		t.Fatalf("GET /chunks = %v, want 2 keys", keys)
	}
	got, err := b.ReadChunk("chunk-000001.bin")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("ReadChunk = %v, %v", got, err)
	}
	if got, err := b.ReadChunk("chunk-000002.bin"); err != nil || len(got) != 0 {
		t.Fatalf("0-byte ReadChunk = %v, %v", got, err)
	}
	if err := b.Remove("chunk-000001.bin"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("chunk-000001.bin"); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := b.ReadChunk("chunk-000001.bin"); err == nil {
		t.Fatal("reading a removed chunk succeeded")
	}
	// Reap clears the shard — including tmp debris a crashed server write
	// would leave.
	if err := os.WriteFile(filepath.Join(dir, "chunk-000009.bin"+tmpSuffix), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.Reap(); err != nil {
		t.Fatalf("Reap = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "chunk-000009.bin"+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatalf("after Reap the tmp debris is still there: %v", err)
	}
	if keys := listChunks(t, b); len(keys) != 0 {
		t.Fatalf("after Reap: GET /chunks = %v", keys)
	}
}

// listChunks is the server's GET /chunks: its chunk keys, one per line.
func listChunks(t *testing.T, b *RemoteBackend) []string {
	t.Helper()
	status, body, err := b.do(http.MethodGet, b.base+"/chunks", nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("GET /chunks = %d, %v", status, err)
	}
	return strings.Fields(string(body))
}

// TestChunkServerRejectsBadRequests: traversal keys, foreign paths, and
// over-limit uploads are refused.
func TestChunkServerRejectsBadRequests(t *testing.T) {
	dir := t.TempDir()
	h, err := NewChunkServer(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Drive the handler directly so the raw (uncleaned) paths reach it —
	// a client would normalize the traversal away before sending.
	for _, path := range []string{
		"/chunks/../../etc/passwd",
		"/chunks/notachunk",
		"/chunks/chunk-12x34.bin",
		"/elsewhere",
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusBadRequest && rr.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 400/404", path, rr.Code)
		}
	}

	// Upload above the server's chunk limit.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/chunks/chunk-000001.bin", bytes.NewReader(make([]byte, 65)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit PUT = %d, want 413", resp.StatusCode)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected upload left files: %v", entries)
	}
}

// TestRemoteRetriesTransientFailures: the client retries transient 5xx
// answers and network-level failures a bounded number of times, so a
// briefly unavailable shard does not kill a pass — but a persistently dead
// one fails instead of hanging.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var failN atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failN.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	b, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	failN.Store(remoteAttempts - 1) // recoverable: last attempt succeeds
	if err := b.WriteChunk("chunk-000001.bin", []byte{7}); err != nil {
		t.Fatalf("write with transient failures: %v", err)
	}
	failN.Store(remoteAttempts - 1)
	if got, err := b.ReadChunk("chunk-000001.bin"); err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("read with transient failures = %v, %v", got, err)
	}
	failN.Store(remoteAttempts + 5) // persistent: retries must stay bounded
	if err := b.WriteChunk("chunk-000002.bin", []byte{8}); err == nil {
		t.Fatal("write against a persistently failing shard succeeded")
	}
}

// TestRemoteDifferentialDrivers pins every driver — dense GLM, sparse GLM,
// star-schema factorized GLM, streamed k-means, streamed GNMF — to
// bitwise-identical results between a local-directory store and a store
// with a remote HTTP shard: where a chunk lives (local disk or another
// node) changes placement, never results.
func TestRemoteDifferentialDrivers(t *testing.T) {
	local := testStore(t)
	mixed := remoteStore(t, LeastBytes)

	d1, s1, nt1, y := buildPKFKInputs(t, local, 55)
	d2, s2, nt2, _ := buildPKFKInputs(t, mixed, 55)

	const iters = 3
	ex := Parallel()

	rd1, err := logRegM(ex, d1, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rd2, err := logRegM(ex, d2, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(rd1.W, rd2.W) != 0 {
		t.Fatal("dense GLM weights differ between local and remote-shard store")
	}

	rs1, err := logRegM(ex, s1, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := logRegM(ex, s2, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(rs1.W, rs2.W) != 0 {
		t.Fatal("sparse GLM weights differ between local and remote-shard store")
	}

	rf1, err := logRegF(ex, nt1, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rf2, err := logRegF(ex, nt2, y, iters, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(rf1.W, rf2.W) != 0 {
		t.Fatal("star GLM weights differ between local and remote-shard store")
	}

	km1, err := kMeans(ex, d1, 4, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	km2, err := kMeans(ex, d2, 4, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(km1.Centroids, km2.Centroids) != 0 || km1.Objective != km2.Objective {
		t.Fatal("k-means results differ between local and remote-shard store")
	}
	a1, err := km1.Assign.Dense()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := km2.Assign.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(a1, a2) != 0 {
		t.Fatal("k-means assignments differ between local and remote-shard store")
	}

	g1, err := gnmf(ex, s1, 3, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gnmf(ex, s2, 3, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := g1.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := g2.W.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(g1.H, g2.H) != 0 || la.MaxAbsDiff(w1, w2) != 0 {
		t.Fatal("GNMF factors differ between local and remote-shard store")
	}

	// Remote chunks participate in the shard accounting like local ones.
	stats := mixed.ShardStats()
	var remoteStat *ShardStat
	for i := range stats {
		if strings.HasPrefix(stats[i].Dir, "http") {
			remoteStat = &stats[i]
		}
	}
	if remoteStat == nil || remoteStat.Chunks == 0 || remoteStat.Bytes == 0 {
		t.Fatalf("remote shard holds no accounted chunks: %+v", stats)
	}
}

// BenchmarkRemoteSpill measures spill + stream throughput when every
// chunk crosses HTTP to an in-process chunkd — the wire-protocol overhead
// floor (loopback, no real network). Compare against BenchmarkShardedSpill
// to see what a remote shard costs per byte.
func BenchmarkRemoteSpill(b *testing.B) {
	const rows, cols, chunkRows = 2048, 128, 256
	src := randDense(rand.New(rand.NewSource(7)), rows, cols)
	x := randDense(rand.New(rand.NewSource(8)), cols, cols)
	remote, _ := startChunkServer(b)
	s, err := NewShardedStoreBackends([]Backend{remote}, RoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(2 * rows * cols * 8) // spilled input + spilled product
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FromDense(s, src, chunkRows)
		if err != nil {
			b.Fatal(err)
		}
		p, err := mulExec(MatOperand(Parallel(), m), x)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(); err != nil {
			b.Fatal(err)
		}
		if err := m.Free(); err != nil {
			b.Fatal(err)
		}
	}
}

// faultServer wraps a ChunkServer and, once armed, injects mid-stream
// failures: GET responses declare the full Content-Length but the body is
// cut halfway; PUTs fail outright. The injection persists across the
// client's bounded retries.
type faultServer struct {
	inner *ChunkServer
	mu    sync.Mutex
	mode  string // "", "read", "write"
	dir   string
}

func (f *faultServer) arm(mode string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mode = mode
}

func (f *faultServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	mode := f.mode
	f.mu.Unlock()
	key := strings.TrimPrefix(r.URL.Path, "/chunks/")
	switch {
	case mode == "read" && r.Method == http.MethodGet && validChunkKey(key):
		raw, err := os.ReadFile(filepath.Join(f.dir, key))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		// Declare the real size, send half: the connection dies
		// mid-stream from the client's point of view.
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.WriteHeader(http.StatusOK)
		w.Write(raw[:len(raw)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // kill the connection without a clean EOF
	case mode == "write" && r.Method == http.MethodPut:
		http.Error(w, "injected shard outage", http.StatusInternalServerError)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// TestRemoteMidStreamFailureNoLeakedAccounting injects network failures in
// the middle of streamed passes over a mixed local+remote store and checks
// the acceptance criterion: the pass returns an error, and after freeing
// the inputs the store's accounting returns to its baseline — zero live
// chunks, zero bytes, on every shard.
func TestRemoteMidStreamFailureNoLeakedAccounting(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewChunkServer(filepath.Join(dir, "remote"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fault := &faultServer{inner: inner, dir: filepath.Join(dir, "remote")}
	srv := httptest.NewServer(fault)
	defer srv.Close()
	remote, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDirBackend(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{local, remote}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}

	d, sp, nt, y := buildPKFKInputs(t, s, 56)
	baselineChunks := s.LiveChunks()
	baselineBytes := s.BytesOnDisk()

	ex := Exec{Workers: 2, Prefetch: 2}

	// Mid-stream read failure: a GET dies halfway through the body.
	fault.arm("read")
	if _, err := logRegM(ex, d, y, 2, 1e-3); err == nil {
		t.Fatal("dense GLM succeeded despite mid-stream read failures")
	}
	if _, err := logRegM(ex, sp, y, 2, 1e-3); err == nil {
		t.Fatal("sparse GLM succeeded despite mid-stream read failures")
	}
	if _, err := logRegF(ex, nt, y, 2, 1e-3); err == nil {
		t.Fatal("star GLM succeeded despite mid-stream read failures")
	}
	fault.arm("")
	if got := s.LiveChunks(); got != baselineChunks {
		t.Fatalf("after read failures: %d live chunks, want baseline %d", got, baselineChunks)
	}
	if got := s.BytesOnDisk(); got != baselineBytes {
		t.Fatalf("after read failures: %d bytes, want baseline %d", got, baselineBytes)
	}

	// Mid-stream write failure: spilled products die on the remote shard.
	fault.arm("write")
	if _, err := mulExec(MatOperand(ex, d), la.Ones(d.Cols(), 3)); err == nil {
		t.Fatal("spilled Mul succeeded despite remote write outage")
	}
	fault.arm("")
	if got := s.LiveChunks(); got != baselineChunks {
		t.Fatalf("after write failures: %d live chunks, want baseline %d", got, baselineChunks)
	}
	if got := s.BytesOnDisk(); got != baselineBytes {
		t.Fatalf("after write failures: %d bytes, want baseline %d", got, baselineBytes)
	}

	// Healthy again: the same matrices stream to completion, then the
	// store unwinds to zero.
	if _, err := d.CrossProdExec(ex); err != nil {
		t.Fatalf("pass after recovery: %v", err)
	}
	if err := nt.Free(); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Free(); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveChunks(); got != 0 {
		t.Fatalf("%d live chunks after freeing everything", got)
	}
	if got := s.BytesOnDisk(); got != 0 {
		t.Fatalf("%d bytes accounted after freeing everything", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
