package chunk

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/la"
)

// execCountingServer wraps a ChunkServer and counts /exec requests, so
// tests can assert pushdown actually engaged (and not silently fall back
// everywhere while the differential still passes).
type execCountingServer struct {
	inner *ChunkServer
	execs atomic.Int64
}

func (s *execCountingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" {
		s.execs.Add(1)
	}
	s.inner.ServeHTTP(w, r)
}

// pushdownStore builds a store mixing one local shard with nWorkers
// exec-capable chunkd workers (RoundRobin, so every shard holds chunks)
// and returns the per-worker exec counters.
func pushdownStore(t testing.TB, nWorkers int) (*Store, []*execCountingServer) {
	t.Helper()
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	backends := []Backend{local}
	counters := make([]*execCountingServer, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		inner, err := NewChunkServer(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cs := &execCountingServer{inner: inner}
		srv := httptest.NewServer(cs)
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rb)
		counters = append(counters, cs)
	}
	s, err := NewShardedStoreBackends(backends, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return s, counters
}

// TestPushdownDifferential pins the acceptance criterion: every pushed-down
// op — CrossProd over dense and CSR chunks, and the k-means
// distance+argmin pass — on a mixed local+remote store is bitwise identical
// to the same data spilled to a local-only store with the same chunk
// height, and the /exec endpoint really was used.
func TestPushdownDifferential(t *testing.T) {
	s, counters := pushdownStore(t, 2)
	defer s.Close()
	local := testStore(t)

	rng := rand.New(rand.NewSource(42))
	dd := randDense(rng, 103, 7) // ragged last chunk
	sd := oneHotCSR(rng, 103, 3, 4)
	spill := func(st *Store) []Mat {
		dM, err := FromDense(st, dd, 8)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := FromCSR(st, sd, 8)
		if err != nil {
			t.Fatal(err)
		}
		return []Mat{dM, sM}
	}
	pushed, ref := spill(s), spill(local)

	for _, ex := range []Exec{
		{Workers: 4},
		{Workers: 1}, // serial driver, remote workers
	} {
		for i, m := range pushed {
			xpL, err := MatOperand(ex, ref[i]).Gram()
			if err != nil {
				t.Fatal(err)
			}
			xpP, err := MatOperand(ex, m).Gram()
			if err != nil {
				t.Fatal(err)
			}
			if la.MaxAbsDiff(xpL, xpP) != 0 {
				t.Fatalf("%T crossprod under %+v diverged from all-local", m, ex)
			}
		}

		kmL, err := kMeans(ex, ref[0], 4, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		kmP, err := kMeans(ex, pushed[0], 4, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(kmL.Centroids, kmP.Centroids) != 0 || kmL.Objective != kmP.Objective {
			t.Fatalf("k-means under %+v diverged from all-local", ex)
		}
		// The store tallies what the driver fetched: the assignment
		// passes' remote chunks were mapped in place, so it reads less.
		if kmP.BytesRead >= kmL.BytesRead {
			t.Fatalf("k-means under %+v fetched %d bytes, all-local %d — pushdown moved no I/O to the shards", ex, kmP.BytesRead, kmL.BytesRead)
		}
		aL, err := kmL.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		aP, err := kmP.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(aL, aP) != 0 {
			t.Fatalf("k-means assignments under %+v diverged from all-local", ex)
		}
		if err := kmL.Assign.Free(); err != nil {
			t.Fatal(err)
		}
		if err := kmP.Assign.Free(); err != nil {
			t.Fatal(err)
		}
	}

	for i, c := range counters {
		if c.execs.Load() == 0 {
			t.Fatalf("worker %d never received an /exec request", i)
		}
	}
	if io := s.IOStats(); io.ChunksExecuted == 0 {
		t.Fatalf("IOStats.ChunksExecuted = 0 after pushed-down passes: %+v", io)
	}
	if io := local.IOStats(); io.ChunksExecuted != 0 {
		t.Fatalf("a local-only store counted %d executed chunks", io.ChunksExecuted)
	}

	for _, m := range pushed {
		if err := m.Free(); err != nil {
			t.Fatal(err)
		}
	}
	if s.LiveChunks() != 0 || s.BytesOnDisk() != 0 {
		t.Fatalf("after Free: %d chunks, %d bytes still accounted", s.LiveChunks(), s.BytesOnDisk())
	}
}

// noExecServer is a pre-/exec chunk server: the disk protocol works, but
// /exec answers 404 like any unknown path did before the endpoint existed.
type noExecServer struct {
	inner *ChunkServer
	execs atomic.Int64
}

func (s *noExecServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" {
		s.execs.Add(1)
		http.NotFound(w, r)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// TestPushdownFallsBackOnOldServer: against a shard without /exec, a pass
// silently degrades to the passive read path — the same results as a
// local-only store, no error — and the client remembers the answer so
// later passes skip the probe.
func TestPushdownFallsBackOnOldServer(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	old := &noExecServer{inner: inner}
	srv := httptest.NewServer(old)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(3))
	d := randDense(rng, 61, 5)
	dM, err := FromDense(s, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	ex := Exec{Workers: 2}
	want, err := localCrossProd(t, d, 8, ex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dM.CrossProdExec(ex)
	if err != nil {
		t.Fatalf("pushdown against a pre-/exec server: %v", err)
	}
	if la.MaxAbsDiff(want, got) != 0 {
		t.Fatal("fallback results diverged from the local pass")
	}
	if n := old.execs.Load(); n != 1 {
		t.Fatalf("probed /exec %d times, want exactly 1", n)
	}
	// The unsupported answer is cached: another pass must not re-probe.
	if _, err := dM.CrossProdExec(ex); err != nil {
		t.Fatal(err)
	}
	if n := old.execs.Load(); n != 1 {
		t.Fatalf("re-probed /exec after a definitive 404 (%d probes)", n)
	}
	if n := s.IOStats().ChunksExecuted; n != 0 {
		t.Fatalf("ChunksExecuted = %d against a shard without /exec", n)
	}
	if _, err := rb.ExecOp(context.Background(), OpCrossProd(), chunkKindDense, 5, []ExecChunk{{Key: "chunk-000001.bin", Rows: 8}}); !errors.Is(err, ErrExecUnsupported) {
		t.Fatalf("ExecOp on a cached no-exec backend = %v, want ErrExecUnsupported", err)
	}
}

// codecRequestServer puts a codec name into every /exec request before the
// real server sees it, as an older driver over a compressed store sends
// them, and records the statuses the server answers.
type codecRequestServer struct {
	inner    *ChunkServer
	codec    string
	mu       sync.Mutex
	statuses []int
}

func (s *codecRequestServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/exec" {
		s.inner.ServeHTTP(w, r)
		return
	}
	var req map[string]any
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req["codec"] = s.codec
	body, err := json.Marshal(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rr := httptest.NewRecorder()
	s.inner.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/exec", bytes.NewReader(body)))
	s.mu.Lock()
	s.statuses = append(s.statuses, rr.Code)
	s.mu.Unlock()
	w.WriteHeader(rr.Code)
	w.Write(rr.Body.Bytes())
}

// TestExecUnknownCodecIs400: an /exec request naming any chunk codec gets
// 400 — a per-request error, not the 501 that means "no /exec here" — so
// a pass reads that shard's chunks passively, bitwise equal to a
// local-only store, and the next pass asks the shard again.
func TestExecUnknownCodecIs400(t *testing.T) {
	h, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"shuffle-flate", "no-such-codec"} {
		rr := httptest.NewRecorder()
		body := `{"op":"crossprod","kind":"dense","cols":3,"codec":"` + codec + `","chunks":[{"key":"chunk-000001.bin","rows":4}]}`
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/exec", strings.NewReader(body)))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), codec) {
			t.Fatalf("exec naming codec %q = %d %q, want 400 naming the codec", codec, rr.Code, rr.Body.String())
		}
	}

	older := &codecRequestServer{inner: h, codec: "shuffle-flate"}
	srv := httptest.NewServer(older)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{local, rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := randDense(rand.New(rand.NewSource(5)), 61, 5)
	dM, err := FromDense(s, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	execs := []Exec{Serial, {Workers: 2}}
	for _, ex := range execs {
		want, err := localCrossProd(t, d, 8, ex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dM.CrossProdExec(ex)
		if err != nil {
			t.Fatalf("Workers %d: pass over a shard refusing /exec: %v", ex.Workers, err)
		}
		bitsEqual(t, fmt.Sprintf("Workers %d: Gram", ex.Workers), got, want)
	}
	older.mu.Lock()
	statuses := older.statuses
	older.mu.Unlock()
	if len(statuses) != len(execs) {
		t.Fatalf("shard saw %d /exec requests over %d passes, want one a pass", len(statuses), len(execs))
	}
	for _, code := range statuses {
		if code != http.StatusBadRequest {
			t.Fatalf("/exec statuses %v, want 400 each", statuses)
		}
	}
	if st := s.IOStats(); st.ChunksExecuted != 0 || st.ChunksRead != len(execs)*dM.NumChunks() {
		t.Fatalf("IOStats %+v, want every chunk of %d passes read and none executed", st, len(execs))
	}
}

// cutExecServer serves /exec but cuts the connection after passing through
// a fixed number of response bytes — a worker dying mid-partial. The disk
// protocol can be failed independently, to pin what happens when the
// fallback path is dead too.
type cutExecServer struct {
	inner    *ChunkServer
	mu       sync.Mutex
	cutAfter int  // bytes of /exec response to pass through before dying
	failGets bool // when set, GET /chunks/{key} answers 500
}

func (s *cutExecServer) arm(cutAfter int, failGets bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutAfter = cutAfter
	s.failGets = failGets
}

type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		if w.remaining > 0 {
			w.ResponseWriter.Write(p[:w.remaining])
		}
		if fl, ok := w.ResponseWriter.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // kill the stream without a clean end frame
	}
	w.remaining -= len(p)
	return w.ResponseWriter.Write(p)
}

func (s *cutExecServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cutAfter, failGets := s.cutAfter, s.failGets
	s.mu.Unlock()
	if failGets && r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/chunks/") {
		http.Error(w, "injected disk outage", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/exec" && cutAfter >= 0 {
		s.inner.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: cutAfter}, r)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// TestPushdownMidStreamCutFallsBack: a worker that dies mid-partial does
// not fail the pass or skew the result — the cut is detected (framed
// stream, no end frame) and the affected chunks rerun through the passive
// read path, bit-identically.
func TestPushdownMidStreamCutFallsBack(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := &cutExecServer{inner: inner, cutAfter: -1}
	srv := httptest.NewServer(cut)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{local, rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(11))
	d := randDense(rng, 103, 7)
	dM, err := FromDense(s, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	exPush := Exec{Workers: 4}
	want, err := localCrossProd(t, d, 8, exPush)
	if err != nil {
		t.Fatal(err)
	}
	baselineChunks, baselineBytes := s.LiveChunks(), s.BytesOnDisk()

	// Cut at every interesting offset: before any frame, mid-header,
	// mid-payload, and after a whole first partial (7×7×8 B + blob header
	// + frame header).
	for _, cutAfter := range []int{0, 5, 100, 9 + 16 + 7*7*8} {
		cut.arm(cutAfter, false)
		got, err := dM.CrossProdExec(exPush)
		if err != nil {
			t.Fatalf("cut after %d bytes: pass failed instead of falling back: %v", cutAfter, err)
		}
		if la.MaxAbsDiff(want, got) != 0 {
			t.Fatalf("cut after %d bytes: fallback result diverged", cutAfter)
		}
		if s.LiveChunks() != baselineChunks || s.BytesOnDisk() != baselineBytes {
			t.Fatalf("cut after %d bytes: accounting moved off baseline (%d chunks, %d bytes)",
				cutAfter, s.LiveChunks(), s.BytesOnDisk())
		}
	}

	// Worker dead AND the passive path dead: the pass must error — a
	// partial is never silently dropped — and accounting stays at
	// baseline; Free then unwinds to zero.
	cut.arm(0, true)
	if _, err := dM.CrossProdExec(exPush); err == nil {
		t.Fatal("pass succeeded with the worker cut and reads failing")
	}
	cut.arm(-1, false)
	if s.LiveChunks() != baselineChunks || s.BytesOnDisk() != baselineBytes {
		t.Fatalf("after failed pass: accounting off baseline (%d chunks, %d bytes)", s.LiveChunks(), s.BytesOnDisk())
	}
	if err := dM.Free(); err != nil {
		t.Fatal(err)
	}
	if s.LiveChunks() != 0 || s.BytesOnDisk() != 0 {
		t.Fatalf("after Free: %d chunks, %d bytes still accounted", s.LiveChunks(), s.BytesOnDisk())
	}
}

// oneByOneServer answers every /exec with a 1×1 partial per chunk — a
// worker of another version, or a broken one — and serves the disk
// protocol normally.
type oneByOneServer struct{ inner *ChunkServer }

func (s oneByOneServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/exec" {
		s.inner.ServeHTTP(w, r)
		return
	}
	var req execRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	partial := appendDenseBlob(nil, la.NewDense(1, 1))
	if req.Op == "kmeans-assign-v2" { // sums and counts, both 1×1
		partial = appendDenseBlob(partial, la.NewDense(1, 1))
	}
	for range req.Chunks {
		writePartialFrame(w, partial)
	}
	writeEndFrame(w)
}

// TestPushdownWrongShapeFallsBack: partials of the wrong shape cannot reach
// the reduction (a shape panic there kills the driver): each is a decode
// error, the shard's chunks are read passively, no chunk counts as
// executed, and every pass is bitwise equal to a local-only store.
func TestPushdownWrongShapeFallsBack(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(oneByOneServer{inner})
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{local, rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := randDense(rand.New(rand.NewSource(13)), 61, 3)
	m, err := FromDense(s, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromDense(testStore(t), d, 8)
	if err != nil {
		t.Fatal(err)
	}
	ex := Exec{Workers: 2}
	for name, pass := range map[string]func(Mat) (*la.Dense, error){
		"crossprod": func(m Mat) (*la.Dense, error) { return MatOperand(ex, m).Gram() },
	} {
		got, err := pass(m)
		if err != nil {
			t.Fatalf("%s over 1x1 partials: %v", name, err)
		}
		want, err := pass(ref)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("%s over 1x1 partials diverged from the local store", name)
		}
	}
	kmG, err := kMeans(ex, m, 3, 2, 5)
	if err != nil {
		t.Fatalf("k-means over 1x1 partials: %v", err)
	}
	kmW, err := kMeans(ex, ref, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(kmG.Centroids, kmW.Centroids) != 0 || kmG.Objective != kmW.Objective {
		t.Fatal("k-means over 1x1 partials diverged from the local store")
	}
	if n := s.IOStats().ChunksExecuted; n != 0 {
		t.Fatalf("%d wrong-shaped partials accepted", n)
	}
}

// TestPushdownNeedsNoDriverRegistry: the driver runs the registered step it
// holds and never resolves its name, so chunked k-means with the step's
// registry entry removed — on a local-only store, and on a store whose
// in-process chunkd shard then answers 501 and is read passively — is
// bitwise the fit with the entry present.
func TestPushdownNeedsNoDriverRegistry(t *testing.T) {
	d := randDense(rand.New(rand.NewSource(46)), 61, 5) // ragged last chunk
	fit := func(s *Store) *kmFit {
		m, err := FromDense(s, d, 8)
		if err != nil {
			t.Fatal(err)
		}
		km, err := kMeans(Exec{Workers: 2}, m, 3, 4, 13)
		if err != nil {
			t.Fatal(err)
		}
		return km
	}
	same := func(what string, got, want *kmFit) {
		t.Helper()
		bitsEqual(t, what+" centroids", got.Centroids, want.Centroids)
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s objective %v, want %v", what, got.Objective, want.Objective)
		}
		ga, err := got.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		wa, err := want.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, what+" assignment", ga, wa)
	}
	want := fit(testStore(t))
	pushed, _ := pushdownStore(t, 1)
	defer pushed.Close()
	same("with the entry, pushed down", fit(pushed), want)
	if pushed.IOStats().ChunksExecuted == 0 {
		t.Fatal("with the entry, no chunk ran on the chunkd shard")
	}

	mk := opRegistry["kmeans-assign-v2"]
	delete(opRegistry, "kmeans-assign-v2")
	defer func() { opRegistry["kmeans-assign-v2"] = mk }()
	same("without the entry, local store", fit(testStore(t)), want)
	passive, counters := pushdownStore(t, 1)
	defer passive.Close()
	same("without the entry, chunkd shard", fit(passive), want)
	if n := counters[0].execs.Load(); n == 0 {
		t.Fatal("without the entry, the chunkd shard was never asked")
	}
	if n := passive.IOStats().ChunksExecuted; n != 0 {
		t.Fatalf("without the entry, %d chunks ran on a shard that cannot resolve the step", n)
	}
}

// TestExecOpRoundTrip drives the client-server /exec pair directly: the
// stream yields one decodable partial per requested chunk, in request
// order, then a clean EOF.
func TestExecOpRoundTrip(t *testing.T) {
	rb, _ := startChunkServer(t)
	rng := rand.New(rand.NewSource(5))
	chunks := make([]ExecChunk, 3)
	want := make([]*la.Dense, 3)
	for i := range chunks {
		d := randDense(rng, 4, 3)
		if err := rb.WriteChunk(keyFor(i), encodeDenseChunk(d)); err != nil {
			t.Fatal(err)
		}
		chunks[i] = ExecChunk{Key: keyFor(i), Rows: 4}
		want[i] = d.CrossProd()
	}
	ps, err := rb.ExecOp(context.Background(), OpCrossProd(), chunkKindDense, 3, chunks)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for i := range chunks {
		raw, err := ps.Next()
		if err != nil {
			t.Fatalf("partial %d: %v", i, err)
		}
		v, err := crossProdShape(3).decodePartial(raw)
		if err != nil {
			t.Fatalf("partial %d: %v", i, err)
		}
		if got := v.top; got.Rows() != 3 || got.Cols() != 3 || la.MaxAbsDiff(got, want[i]) != 0 {
			t.Fatalf("partial %d = %v, want the 3x3 %v", i, got, want[i])
		}
	}
	if _, err := ps.Next(); err != io.EOF {
		t.Fatalf("after end frame: %v, want io.EOF", err)
	}
}

// localCrossProd is the all-local reference: d spilled to a local-only
// store at the same chunk height, crossprod under ex.
func localCrossProd(t *testing.T, d *la.Dense, chunkRows int, ex Exec) (*la.Dense, error) {
	m, err := FromDense(testStore(t), d, chunkRows)
	if err != nil {
		return nil, err
	}
	return m.CrossProdExec(ex)
}

func keyFor(i int) string { return fmt.Sprintf("chunk-%06d.bin", i+1) }

// OpCrossProd is the crossprod op as a /exec request names it: each chunk
// contributes chunkᵀ·chunk.
func OpCrossProd() Op { return Op{Name: "crossprod"} }

// TestServeExecProtocolErrors pins the /exec status codes the client's
// probe logic depends on: unknown op → 501 (treated as "no pushdown
// here"), malformed requests → 400, wrong method → 405.
func TestServeExecProtocolErrors(t *testing.T) {
	h, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/exec", strings.NewReader(body)))
		return rr
	}
	if rr := post(`{"op":"no-such-op","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`); rr.Code != http.StatusNotImplemented {
		t.Fatalf("unknown op = %d, want 501", rr.Code)
	}
	for name, body := range map[string]string{
		"bad JSON":    `{`,
		"bad key":     `{"op":"crossprod","kind":"dense","cols":3,"chunks":[{"key":"../etc/passwd","rows":4}]}`,
		"bad kind":    `{"op":"crossprod","kind":"coo","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"bad cols":    `{"op":"crossprod","kind":"dense","cols":0,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"bad rows":    `{"op":"crossprod","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":0}]}`,
		"no chunks":   `{"op":"crossprod","kind":"dense","cols":3,"chunks":[]}`,
		"bad params":  `{"op":"crossprod","params":"AAAA","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"kmeans junk": `{"op":"kmeans-assign-v2","params":"AAAA","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
	} {
		if rr := post(body); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", name, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/exec", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /exec = %d, want 405", rr.Code)
	}
	// A missing chunk surfaces in-band: 200, then an error frame.
	rr = post(`{"op":"crossprod","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("exec over a missing chunk = %d, want 200 + error frame", rr.Code)
	}
	ps := newPartialStream(io.NopCloser(rr.Body))
	if _, err := ps.Next(); err == nil || err == io.EOF {
		t.Fatalf("missing chunk stream = %v, want an in-band error", err)
	}
}

// TestPutOverrunReturns413 pins the MaxBytesReader path of put: a body
// that overruns the server limit answers 413 like the Content-Length
// check, not a generic 400. (Driving the handler directly, as a real
// server bounds the body read by the declared Content-Length.)
func TestPutOverrunReturns413(t *testing.T) {
	h, err := NewChunkServer(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/chunks/chunk-000001.bin", strings.NewReader(strings.Repeat("x", 200)))
	req.ContentLength = 32 // declared under the limit; the body overruns it
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("overrunning PUT = %d, want 413", rr.Code)
	}
}

// pipeExecBackend is an exec-capable shard in process: ExecOp maps the
// requested chunks of its directory with the registered op and streams the
// real partial frames through an io.Pipe, counting the frames the driver
// has taken off the pipe and the driver's reads in progress on it. After
// stallAfter frames (< 0: never) the stream stalls until the request's
// context ends, as a wedged worker's would.
type pipeExecBackend struct {
	Backend
	stallAfter     int
	taken, reading *atomic.Int64
}

// countedPipe is a stream body that counts the reads in progress on it.
type countedPipe struct {
	*io.PipeReader
	reading *atomic.Int64
}

func (r countedPipe) Read(p []byte) (int, error) {
	r.reading.Add(1)
	defer r.reading.Add(-1)
	return r.PipeReader.Read(p)
}

func (b *pipeExecBackend) ExecOp(ctx context.Context, op Op, kind string, cols int, chunks []ExecChunk) (*PartialStream, error) {
	st, err := prepareOp(op, cols)
	if err != nil || kind != chunkKindDense {
		return nil, fmt.Errorf("%w: %v", ErrExecUnsupported, err)
	}
	pr, pw := io.Pipe()
	go func() {
		for i, c := range chunks {
			if i == b.stallAfter {
				<-ctx.Done()
				pw.CloseWithError(ctx.Err())
				return
			}
			raw, err := b.ReadChunk(c.Key)
			var d *la.Dense
			if err == nil {
				d, err = decodeDenseChunk(c.Key, raw, c.Rows, cols)
			}
			var p scanPart
			if err == nil {
				p, err = st.apply(d)
			}
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if writePartialFrame(pw, st.encodePartial(p)) != nil {
				return
			}
			b.taken.Add(1)
		}
		writeEndFrame(pw)
		pw.Close()
	}()
	return newPartialStream(countedPipe{pr, b.reading}), nil
}

// pipeExecStore builds a store of the given passive backends followed by
// nExec pipeExecBackends (RoundRobin), all counting into b's counters.
func pipeExecStore(t *testing.T, passive []Backend, nExec int, b pipeExecBackend) *Store {
	t.Helper()
	backends := passive
	for i := 0; i < nExec; i++ {
		dir, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eb := b
		eb.Backend = dir
		backends = append(backends, &eb)
	}
	s, err := NewShardedStoreBackends(backends, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPushdownAdmission: a pushed-down pass holds the pipeline's admission
// bound — the partials taken off the shards' streams and not yet committed
// never exceed the pass's window (+1 for the frame a stream's reader may
// hold) — while the committer holds chunk 0 back, and the result is
// bitwise the all-local one with every chunk executed on its shard.
func TestPushdownAdmission(t *testing.T) {
	d := randDense(rand.New(rand.NewSource(43)), 48*4, 3) // 48 chunks, 16 per shard
	want, err := localCrossProd(t, d, 4, Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exec{Serial, {Workers: 2}} {
		var taken, reading atomic.Int64
		s := pipeExecStore(t, nil, 3, pipeExecBackend{stallAfter: -1, taken: &taken, reading: &reading})
		m, err := FromDense(s, d, 4)
		if err != nil {
			t.Fatal(err)
		}
		_, window := ex.depth()
		bound := int64(window + 1)
		got := la.NewDense(3, 3)
		var committed, peak int64
		err = MatOperand(ex, m).crossProd(func(ci int, v any) error {
			// Hold chunk 0 back long enough for a reader without
			// admission control to run far ahead of the commit.
			for end := time.Now().Add(50 * time.Millisecond); ci == 0 && taken.Load() <= bound && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			peak = max(peak, taken.Load()-committed)
			committed++
			got.AddInPlace(v.(scanPart).top)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", ex, err)
		}
		if peak > bound {
			t.Fatalf("%+v: %d partials taken ahead of the commit, want ≤ %d", ex, peak, bound)
		}
		if la.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("%+v: pushed-down crossprod diverged from all-local", ex)
		}
		if n := s.IOStats().ChunksExecuted; n != m.NumChunks() {
			t.Fatalf("%+v: %d of %d chunks executed on their shards", ex, n, m.NumChunks())
		}
	}
}

// TestPushdownFailureLeavesNoGoroutine: a pass that fails on a local chunk
// while the exec shards stall mid-stream returns the error, and nothing it
// started outlives it: the stalled streams are ended, not left blocked on
// their shards. Local chunk 3's read fails after each shard's first
// partial, or the commit of local chunk 0 fails while the pipeline's
// reader is blocked on a stalled stream.
func TestPushdownFailureLeavesNoGoroutine(t *testing.T) {
	d := randDense(rand.New(rand.NewSource(44)), 30*4, 3) // 30 chunks over 3 shards
	errCommit := errors.New("injected commit failure")
	for _, ex := range []Exec{Serial, {Workers: 2}} {
		for _, failRead := range []bool{true, false} {
			dir, err := NewDirBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			local := &failingBackend{Backend: dir}
			local.left.Store(neverFail)
			var taken, reading atomic.Int64
			stallAfter, want := 0, errCommit
			if failRead {
				stallAfter, want = 1, errInjectedRead
			}
			s := pipeExecStore(t, []Backend{local}, 2, pipeExecBackend{stallAfter: stallAfter, taken: &taken, reading: &reading})
			m, err := FromDense(s, d, 4)
			if err != nil {
				t.Fatal(err)
			}
			if failRead {
				local.left.Store(1) // chunk 0 reads, chunk 3 fails
			}
			before := runtime.NumGoroutine()
			err = MatOperand(ex, m).crossProd(func(ci int, v any) error {
				if failRead {
					return nil
				}
				// A pipelined reader goes on to chunk 1, whose stream
				// stalls at once: fail once it is blocked there.
				for end := time.Now().Add(time.Second); ex != Serial && reading.Load() == 0 && time.Now().Before(end); {
					time.Sleep(time.Millisecond)
				}
				return errCommit
			})
			if !errors.Is(err, want) {
				t.Fatalf("%+v, read failure %v: pass returned %v, want %v", ex, failRead, err, want)
			}
			if got := waitGoroutines(before); got > before {
				t.Fatalf("%+v, read failure %v: %d goroutines after the pass, %d before", ex, failRead, got, before)
			}
		}
	}
}
