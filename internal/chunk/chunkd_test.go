package chunk

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/la"
)

// execFixture is a chunkd over one shard holding, for every width 1..8, a
// 4-row dense chunk (key 2w-1) and a 4-row CSR chunk (key 2w).
type execFixture struct {
	url    string
	chunks map[string]la.Mat
}

const execRows, execMaxCols = 4, 8

func newExecFixture(tb testing.TB) *execFixture {
	tb.Helper()
	dir := tb.TempDir()
	h, err := NewChunkServer(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(h)
	tb.Cleanup(srv.Close)
	b, err := NewDirBackend(dir)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &execFixture{url: srv.URL, chunks: map[string]la.Mat{}}
	rng := rand.New(rand.NewSource(64))
	for w := 1; w <= execMaxCols; w++ {
		d := randDense(rng, execRows, w)
		c := randCSR(rng, execRows, w, 0.5)
		for key, blob := range map[string][]byte{fx.key(w, false): encodeDenseChunk(d), fx.key(w, true): encodeSparseChunk(c)} {
			if err := b.WriteChunk(key, blob); err != nil {
				tb.Fatal(err)
			}
		}
		fx.chunks[fx.key(w, false)], fx.chunks[fx.key(w, true)] = d, c
	}
	return fx
}

func (fx *execFixture) key(cols int, csr bool) string {
	if csr {
		return keyFor(2*cols - 1)
	}
	return keyFor(2*cols - 2)
}

// exec posts one /exec request over the fixture's chunk of that width and
// reads the whole response: the status, and for a 200 the stream's
// partials up to its end or error frame.
func (fx *execFixture) exec(tb testing.TB, op Op, cols int, csr bool) (status int, partials [][]byte, streamErr error) {
	tb.Helper()
	kind := chunkKindDense
	if csr {
		kind = chunkKindCSR
	}
	body, err := json.Marshal(execRequest{Op: op.Name, Params: op.Params, Kind: kind, Cols: cols,
		Chunks: []ExecChunk{{Key: fx.key(cols, csr), Rows: execRows}}})
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(fx.url+"/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatalf("chunkd unreachable: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drained, so the connection is reused
		resp.Body.Close()
		return resp.StatusCode, nil, nil
	}
	ps := newPartialStream(resp.Body)
	defer ps.Close()
	for {
		raw, err := ps.Next()
		if err == io.EOF {
			return http.StatusOK, partials, nil
		}
		if err != nil {
			return http.StatusOK, partials, err
		}
		partials = append(partials, raw)
	}
}

func centroidOp(rows, k int, fill float64) Op {
	c := la.NewDense(rows, k)
	for i := range c.Data() {
		c.Data()[i] = fill
	}
	return Op{Name: "kmeans-assign-v2", Params: appendDenseBlob(nil, c)}
}

// TestServeExecRejectsBadCentroids: k-means centroids that do not fit the
// chunks — a 5×2 blob against 3 columns (a MatMul panic on a pipeline
// worker, which used to kill morpheus-chunkd), or k = 0 — are refused with
// 400 before any chunk is read, the retired op name is a 501, a panic in
// any op's apply is an in-band error frame, and the same server answers a
// valid request afterwards.
func TestServeExecRejectsBadCentroids(t *testing.T) {
	fx := newExecFixture(t)
	for name, op := range map[string]Op{"5x2 centroids for 3 columns": centroidOp(5, 2, 1), "k = 0": centroidOp(3, 0, 1)} {
		if status, _, _ := fx.exec(t, op, 3, false); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, status)
		}
	}
	// The retired name is unknown, so a driver that still sends it falls
	// back to reading: 501, never partials summed the other way.
	if status, _, _ := fx.exec(t, Op{Name: "kmeans-assign", Params: centroidOp(3, 2, 1).Params}, 3, false); status != http.StatusNotImplemented {
		t.Fatalf("retired kmeans-assign: status %d, want 501", status)
	}
	opRegistry["test-panic"] = func([]byte, int) (*preparedOp, error) { return panicOp, nil }
	defer delete(opRegistry, "test-panic")
	if status, _, err := fx.exec(t, Op{Name: "test-panic"}, 3, false); status != http.StatusOK || err == nil {
		t.Fatalf("a panicking op: status %d, stream error %v; want 200 and an error frame", status, err)
	}
	status, partials, err := fx.exec(t, centroidOp(3, 2, 0.5), 3, false)
	if status != http.StatusOK || err != nil || len(partials) != 1 {
		t.Fatalf("valid request afterwards: status %d, %d partials, stream error %v", status, len(partials), err)
	}
}

// panicOp is an op whose apply panics, as a bug in a registered op would.
var panicOp = &preparedOp{apply: func(la.Mat) (scanPart, error) { panic("apply bug") }}

// FuzzExecOp: any op name, params blob and chunk width — prepared and
// applied in-process, then sent to a chunkd — gives an error or a value,
// never a panic; the server answers 400/501 exactly when preparing fails,
// and otherwise a stream that ends in an end or error frame.
func FuzzExecOp(f *testing.F) {
	blob := func(rows, k int, fill float64) []byte { return centroidOp(rows, k, fill).Params }
	valid := blob(3, 2, 0.5)
	huge := append(append([]byte(nil), valid[:8]...), 0, 0, 0, 0, 0, 0, 0, 1) // 3×2^56
	for _, seed := range []struct {
		name   string
		params []byte
		cols   uint8
		csr    bool
	}{
		{"kmeans-assign-v2", blob(5, 2, 1), 2, false}, // 5×2 centroids, 3 columns: killed chunkd
		{"kmeans-assign-v2", blob(3, 0, 1), 2, false}, // k = 0: killed chunkd
		{"kmeans-assign-v2", valid, 2, false},
		{"kmeans-assign-v2", valid, 2, true},
		{"kmeans-assign-v2", blob(3, 2, math.NaN()), 2, false},
		{"kmeans-assign-v2", blob(8, 17, math.Inf(1)), 7, true},
		{"kmeans-assign-v2", valid[:10], 2, false},
		{"kmeans-assign-v2", valid[:len(valid)-1], 2, false},
		{"kmeans-assign-v2", append(valid, 0), 2, false},
		{"kmeans-assign-v2", huge, 2, false},
		{"kmeans-assign", valid, 2, false}, // the retired name
		{"crossprod", nil, 4, false},
		{"crossprod", nil, 0, true},
		{"sum", nil, 7, false}, // a retired name
		{"crossprod", []byte{1}, 7, false},
		{"no-such-op", nil, 1, false},
		{"", nil, 0, false},
	} {
		f.Add(seed.name, seed.params, seed.cols, seed.csr)
	}
	fx := newExecFixture(f)
	f.Fuzz(func(t *testing.T, name string, params []byte, cols uint8, csr bool) {
		w := int(cols%execMaxCols) + 1
		op := Op{Name: name, Params: params}
		st, prepErr := prepareOp(op, w)
		if prepErr == nil {
			if p, err := st.apply(fx.chunks[fx.key(w, csr)]); err == nil {
				if _, err := st.decodePartial(st.encodePartial(p)); err != nil {
					t.Fatalf("%s: decoding its own partial: %v", name, err)
				}
			}
		}
		status, _, _ := fx.exec(t, op, w, csr)
		if ok := status == http.StatusOK; ok != (prepErr == nil) || (!ok && status != http.StatusBadRequest && status != http.StatusNotImplemented) {
			t.Fatalf("%s over %d columns: status %d, in-process prepare error %v", name, w, status, prepErr)
		}
	})
}
