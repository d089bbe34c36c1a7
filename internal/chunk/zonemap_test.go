package chunk

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/la"
)

// zoneStore builds a store whose single shard records zone maps; when
// codec is non-empty the compressing wrapper sits inside (the documented
// composition order), with sidecars sharing the shard directory.
func zoneStore(t testing.TB, codec string) *Store {
	t.Helper()
	dir := t.TempDir()
	var b Backend
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if codec != "" {
		if b, err = NewCompressingBackend(b, codec); err != nil {
			t.Fatal(err)
		}
	}
	if b, err = NewZoneMapBackend(b, dir); err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{b}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// zeroBandDense builds a rows×cols dense matrix whose odd chunkRows-high
// bands are entirely +0.0 — the shape that rewards chunk skipping.
func zeroBandDense(rows, cols, chunkRows int) *la.Dense {
	d := la.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		if (i/chunkRows)%2 == 1 {
			continue
		}
		for j := 0; j < cols; j++ {
			d.Data()[i*cols+j] = float64(1 + (i+j)%7)
		}
	}
	return d
}

func TestDenseZoneMapStrictness(t *testing.T) {
	z := la.NewDense(3, 4)
	zm := denseZoneMap(z)
	if !zm.AllZero || zm.NNZ != 0 {
		t.Fatalf("zero chunk zone map = %+v, want AllZero", zm)
	}

	d := la.NewDense(2, 3)
	d.Data()[1] = -2.5
	d.Data()[5] = 7
	zm = denseZoneMap(d)
	if zm.AllZero || zm.NNZ != 2 || zm.Min != -2.5 || zm.Max != 7 {
		t.Fatalf("zone map = %+v, want nnz=2 min=-2.5 max=7", zm)
	}

	// Strictness: -0.0 and NaN have non-+0.0 bit patterns, so a chunk
	// holding them is NOT all-zero — skipping it would synthesize different
	// bits than a read would decode.
	neg := la.NewDense(1, 2)
	neg.Data()[0] = math.Copysign(0, -1)
	if zm := denseZoneMap(neg); zm.AllZero {
		t.Fatal("-0.0 chunk marked AllZero")
	}
	nan := la.NewDense(1, 2)
	nan.Data()[1] = math.NaN()
	if zm := denseZoneMap(nan); zm.AllZero {
		t.Fatal("NaN chunk marked AllZero")
	}

	// ColBlocks sees column occupancy.
	wide := la.NewDense(1, 128)
	wide.Data()[0] = 1   // block 0
	wide.Data()[127] = 1 // block 63
	if zm := denseZoneMap(wide); zm.ColBlocks != 1|1<<63 {
		t.Fatalf("ColBlocks = %b, want bits 0 and 63", zm.ColBlocks)
	}
}

func TestCSRZoneMap(t *testing.T) {
	empty := la.NewCSR(4, 8, make([]int, 5), []int32{}, []float64{})
	if zm := csrZoneMap(empty); !zm.AllZero || zm.NNZ != 0 {
		t.Fatalf("empty CSR zone map = %+v, want AllZero", zm)
	}
	c := la.NewCSR(2, 8, []int{0, 1, 2}, []int32{1, 6}, []float64{-1, 4})
	zm := csrZoneMap(c)
	if zm.AllZero || zm.NNZ != 2 || zm.Min != -1 || zm.Max != 4 {
		t.Fatalf("CSR zone map = %+v, want nnz=2 min=-1 max=4", zm)
	}
	// An explicitly stored zero still occupies structure: not all-zero.
	stored := la.NewCSR(1, 4, []int{0, 1}, []int32{2}, []float64{0})
	if zm := csrZoneMap(stored); zm.AllZero || zm.NNZ != 1 {
		t.Fatalf("stored-zero CSR zone map = %+v, want nnz=1, not AllZero", zm)
	}
}

func TestZoneMapSidecarEncoding(t *testing.T) {
	zm := ZoneMap{Min: -3.25, Max: 12.5, NNZ: 42, AllZero: false, ColBlocks: 0xdeadbeef}
	got, err := decodeZoneMap(encodeZoneMap(zm))
	if err != nil || got != zm {
		t.Fatalf("sidecar round trip = %+v, %v, want %+v", got, err, zm)
	}
	if _, err := decodeZoneMap(encodeZoneMap(zm)[:zoneFileLen-1]); err == nil {
		t.Fatal("decoding a truncated sidecar succeeded")
	}
	bad := encodeZoneMap(zm)
	bad[0] ^= 0xff
	if _, err := decodeZoneMap(bad); err == nil {
		t.Fatal("decoding a sidecar with corrupt magic succeeded")
	}
	// A flag bit this version does not know, or a skip proof contradicted by
	// the facts beside it, is no proof.
	bad = encodeZoneMap(ZoneMap{AllZero: true})
	bad[len(zoneMagic)] |= 2
	if _, err := decodeZoneMap(bad); err == nil {
		t.Fatal("decoding a sidecar with an unknown flag succeeded")
	}
	for _, lie := range []ZoneMap{{AllZero: true, NNZ: 1}, {AllZero: true, ColBlocks: 1}, {AllZero: true, Max: 2}} {
		if _, err := decodeZoneMap(encodeZoneMap(lie)); err == nil {
			t.Fatalf("decoding the self-contradicting sidecar %+v succeeded", lie)
		}
	}
}

// TestZoneMapSidecarLifecycle: sidecars appear next to chunks at spill
// time, reload into a fresh wrapper (store adoption), vanish with Remove,
// and Reap clears debris without inflating the chunk count.
func TestZoneMapSidecarLifecycle(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := NewZoneMapBackend(inner, dir)
	if err != nil {
		t.Fatal(err)
	}
	zw := zb.(zoneWriter)
	const key = "chunk-000001.bin"
	want := ZoneMap{Min: 1, Max: 2, NNZ: 3, ColBlocks: 5}
	if _, err := zw.WriteChunkZoned(key, []byte{1, 2, 3}, want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+zoneSuffix)); err != nil {
		t.Fatalf("sidecar missing after zoned write: %v", err)
	}
	if got, ok := zb.(zoneMapper).ZoneMap(key); !ok || got != want {
		t.Fatalf("ZoneMap = %+v, %v, want %+v", got, ok, want)
	}

	// A fresh wrapper over the same directories regains the annotation from
	// the sidecar alone — the adoption path after a restart.
	zb2, err := NewZoneMapBackend(inner, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := zb2.(zoneMapper).ZoneMap(key); !ok || got != want {
		t.Fatalf("reloaded ZoneMap = %+v, %v, want %+v", got, ok, want)
	}

	// A corrupt sidecar means "not skippable", never an error or a wrong map.
	if err := os.WriteFile(filepath.Join(dir, key+zoneSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	zb3, err := NewZoneMapBackend(inner, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := zb3.(zoneMapper).ZoneMap(key); ok {
		t.Fatal("corrupt sidecar produced a zone map")
	}

	// A plain (unzoned) overwrite invalidates the stale annotation.
	if err := zb.WriteChunk(key, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := zb.(zoneMapper).ZoneMap(key); ok {
		t.Fatal("stale zone map survived a plain overwrite")
	}

	if _, err := zw.WriteChunkZoned(key, []byte{1}, want); err != nil {
		t.Fatal(err)
	}
	if err := zb.Remove(key); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+zoneSuffix)); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived Remove: %v", err)
	}

	// Reap counts chunks only, but clears sidecar debris too.
	if _, err := zw.WriteChunkZoned("chunk-000002.bin", []byte{1, 2}, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chunk-000009.bin"+zoneSuffix+tmpSuffix), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := zb.Reap()
	if err != nil || n != 1 {
		t.Fatalf("Reap = %d, %v, want 1 (the chunk, not its metadata)", n, err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"+zoneSuffix+"*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("sidecar debris after Reap: %v, %v", left, err)
	}
}

// TestZoneSkipAccounting: over a zero-banded matrix, a zone-map store
// produces bit-identical reductions while reading only the nonzero chunks,
// and the skips surface through IOStats and ShardStats.
func TestZoneSkipAccounting(t *testing.T) {
	const rows, cols, chunkRows = 64, 16, 8 // 8 chunks, 4 of them zero
	d := zeroBandDense(rows, cols, chunkRows)

	plain := testStore(t)
	zoned := zoneStore(t, CodecShuffleFlate)
	defer zoned.Close()
	mp, err := FromDense(plain, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mz, err := FromDense(zoned, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}

	for _, ex := range []Exec{Serial, Parallel()} {
		cpP, err := mp.CrossProdExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		cpZ, err := mz.CrossProdExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(cpP, cpZ) != 0 {
			t.Fatal("crossprod differs between plain and zone-map store")
		}
		csP, err := mp.ColSumsExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		csZ, err := mz.ColSumsExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(csP, csZ) != 0 {
			t.Fatal("colsums differs between plain and zone-map store")
		}
		sP, err := mp.SumExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		sZ, err := mz.SumExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if sP != sZ {
			t.Fatalf("sum = %v zoned, %v plain", sZ, sP)
		}
	}

	io := zoned.IOStats()
	// 3 ops × 2 execs, 4 zero chunks each: every one skipped, none read.
	if io.ChunksSkipped != 24 {
		t.Fatalf("ChunksSkipped = %d, want 24", io.ChunksSkipped)
	}
	if io.ChunksRead != 24 {
		t.Fatalf("ChunksRead = %d, want 24 (6 passes × 4 nonzero chunks)", io.ChunksRead)
	}
	if io.BytesSkipped <= 0 || io.BytesRead <= 0 {
		t.Fatalf("IOStats bytes not accounted: %+v", io)
	}
	pio := plain.IOStats()
	if pio.ChunksSkipped != 0 || pio.ChunksRead != 48 {
		t.Fatalf("plain IOStats = %+v, want 48 reads and no skips", pio)
	}
	if io.BytesRead >= pio.BytesRead {
		t.Fatalf("zone+codec store read %d bytes, plain read %d — skipping saved nothing", io.BytesRead, pio.BytesRead)
	}
	stats := zoned.ShardStats()
	if len(stats) != 1 || stats[0].ChunksSkipped != io.ChunksSkipped || stats[0].BytesSkipped != io.BytesSkipped {
		t.Fatalf("ShardStats skip accounting %+v disagrees with IOStats %+v", stats, io)
	}

	// The k-means assignment pass has no shape-only partial: its zero
	// chunks are synthesized by the read path (never decoded from disk) and
	// assigned for real, bit-identically.
	kmP, err := kMeans(Parallel(), mp, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	kmZ, err := kMeans(Parallel(), mz, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(kmP.Centroids, kmZ.Centroids) != 0 || kmP.Objective != kmZ.Objective {
		t.Fatal("k-means differs between plain and zone-map store")
	}
}

// TestZoneSkipSparse: CSR chunks with no stored entries are skipped and the
// synthesized empty chunk is bit-identical to the decoded one.
func TestZoneSkipSparse(t *testing.T) {
	const rows, cols, chunkRows = 32, 8, 8 // chunks 1 and 3 empty
	indptr := make([]int, rows+1)
	var idx []int32
	var vals []float64
	for i := 0; i < rows; i++ {
		if (i/chunkRows)%2 == 0 {
			idx = append(idx, int32(i%cols))
			vals = append(vals, float64(i+1))
		}
		indptr[i+1] = len(idx)
	}
	c := la.NewCSR(rows, cols, indptr, idx, vals)

	plain := testStore(t)
	zoned := zoneStore(t, "")
	defer zoned.Close()
	mp, err := FromCSR(plain, c, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mz, err := FromCSR(zoned, c, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	cpP, err := mp.CrossProdExec(Parallel())
	if err != nil {
		t.Fatal(err)
	}
	cpZ, err := mz.CrossProdExec(Parallel())
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(cpP, cpZ) != 0 {
		t.Fatal("sparse crossprod differs between plain and zone-map store")
	}
	if io := zoned.IOStats(); io.ChunksSkipped != 2 {
		t.Fatalf("ChunksSkipped = %d, want 2", io.ChunksSkipped)
	}
	// Skipped chunks commit in chunk order like read ones: the zero-band
	// reductions are bit-identical serial and parallel.
	for name, run := range map[string]func(Exec) (*la.Dense, error){"crossprod": mz.CrossProdExec, "colsums": mz.ColSumsExec} {
		ser, err := run(Serial)
		if err != nil {
			t.Fatal(err)
		}
		par, err := run(parExec)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(ser, par) != 0 {
			t.Fatalf("zero-band %s: parallel not bit-identical to serial", name)
		}
	}
	// Full round trip: the synthesized empty chunks decode into the
	// original matrix bit-exactly.
	got, err := mz.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.Dense(), c.Dense()) != 0 {
		t.Fatal("zone-map CSR round trip differs")
	}
}

// TestNegativeZeroNotSkipped: a chunk whose only entries are -0.0 must be
// read, not skipped — its bit pattern differs from the synthesized +0.0
// chunk even though it compares equal.
func TestNegativeZeroNotSkipped(t *testing.T) {
	const rows, cols, chunkRows = 16, 4, 8
	d := la.NewDense(rows, cols)
	d.Data()[0] = 1 // chunk 0 nonzero
	for j := 0; j < cols; j++ {
		d.Data()[chunkRows*cols+j] = math.Copysign(0, -1) // chunk 1 all -0.0
	}
	zoned := zoneStore(t, "")
	defer zoned.Close()
	m, err := FromDense(zoned, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ColSumsExec(Serial); err != nil {
		t.Fatal(err)
	}
	if io := zoned.IOStats(); io.ChunksSkipped != 0 {
		t.Fatalf("ChunksSkipped = %d, want 0 (-0.0 defeats the all-zero proof)", io.ChunksSkipped)
	}
	// The real invariant: the -0.0 chunk was read, not synthesized, so its
	// bit patterns survive the round trip. A store that (incorrectly)
	// treated -0.0 as zero would hand back +0.0 here.
	got, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got, d) != 0 {
		t.Fatal("round trip differs")
	}
	for j := 0; j < cols; j++ {
		if !math.Signbit(got.Data()[chunkRows*cols+j]) {
			t.Fatal("-0.0 bit pattern lost in round trip")
		}
	}
}

// TestZoneSkipPushdown: zone-proven zero chunks on an exec-capable shard
// stay local, where the read path synthesizes them, and merge with the
// remote partials in ascending chunk order — the result matches the same
// data on a local-only store exactly.
func TestZoneSkipPushdown(t *testing.T) {
	const rows, cols, chunkRows = 64, 16, 8
	// Bands two chunks tall, so round-robin places zero and nonzero
	// chunks on both shards.
	d := zeroBandDense(rows, cols, 2*chunkRows)

	plain := testStore(t)
	mp, err := FromDense(plain, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}

	// Mixed store: one zoned+compressed local shard, one zoned+compressed
	// remote (exec-capable) shard.
	localDir := t.TempDir()
	var local Backend
	local, err = NewDirBackend(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if local, err = NewCompressingBackend(local, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if local, err = NewZoneMapBackend(local, localDir); err != nil {
		t.Fatal(err)
	}
	var remote Backend
	remote, _ = startChunkServer(t)
	if remote, err = NewCompressingBackend(remote, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if remote, err = NewZoneMapBackend(remote, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.(ExecBackend); !ok {
		t.Fatal("zone(compress(remote)) lost the exec capability")
	}
	mixed, err := NewShardedStoreBackends([]Backend{local, remote}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	mm, err := FromDense(mixed, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}

	ex := Exec{Workers: 2, Prefetch: 2}
	cpP, err := mp.CrossProdExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	cpM, err := mm.CrossProdExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(cpP, cpM) != 0 {
		t.Fatal("crossprod differs from the plain store")
	}
	// The remote shard holds chunks 1, 3, 5 and 7: it maps the nonzero two
	// in place, and the zero two never ship — the read path skips them.
	if st := mixed.ShardStats()[1]; st.ChunksExecuted != 2 || st.ChunksSkipped != 2 || st.ChunksRead != 0 {
		t.Fatalf("remote shard after one crossprod: %+v, want 2 executed, 2 skipped, 0 read", st)
	}
	sP, err := mp.SumExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	sM, err := mm.SumExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sP) != math.Float64bits(sM) {
		t.Fatal("sum differs from the plain store")
	}
	kmP, err := kMeans(ex, mp, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	kmM, err := kMeans(ex, mm, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(kmP.Centroids, kmM.Centroids) != 0 || kmP.Objective != kmM.Objective {
		t.Fatal("k-means differs from the plain store")
	}
	if io := mixed.IOStats(); io.ChunksSkipped == 0 {
		t.Fatalf("no chunks skipped across the mixed passes: %+v", io)
	}
	if io := mixed.IOStats(); io.BytesOnWire <= 0 {
		t.Fatalf("BytesOnWire = %d through the remote shard, want > 0", io.BytesOnWire)
	}
}

// TestWrappedDifferentialDrivers pins every driver — dense GLM, sparse GLM,
// star-schema factorized GLM, streamed k-means, streamed GNMF — to
// bitwise-identical results between a plain local-only store and a store
// whose shards (one local, one exec-capable remote) sit behind
// zone-map-over-compressing wrappers: compression, skip annotations and
// pushdown change bytes moved, never results.
func TestWrappedDifferentialDrivers(t *testing.T) {
	plain := testStore(t)

	localDir := t.TempDir()
	var local Backend
	local, err := NewDirBackend(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if local, err = NewCompressingBackend(local, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if local, err = NewZoneMapBackend(local, localDir); err != nil {
		t.Fatal(err)
	}
	var remote Backend
	remote, _ = startChunkServer(t)
	if remote, err = NewCompressingBackend(remote, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if remote, err = NewZoneMapBackend(remote, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	wrapped, err := NewShardedStoreBackends([]Backend{local, remote}, LeastBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()

	d1, s1, nt1, y := buildPKFKInputs(t, plain, 55)
	d2, s2, nt2, _ := buildPKFKInputs(t, wrapped, 55)

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
		t.Fatal("dense GLM weights differ under wrapped backends")
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
		t.Fatal("sparse GLM weights differ under wrapped backends")
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
		t.Fatal("star GLM weights differ under wrapped backends")
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
		t.Fatal("k-means results differ under wrapped backends")
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
		t.Fatal("k-means assignments differ under wrapped backends")
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
		t.Fatal("GNMF factors differ under wrapped backends")
	}

	// The wrapped store stores the same matrices in fewer tracked bytes
	// (the compressed sizes), and the wire meter saw the remote traffic.
	if wb, pb := wrapped.BytesOnDisk(), plain.BytesOnDisk(); wb >= pb {
		t.Fatalf("wrapped store BytesOnDisk = %d, plain = %d — compression saved nothing", wb, pb)
	}
	if io := wrapped.IOStats(); io.BytesOnWire <= 0 {
		t.Fatalf("BytesOnWire = %d, want > 0 through the remote shard", io.BytesOnWire)
	}
}

// TestWrappedMidStreamFailureAccounting mirrors the remote failure-injection
// test with both wrappers in the chain: injected mid-stream failures error
// the pass, and LiveChunks/BytesOnDisk return to baseline — the wrappers
// add no leak paths.
func TestWrappedMidStreamFailureAccounting(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewChunkServer(filepath.Join(dir, "remote"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fault := &faultServer{inner: inner, dir: filepath.Join(dir, "remote")}
	srv := httptest.NewServer(fault)
	defer srv.Close()
	var remote Backend
	remote, err = NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote, err = NewCompressingBackend(remote, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if remote, err = NewZoneMapBackend(remote, filepath.Join(dir, "zm-remote")); err != nil {
		t.Fatal(err)
	}
	localDir := filepath.Join(dir, "local")
	var local Backend
	local, err = NewDirBackend(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if local, err = NewCompressingBackend(local, CodecShuffleFlate); err != nil {
		t.Fatal(err)
	}
	if local, err = NewZoneMapBackend(local, localDir); err != nil {
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

	fault.arm("read")
	if _, err := logRegM(ex, d, y, 2, 1e-3); err == nil {
		t.Fatal("dense GLM succeeded despite mid-stream read failures")
	}
	fault.arm("")
	if got := s.LiveChunks(); got != baselineChunks {
		t.Fatalf("after read failures: %d live chunks, want baseline %d", got, baselineChunks)
	}
	if got := s.BytesOnDisk(); got != baselineBytes {
		t.Fatalf("after read failures: %d bytes, want baseline %d", got, baselineBytes)
	}

	fault.arm("write")
	if _, err := d.MulExec(ex, la.Ones(d.Cols(), 3)); err == nil {
		t.Fatal("spilled Mul succeeded despite remote write outage")
	}
	fault.arm("")
	if got := s.LiveChunks(); got != baselineChunks {
		t.Fatalf("after write failures: %d live chunks, want baseline %d", got, baselineChunks)
	}
	if got := s.BytesOnDisk(); got != baselineBytes {
		t.Fatalf("after write failures: %d bytes, want baseline %d", got, baselineBytes)
	}

	if _, err := d.SumExec(ex); err != nil {
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
	// No sidecar leaks either: local sidecars share the shard dir.
	if left, _ := filepath.Glob(filepath.Join(localDir, "*"+zoneSuffix)); len(left) != 0 {
		t.Fatalf("sidecars leaked after freeing everything: %v", left)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZoneSkipSerialMatchesParallelWithRandomZeros: randomized placement of
// zero chunks; serial, parallel, and skipping paths all commit in ascending
// order, so sums match bitwise across every configuration.
func TestZoneSkipSerialMatchesParallelWithRandomZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const rows, cols, chunkRows = 96, 8, 8
	d := la.NewDense(rows, cols)
	for band := 0; band < rows/chunkRows; band++ {
		if rng.Intn(2) == 0 {
			continue // leave the band all-zero
		}
		for i := band * chunkRows * cols; i < (band+1)*chunkRows*cols; i++ {
			d.Data()[i] = rng.NormFloat64()
		}
	}
	plain := testStore(t)
	zoned := zoneStore(t, "")
	defer zoned.Close()
	mp, err := FromDense(plain, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mz, err := FromDense(zoned, d, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mp.SumExec(Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exec{Serial, {Workers: 2, Prefetch: 1}, Parallel()} {
		got, err := mz.SumExec(ex)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sum = %v under %+v, want %v", got, ex, want)
		}
	}
}
