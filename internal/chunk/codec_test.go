package chunk

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/la"
)

// TestCodecRoundTrip: every registered codec inverts its own encoding
// bit-exactly over the shapes chunks actually take — empty, tail-only
// (shorter than one 8-byte word), word-aligned, ragged, all-zero, and
// incompressible random bytes.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 1003) // not a multiple of 8: shuffle tail in play
	rng.Read(random)
	repetitive := bytes.Repeat([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 1}, 512)
	cases := map[string][]byte{
		"empty":      {},
		"one":        {42},
		"tail-only":  {1, 2, 3, 4, 5, 6, 7},
		"word":       {8, 7, 6, 5, 4, 3, 2, 1},
		"zeros":      make([]byte, 4096),
		"random":     random,
		"repetitive": repetitive,
	}
	for _, name := range Codecs() {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("codec %q reports Name %q", name, c.Name())
		}
		for label, raw := range cases {
			blob := c.Encode(raw)
			got, err := c.Decode(blob)
			if err != nil {
				t.Fatalf("%s/%s: Decode: %v", name, label, err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("%s/%s: round trip lost bytes: got %d, want %d", name, label, len(got), len(raw))
			}
			// Overhead on incompressible input is bounded by the frame header.
			if len(blob) > len(raw)+codecHeaderLen {
				t.Fatalf("%s/%s: blob %d B exceeds raw %d B + header", name, label, len(blob), len(raw))
			}
		}
	}
}

// TestCodecCompressesDenseChunks: the byte-shuffled DEFLATE layout actually
// shrinks a realistic dense chunk encoding (smooth float64 values), which
// is the whole point of the wrapper.
func TestCodecCompressesDenseChunks(t *testing.T) {
	d := la.NewDense(256, 32)
	for i := range d.Data() {
		d.Data()[i] = float64(i%64) / 8
	}
	raw := encodeDenseChunk(d)
	blob := shuffleFlateCodec{}.Encode(raw)
	if len(blob) >= len(raw)/2 {
		t.Fatalf("dense chunk compressed to %d of %d bytes, want < half", len(blob), len(raw))
	}
}

// TestByteShuffleRoundTrip: the shuffle is its own inverse composition for
// every length, including the 0–7 byte tails.
func TestByteShuffleRoundTrip(t *testing.T) {
	for n := 0; n < 64; n++ {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(i * 7)
		}
		if got := byteUnshuffle(byteShuffle(raw)); !bytes.Equal(got, raw) {
			t.Fatalf("len %d: shuffle round trip = %v, want %v", n, got, raw)
		}
	}
}

// TestCodecRejectsCorruptInput: truncated, tampered, or misdeclared frames
// are errors — never silently short or wrong data.
func TestCodecRejectsCorruptInput(t *testing.T) {
	c := shuffleFlateCodec{}
	raw := bytes.Repeat([]byte("hello codec "), 40)
	blob := c.Encode(raw)

	for _, n := range []int{0, 3, codecHeaderLen - 1, codecHeaderLen, len(blob) / 2} {
		if n >= len(blob) {
			continue
		}
		if _, err := c.Decode(blob[:n]); err == nil {
			t.Fatalf("decoding a frame truncated to %d bytes succeeded", n)
		}
	}

	badMagic := append([]byte(nil), blob...)
	badMagic[0] ^= 0xff
	if _, err := c.Decode(badMagic); err == nil {
		t.Fatal("decoding a frame with corrupt magic succeeded")
	}

	badMethod := append([]byte(nil), blob...)
	badMethod[len(codecMagic)] = 0x7f
	if _, err := c.Decode(badMethod); err == nil {
		t.Fatal("decoding a frame with an unknown method succeeded")
	}

	// A stored frame whose payload disagrees with the declared length.
	shortStored := appendCodecHeader(nil, codecMethodStored, 10)
	shortStored = append(shortStored, 1, 2, 3)
	if _, err := c.Decode(shortStored); err == nil {
		t.Fatal("decoding a stored frame with a short payload succeeded")
	}

	// A frame that under-declares its decoded length: the payload runs past
	// rawLen, which must be rejected, not truncated.
	under := append([]byte(nil), blob...)
	under[codecHeaderLen-8] -= 8 // low byte of the little-endian rawLen
	if _, err := c.Decode(under); err == nil {
		t.Fatal("decoding a frame that under-declares its length succeeded")
	}

	if _, err := CodecByName("no-such-codec"); err == nil {
		t.Fatal("CodecByName resolved an unregistered name")
	}
}

// FuzzCodecRoundTrip: arbitrary bytes encode→decode bit-identically, and a
// truncated blob never silently decodes to the wrong bytes.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18}, 32))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := shuffleFlateCodec{}
		blob := c.Encode(raw)
		got, err := c.Decode(blob)
		if err != nil {
			t.Fatalf("Decode(Encode(raw)): %v", err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip lost bytes: got %d, want %d", len(got), len(raw))
		}
		if len(blob) > 0 {
			if dec, err := c.Decode(blob[:len(blob)-1]); err == nil && !bytes.Equal(dec, raw) {
				t.Fatal("truncated blob decoded to wrong bytes without an error")
			}
		}
	})
}

// TestCompressingBackendTransparent: blobs land framed (and smaller, for
// compressible input) while ReadChunk returns the original bytes; the
// sized-write accounting reports the stored size.
func TestCompressingBackendTransparent(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompressingBackend(inner, "no-such-codec"); err == nil {
		t.Fatal("NewCompressingBackend accepted an unregistered codec")
	}
	cb, err := NewCompressingBackend(inner, CodecShuffleFlate)
	if err != nil {
		t.Fatal(err)
	}

	const key = "chunk-000001.bin"
	raw := bytes.Repeat([]byte{0x3f, 0xf0, 1, 2, 0, 0, 0, 0}, 256)
	stored, err := writeSized(cb, key, raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb.ReadChunk(key)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("ReadChunk through the codec = %d bytes, %v, want the raw encoding back", len(got), err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(onDisk, []byte(codecMagic)) {
		t.Fatalf("stored blob is not framed: %q...", onDisk[:8])
	}
	if int64(len(onDisk)) != stored {
		t.Fatalf("WriteChunkSized reported %d bytes, %d landed", stored, len(onDisk))
	}
	if len(onDisk) >= len(raw) {
		t.Fatalf("compressible blob stored at %d of %d bytes", len(onDisk), len(raw))
	}

	// A corrupt stored blob is a read error, not wrong data.
	if err := inner.WriteChunk(key, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.ReadChunk(key); err == nil {
		t.Fatal("reading a corrupt stored blob succeeded")
	}
}

// TestCompressedStoreAccounting: a store over the compressing wrapper holds
// the same matrix in fewer bytes, BytesOnDisk/Matrix.BytesOnDisk track the
// compressed (actually stored) sizes, and the decoded matrix is
// bit-identical to a plain store's.
func TestCompressedStoreAccounting(t *testing.T) {
	inner, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCompressingBackend(inner, CodecShuffleFlate)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewShardedStoreBackends([]Backend{cb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	plain := testStore(t)

	d := la.NewDense(96, 16)
	for i := range d.Data() {
		d.Data()[i] = float64(i % 32)
	}
	mp, err := FromDense(plain, d, 10)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := FromDense(cs, d, 10)
	if err != nil {
		t.Fatal(err)
	}

	if raw := int64(96 * 16 * 8); mp.BytesOnDisk() != raw {
		t.Fatalf("plain BytesOnDisk = %d, want %d", mp.BytesOnDisk(), raw)
	}
	if mc.BytesOnDisk() >= mp.BytesOnDisk() {
		t.Fatalf("compressed BytesOnDisk = %d, want < plain %d", mc.BytesOnDisk(), mp.BytesOnDisk())
	}
	if cs.BytesOnDisk() != mc.BytesOnDisk() {
		t.Fatalf("store BytesOnDisk = %d, matrix says %d", cs.BytesOnDisk(), mc.BytesOnDisk())
	}

	dp, err := mp.Dense()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := mc.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(dp, dc) != 0 {
		t.Fatal("compressed store decoded a different matrix")
	}
	if err := mc.Free(); err != nil {
		t.Fatal(err)
	}
	if got := cs.BytesOnDisk(); got != 0 {
		t.Fatalf("%d bytes accounted after freeing the compressed matrix", got)
	}
}

// TestWrappedDifferentialDrivers pins every driver — dense GLM, sparse GLM,
// star-schema factorized GLM, streamed k-means, streamed GNMF — to
// bitwise-identical results between a plain local-only store and a store
// whose shards (one local, one exec-capable remote) sit behind compressing
// wrappers: compression and pushdown change bytes moved, never results.
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
	var remote Backend
	remote, _ = startChunkServer(t)
	if remote, err = NewCompressingBackend(remote, CodecShuffleFlate); err != nil {
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
// test with the compressing wrapper in the chain: injected mid-stream
// failures error the pass, and LiveChunks/BytesOnDisk return to baseline —
// the wrapper adds no leak paths.
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
	localDir := filepath.Join(dir, "local")
	var local Backend
	local, err = NewDirBackend(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if local, err = NewCompressingBackend(local, CodecShuffleFlate); err != nil {
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

// TestExecUnknownCodecIs400: a worker that does not know a requested codec
// answers with a per-request hard error — not the "no /exec at all" signal
// that would poison the client's capability cache — so a plain request to
// the same shard still executes afterwards.
func TestExecUnknownCodecIs400(t *testing.T) {
	dir := t.TempDir()
	h, err := NewChunkServer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := la.NewDense(4, 3)
	for i := range d.Data() {
		d.Data()[i] = float64(i + 1)
	}
	const key = "chunk-000001.bin"
	if err := rb.WriteChunk(key, encodeDenseChunk(d)); err != nil {
		t.Fatal(err)
	}
	chunks := []ExecChunk{{Key: key, Rows: 4}}

	if _, err := rb.execOpCodec(context.Background(), OpCrossProd(), chunkKindDense, 3, chunks, "no-such-codec"); err == nil {
		t.Fatal("exec with an unknown codec succeeded")
	}
	// The failure was per-request: plain exec still works on this shard.
	ps, err := rb.ExecOp(context.Background(), OpCrossProd(), chunkKindDense, 3, chunks)
	if err != nil {
		t.Fatalf("plain exec after a codec rejection: %v", err)
	}
	defer ps.Close()
	if _, err := ps.Next(); err != nil {
		t.Fatalf("plain exec partial after a codec rejection: %v", err)
	}
}

// TestExecDecodesCodecShardSide: a compressed remote shard executes
// pushed-down ops on its stored (framed) blobs by decoding them shard-side,
// and the partial matches the op run locally on the raw chunk.
func TestExecDecodesCodecShardSide(t *testing.T) {
	rb, _ := startChunkServer(t)
	cb, err := NewCompressingBackend(rb, CodecShuffleFlate)
	if err != nil {
		t.Fatal(err)
	}
	eb, ok := cb.(ExecBackend)
	if !ok {
		t.Fatal("compressing wrapper over a remote backend lost the exec capability")
	}

	d := la.NewDense(8, 5)
	for i := range d.Data() {
		d.Data()[i] = float64(i%11) / 4
	}
	const key = "chunk-000001.bin"
	if err := cb.WriteChunk(key, encodeDenseChunk(d)); err != nil {
		t.Fatal(err)
	}

	ps, err := eb.ExecOp(context.Background(), OpCrossProd(), chunkKindDense, 5, []ExecChunk{{Key: key, Rows: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	raw, err := ps.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := crossProdShape(5).decodePartial(raw)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(got.top, d.CrossProd()) != 0 {
		t.Fatal("shard-side decoded partial differs from the local apply")
	}
}
