package chunk

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
)

// ShardStat is one shard's accounted footprint and read-side I/O: what was
// placed there and what the passes actually fetched.
type ShardStat struct {
	Dir    string // shard identity: directory path, or base URL for a remote shard
	Chunks int    // tracked chunk files placed on this shard
	Bytes  int64  // bytes of written chunk files currently tracked

	ChunksRead int   // chunk blobs fetched from this shard
	BytesRead  int64 // stored bytes of those fetches (compressed size under a codec)

	ChunksExecuted int // chunks whose op partial came back from this shard's /exec and was accepted
}

// ShardStats reports each shard's tracked chunk count and bytes plus its
// read-side I/O accounting.
func (s *Store) ShardStats() []ShardStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardStat, len(s.shards))
	for _, info := range s.refs {
		out[info.shard].Chunks++
	}
	for i := range s.shards {
		sh := &s.shards[i]
		out[i] = ShardStat{
			Dir: sh.backend.Name(), Chunks: out[i].Chunks, Bytes: sh.bytes,
			ChunksRead: sh.chunksRead, BytesRead: sh.bytesRead,
			ChunksExecuted: sh.chunksExecuted,
		}
	}
	return out
}

// shardDirs makes n fresh shard directories under one test temp root.
func shardDirs(t testing.TB, n int) []string {
	t.Helper()
	root := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard%d", i))
	}
	return dirs
}

func testShardedStore(t testing.TB, n int, policy Placement) (*Store, []string) {
	t.Helper()
	dirs := shardDirs(t, n)
	s, err := newShardedStore(dirs, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s, dirs
}

func filesIn(t testing.TB, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			n++
		}
	}
	return n
}

// TestShardedRoundRobinSpreadsChunks: round-robin placement lands chunk
// files on every shard, and the per-shard stats agree with the directory
// contents and the matrix's logical footprint.
func TestShardedRoundRobinSpreadsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, dirs := testShardedStore(t, 3, RoundRobin)
	m, err := FromDense(s, randDense(rng, 90, 4), 10) // 9 chunks over 3 shards
	if err != nil {
		t.Fatal(err)
	}
	stats := s.ShardStats()
	if len(stats) != 3 || s.NumShards() != 3 {
		t.Fatalf("NumShards/ShardStats = %d/%d, want 3", s.NumShards(), len(stats))
	}
	for i, st := range stats {
		if st.Chunks != 3 {
			t.Fatalf("shard %d holds %d chunks, want 3 (stats %+v)", i, st.Chunks, stats)
		}
		if got := filesIn(t, dirs[i]); got != 3 {
			t.Fatalf("shard dir %d holds %d files, want 3", i, got)
		}
		if st.Bytes != 30*4*8 {
			t.Fatalf("shard %d accounts %d bytes, want %d", i, st.Bytes, 30*4*8)
		}
	}
	if s.BytesOnDisk() != m.BytesOnDisk() {
		t.Fatalf("store accounts %d bytes, matrix reports %d", s.BytesOnDisk(), m.BytesOnDisk())
	}
	// The matrix reads back exactly despite living on three directories.
	got, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 90 || got.Cols() != 4 {
		t.Fatalf("read-back shape %dx%d", got.Rows(), got.Cols())
	}
}

// TestShardedRoundRobinBalances: round-robin placement keeps shard byte
// counts within one widest chunk of each other even when wide and narrow
// matrices share the store, and never starves a shard.
func TestShardedRoundRobinBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, _ := testShardedStore(t, 2, RoundRobin)
	if _, err := FromDense(s, randDense(rng, 64, 32), 8); err != nil { // 8 wide chunks
		t.Fatal(err)
	}
	if _, err := FromDense(s, randDense(rng, 64, 2), 8); err != nil { // 8 narrow chunks
		t.Fatal(err)
	}
	// Imbalance stays within one widest chunk (8 rows × 32 cols × 8 B).
	assertBalanced(t, s, 8*32*8)
}

// TestRoundRobinBalancesTrainShape: the store of an out-of-core training
// job — a wide fact table T, a narrower S, the key column and a k-means
// assignment column, chunk-aligned with odd chunk counts — stays within
// one widest chunk across two shards under round-robin placement.
func TestRoundRobinBalancesTrainShape(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s, _ := testShardedStore(t, 2, RoundRobin)
	// 15 chunks per matrix, each one of T, S, the key column and the
	// assignment column.
	const n, chunkRows = 150, 10
	for _, cols := range []int{50, 10, 1, 1} {
		if _, err := FromDense(s, randDense(rng, n, cols), chunkRows); err != nil {
			t.Fatal(err)
		}
	}
	assertBalanced(t, s, chunkRows*50*8)
}

// assertBalanced fails unless every shard holds chunks and the shards'
// bytes are at most bound apart.
func assertBalanced(t *testing.T, s *Store, bound int64) {
	t.Helper()
	stats := s.ShardStats()
	var maxB, minB int64 = stats[0].Bytes, stats[0].Bytes
	for _, st := range stats {
		if st.Chunks == 0 {
			t.Fatalf("round-robin starved a shard: %+v", stats)
		}
		maxB = max(maxB, st.Bytes)
		minB = min(minB, st.Bytes)
	}
	if maxB-minB > bound {
		t.Fatalf("round-robin imbalance %d B exceeds one widest chunk (%d B): %+v", maxB-minB, bound, stats)
	}
}

// buildPKFKInputs deterministically rebuilds the same dense table, CSR
// table, star, and labels in any store, so sharded and single-directory
// runs see identical bytes.
func buildPKFKInputs(t *testing.T, store *Store, seed int64) (tDense *Matrix, tSparse *SparseMatrix, nt *NormalizedTable, y *la.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nS, dS, chunkRows = 70, 6, 8
	td := randDense(rng, nS, dS+4)
	var err error
	tDense, err = FromDense(store, td, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	tSparse, err = FromCSR(store, oneHotCSR(rng, nS, 3, 4), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	nt, _ = buildStar(t, rng, store, nS, dS, chunkRows)
	y = pmLabels(rng, nS)
	return tDense, tSparse, nt, y
}

// TestShardedDifferentialDrivers pins every existing driver — dense GLM,
// sparse GLM, star-schema factorized GLM, streamed k-means, streamed GNMF
// — to bitwise-identical results over a 3-shard store and a
// single-directory store: sharding changes placement, never results.
func TestShardedDifferentialDrivers(t *testing.T) {
	single := testStore(t)
	sharded, _ := testShardedStore(t, 3, RoundRobin)

	d1, s1, nt1, y := buildPKFKInputs(t, single, 55)
	d2, s2, nt2, _ := buildPKFKInputs(t, sharded, 55)

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
		t.Fatal("dense GLM weights differ between sharded and single-directory store")
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
		t.Fatal("sparse GLM weights differ between sharded and single-directory store")
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
		t.Fatal("star GLM weights differ between sharded and single-directory store")
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
		t.Fatal("k-means results differ between sharded and single-directory store")
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
		t.Fatal("k-means assignment columns differ between sharded and single-directory store")
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
		t.Fatal("GNMF factors differ between sharded and single-directory store")
	}
}

// TestShardedWriteBehindBitIdentical: the per-shard write-behind queues
// produce output chunks byte-identical to the synchronous serial path.
func TestShardedWriteBehindBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	s, _ := testShardedStore(t, 3, RoundRobin)
	m, err := FromDense(s, randDense(rng, 100, 5), 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randDense(rng, 5, 3)
	serial, err := mulExec(MatOperand(Serial, m), x)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mulExec(MatOperand(Parallel(), m), x)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := serial.Dense()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := parallel.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(ds, dp) != 0 {
		t.Fatal("per-shard write-behind output not bit-identical to synchronous")
	}
}

// TestShardedFreeReapsAcrossShards: freeing a matrix removes its files
// from every shard directory and unwinds the per-shard accounting.
func TestShardedFreeReapsAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	s, dirs := testShardedStore(t, 3, RoundRobin)
	m, err := FromDense(s, randDense(rng, 60, 3), 10)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := mulExec(MatOperand(Parallel(), m), randDense(rng, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range dirs {
		total += filesIn(t, d)
	}
	if total != keep.NumChunks() {
		t.Fatalf("after Free: %d files across shards, want the %d survivors", total, keep.NumChunks())
	}
	var bytes int64
	for _, st := range s.ShardStats() {
		bytes += st.Bytes
	}
	if bytes != s.BytesOnDisk() || bytes != keep.BytesOnDisk() {
		t.Fatalf("accounting after Free: shards %d B, store %d B, survivor %d B", bytes, s.BytesOnDisk(), keep.BytesOnDisk())
	}
}

// TestShardedCloseWithLiveMatrices: Close reaps every live matrix's files
// across all shards, later allocations fail with ErrClosed, and streaming
// a reaped matrix surfaces an error rather than silently reading nothing.
func TestShardedCloseWithLiveMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	s, dirs := testShardedStore(t, 3, RoundRobin)
	m, err := FromDense(s, randDense(rng, 50, 4), 6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := FromCSR(s, oneHotCSR(rng, 50, 2, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if got := filesIn(t, d); got != 0 {
			t.Fatalf("shard %d still holds %d files after Close", i, got)
		}
	}
	if s.LiveChunks() != 0 || s.BytesOnDisk() != 0 {
		t.Fatalf("store still tracks %d chunks / %d bytes after Close", s.LiveChunks(), s.BytesOnDisk())
	}
	if _, err := FromDense(s, randDense(rng, 8, 2), 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("FromDense on closed sharded store: %v, want ErrClosed", err)
	}
	if _, err := m.CrossProdExec(Parallel()); err == nil {
		t.Fatal("streaming a matrix whose files were reaped by Close succeeded")
	}
	if _, err := sp.CrossProdExec(Parallel()); err == nil {
		t.Fatal("streaming a sparse matrix whose files were reaped by Close succeeded")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestShardedStartupOrphanCleanup: a crashed run's spill files are reaped
// when a new store opens over the same directories — on every shard.
func TestShardedStartupOrphanCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	dirs := shardDirs(t, 2)
	s1, err := newShardedStore(dirs, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromDense(s1, randDense(rng, 40, 3), 5); err != nil {
		t.Fatal(err)
	}
	orphaned := 0
	for _, d := range dirs {
		orphaned += filesIn(t, d)
	}
	if orphaned == 0 {
		t.Fatal("simulated crash left no spill files")
	}
	// Simulated crash: s1 is dropped without Close or Free. A fresh store
	// over the same directories reaps the debris before first use.
	s2, err := newShardedStore(dirs, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if got := filesIn(t, d); got != 0 {
			t.Fatalf("shard %d still holds %d orphans after reopen", i, got)
		}
	}
	// The fresh store works normally afterwards.
	m, err := FromDense(s2, randDense(rng, 20, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrossProdExec(Parallel()); err != nil {
		t.Fatal(err)
	}
}

// TestZeroWidthChunkAccounting: a 0-column product writes 0-byte chunk
// files; releasing them must unwind the shard accounting exactly once.
func TestZeroWidthChunkAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s, _ := testShardedStore(t, 2, RoundRobin)
	m, err := FromDense(s, randDense(rng, 20, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	z, err := mulExec(MatOperand(Parallel(), m), la.NewDense(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Free(); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	for i, st := range s.ShardStats() {
		if st.Chunks != 0 || st.Bytes != 0 {
			t.Fatalf("shard %d after frees: %+v, want empty", i, st)
		}
	}
	// Placement still balances after the zero-byte episode.
	if _, err := FromDense(s, randDense(rng, 40, 2), 5); err != nil {
		t.Fatal(err)
	}
	for i, st := range s.ShardStats() {
		if st.Chunks != 4 {
			t.Fatalf("post-episode placement skewed: shard %d holds %d chunks, want 4", i, st.Chunks)
		}
	}
}

// TestShardedStoreValidation: bad constructor inputs fail loudly.
func TestShardedStoreValidation(t *testing.T) {
	if _, err := newShardedStore(nil, RoundRobin); err == nil {
		t.Fatal("empty dir list accepted")
	}
	d := t.TempDir()
	if _, err := newShardedStore([]string{d, d}, RoundRobin); err == nil {
		t.Fatal("duplicate shard directory accepted")
	}
	if _, err := newShardedStore([]string{d}, Placement(99)); err == nil {
		t.Fatal("unknown placement policy accepted")
	}
}

// BenchmarkShardedSpill measures spill throughput (Build + chunked Mul,
// the write-heavy passes) as the shard count grows. On hardware where the
// directories land on distinct devices the MB/s column should scale with
// the shard count; on one device it shows the per-shard pipelining is at
// least not slower.
func BenchmarkShardedSpill(b *testing.B) {
	const rows, cols, chunkRows = 4096, 128, 256
	src := randDense(rand.New(rand.NewSource(7)), rows, cols)
	x := randDense(rand.New(rand.NewSource(8)), cols, cols)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := newShardedStore(shardDirs(b, shards), RoundRobin)
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
		})
	}
}
