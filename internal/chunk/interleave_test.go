package chunk

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/la"
)

// TestInterleavedOrderWindows pins the window-limited round-robin: within
// each window reads cycle across the shards present, never across window
// boundaries, and trivial interleaves collapse to nil (chunk order).
func TestInterleavedOrderWindows(t *testing.T) {
	// Block placement [0,0,1,1 | 0,0,1,1] under window 4: each window holds
	// two chunks per shard, so reads alternate 0,2,1,3 then 4,6,5,7.
	got := interleavedOrder([]int{0, 0, 1, 1, 0, 0, 1, 1}, 2, 4)
	want := []int{0, 2, 1, 3, 4, 6, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// One shard, tiny window, or an already-interleaved layout: nil.
	if got := interleavedOrder([]int{0, 0, 0, 0}, 1, 4); got != nil {
		t.Errorf("single shard: order = %v, want nil", got)
	}
	if got := interleavedOrder([]int{0, 1, 0, 1}, 2, 1); got != nil {
		t.Errorf("window 1: order = %v, want nil", got)
	}
	if got := interleavedOrder([]int{0, 1, 0, 1}, 2, 2); got != nil {
		t.Errorf("identity interleave: order = %v, want nil", got)
	}
	// Out-of-range shard ids group with shard 0 instead of panicking.
	if got := interleavedOrder([]int{-1, 5, 1, 1}, 2, 4); len(got) == 0 {
		t.Error("out-of-range shard ids: expected a non-identity order")
	}
}

// recordingBackend wraps a Backend and appends every ReadChunk key to a
// shared, mutex-guarded log — the observability hook for asserting the
// reader's actual visit order.
type recordingBackend struct {
	Backend
	mu    *sync.Mutex
	reads *[]string
}

func (b *recordingBackend) ReadChunk(key string) ([]byte, error) {
	b.mu.Lock()
	*b.reads = append(*b.reads, key)
	b.mu.Unlock()
	return b.Backend.ReadChunk(key)
}

// TestPipelineShardInterleave drives a pipelined pass over a two-shard
// store and asserts the reader visits chunks in the interleaved order —
// round-robin across shards within admission windows — while results stay
// bit-identical to the serial chunk-order pass; a single-shard store keeps
// plain chunk order.
func TestPipelineShardInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	root := t.TempDir()
	var mu sync.Mutex
	var reads []string
	backends := make([]Backend, 2)
	for i, dir := range []string{root + "/a", root + "/b"} {
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = &recordingBackend{Backend: b, mu: &mu, reads: &reads}
	}
	st, err := NewShardedStoreBackends(backends, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n, d, chunkRows = 64, 3, 8 // 8 chunks alternating shards
	data := randDense(rng, n, d)
	m, err := FromDense(st, data, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	// Workers 1 + Prefetch 1: window 3, so window [3,4,5] holds shard-1
	// chunk 3 behind shard-0 chunk 4 and the interleave is not the
	// identity.
	ex := Exec{Workers: 1, Prefetch: 1}
	order := m.store.readOrder(m.paths, ex)
	if order == nil {
		t.Fatal("2-shard store: expected a non-nil read order")
	}
	identity := true
	for i, ci := range order {
		if ci != i {
			identity = false
		}
	}
	if identity {
		t.Fatal("2-shard interleave collapsed to chunk order")
	}

	serial, err := m.CrossProdExec(Serial)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	reads = reads[:0]
	mu.Unlock()
	inter, err := m.CrossProdExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial, inter) != 0 {
		t.Fatal("interleaved pass not bit-identical to serial chunk-order pass")
	}
	mu.Lock()
	got := append([]string(nil), reads...)
	mu.Unlock()
	if len(got) != len(order) {
		t.Fatalf("observed %d reads for %d chunks", len(got), len(order))
	}
	for i, ci := range order {
		if got[i] != m.paths[ci] {
			t.Fatalf("read %d = %s, want chunk %d (%s); full sequence %v", i, got[i], ci, m.paths[ci], got)
		}
	}

	// Single-shard store: same pass, plain chunk order.
	var muS sync.Mutex
	var readsS []string
	bS, err := NewDirBackend(root + "/single")
	if err != nil {
		t.Fatal(err)
	}
	stS, err := NewShardedStoreBackends([]Backend{&recordingBackend{Backend: bS, mu: &muS, reads: &readsS}}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer stS.Close()
	mS, err := FromDense(stS, data, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if ord := mS.store.readOrder(mS.paths, ex); ord != nil {
		t.Fatalf("1-shard store: read order %v, want nil (chunk order)", ord)
	}
	single, err := mS.CrossProdExec(ex)
	if err != nil {
		t.Fatal(err)
	}
	if la.MaxAbsDiff(serial, single) != 0 {
		t.Fatal("single-shard pass deviates")
	}
	muS.Lock()
	defer muS.Unlock()
	for i, key := range readsS {
		if key != mS.paths[i] {
			t.Fatalf("1-shard read %d = %s, want %s", i, key, mS.paths[i])
		}
	}
}
