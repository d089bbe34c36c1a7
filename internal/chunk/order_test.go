package chunk

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/la"
)

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

// TestPassReadsInChunkOrder drives a pass over RoundRobin stores of 1, 2
// and 3 shards, with the matrix's first chunk on each shard in turn, at
// Workers 1, 2 and 3: the reader fetches chunks in ascending order, any N
// consecutive reads of an N-shard store hit N different shards, and the
// result is bitwise the Serial pass's.
func TestPassReadsInChunkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, d, chunkRows = 64, 3, 4 // 16 chunks
	data := randDense(rng, n, d)
	for shards := 1; shards <= 3; shards++ {
		for first := 0; first < shards; first++ {
			var mu sync.Mutex
			var reads []string
			backends := make([]Backend, shards)
			for i, dir := range shardDirs(t, shards) {
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
			// A leading matrix of `first` chunks moves m's chunk 0 to shard first.
			if first > 0 {
				if _, err := FromDense(st, randDense(rng, first*chunkRows, d), chunkRows); err != nil {
					t.Fatal(err)
				}
			}
			m, err := FromDense(st, data, chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			if si := st.shardIndex(m.paths[0]); si != first {
				t.Fatalf("%d shards: chunk 0 on shard %d, want %d", shards, si, first)
			}
			serial, err := m.CrossProdExec(Serial)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 3; workers++ {
				name := fmt.Sprintf("%d shards, first on %d, Workers %d", shards, first, workers)
				mu.Lock()
				reads = reads[:0]
				mu.Unlock()
				got, err := m.CrossProdExec(Exec{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, name, got, serial)
				mu.Lock()
				seen := append([]string(nil), reads...)
				mu.Unlock()
				if len(seen) != len(m.paths) {
					t.Fatalf("%s: %d reads for %d chunks", name, len(seen), len(m.paths))
				}
				for i, key := range seen {
					if key != m.paths[i] {
						t.Fatalf("%s: read %d is %s, want chunk %d (%s); reads %v", name, i, key, i, m.paths[i], seen)
					}
				}
				for lo := 0; lo+shards <= len(seen); lo++ {
					hit := make(map[int]bool, shards)
					for _, key := range seen[lo : lo+shards] {
						hit[st.shardIndex(key)] = true
					}
					if len(hit) != shards {
						t.Fatalf("%s: reads %d..%d hit %d shards, want %d", name, lo, lo+shards-1, len(hit), shards)
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRoundRobinPlacesChunksConsecutively pins the placement the chunk-order
// read relies on for its spread: every way of making a chunked matrix —
// Build, FromCSR, BuildIntVector, FromNormalized (PK-FK and M:N) and a scan
// step with OutCols — takes its keys from one allocation, so chunk i sits
// on shard (shard of chunk 0 + i) mod N even with all of them running at
// once, where a matrix whose keys came from several allocations would
// interleave with the others'.
func TestRoundRobinPlacesChunksConsecutively(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	sel := func(rows, domain int) *la.Indicator {
		ks := make([]int, rows)
		for i := range ks {
			ks[i] = rng.Intn(domain)
		}
		return la.NewIndicator(ks, domain)
	}
	for _, shards := range []int{2, 3} {
		st, err := newShardedStore(shardDirs(t, shards), RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		base, err := FromDense(st, randDense(rng, 40, 3), 4) // the scan step's input
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var paths [][]string // each matrix's chunk keys, in chunk order
		add := func(ps ...[]string) {
			mu.Lock()
			paths = append(paths, ps...)
			mu.Unlock()
		}
		var makers []func() error
		for round, rows := range []int{23, 9, 40} {
			csr := randCSR(rng, rows+round, 5, 0.3)
			keys := make([]int32, rows+2*round)
			for i := range keys {
				keys[i] = int32(rng.Intn(50))
			}
			nS := rows + 7
			s, ks, rs := randDense(rng, nS, 2), []*la.Indicator{sel(nS, 6), sel(nS, 4)}, []la.Mat{randDense(rng, 6, 3), randDense(rng, 4, 2)}
			mnS, mnIS, mnKs, mnRs := randDense(rng, 11, 2), sel(nS, 11), []*la.Indicator{sel(nS, 9)}, []la.Mat{randDense(rng, 9, 3)}
			x := randDense(rng, 3, 2)
			fks := func(nt *NormalizedTable) {
				for _, a := range nt.Attrs {
					add(a.FK.m.paths)
					if a.Disk != nil {
						add(a.Disk.paths)
					}
				}
			}
			makers = append(makers,
				func() error {
					m, err := Build(st, rows, 3, 4, func(lo, hi int, dst *la.Dense) {
						for i := range dst.Data() {
							dst.Data()[i] = float64(lo + i)
						}
					})
					if err == nil {
						add(m.paths)
					}
					return err
				},
				func() error {
					m, err := FromCSR(st, csr, 3)
					if err == nil {
						add(m.paths)
					}
					return err
				},
				func() error {
					iv, err := BuildIntVector(st, keys, 5)
					if err == nil {
						add(iv.m.paths)
					}
					return err
				},
				func() error {
					nt, err := FromNormalized(st, s, nil, ks, rs, 4)
					if err == nil {
						add(nt.S.(*Matrix).paths)
						fks(nt)
					}
					return err
				},
				func() error {
					nt, err := FromNormalized(st, mnS, mnIS, mnKs, mnRs, 3)
					if err == nil {
						fks(nt)
					}
					return err
				},
				func() error {
					m, err := mulExec(MatOperand(Exec{Workers: 2}, base), x)
					if err == nil {
						add(m.paths)
					}
					return err
				})
		}
		var wg sync.WaitGroup
		for _, mk := range makers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := mk(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for mi, ps := range paths {
			first := st.refs[ps[0]].shard
			for i, p := range ps {
				if got, want := st.refs[p].shard, (first+i)%shards; got != want {
					t.Fatalf("%d shards, matrix %d: chunk %d on shard %d, want %d", shards, mi, i, got, want)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
