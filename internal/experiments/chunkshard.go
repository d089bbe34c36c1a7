package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chunk"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
)

// chunkshard measures the sharded chunk store against the single-directory
// baseline on the write-heavy out-of-core passes: spilling a table, a
// chunked T·x (spilled product), a full GLM train, and the streamed GNMF —
// each run once over one directory and once over a sharded store with
// size-aware placement and per-shard write-behind queues. Results are
// pinned identical between the two stores (sharding changes placement,
// never bytes). On a box where the shard directories sit on different
// devices the sharded column should win; on one device it shows the
// per-shard pipelining costs nothing. Part of `morpheus-bench -chunked`;
// point `-shards dir1,dir2,...` at real disks to see placement matter.
func chunkshard(cfg Config) (Result, error) {
	ex := chunkExec(cfg)

	single, cleanSingle, err := singleDirStore(cfg)
	if err != nil {
		return Result{}, err
	}
	defer cleanSingle()
	sharded, shardCount, cleanSharded, err := shardedStore(cfg)
	if err != nil {
		return Result{}, err
	}
	defer cleanSharded()

	res := Result{
		ID:     "chunkshard",
		Title:  "Sharded chunk store vs single directory (spill placement + per-shard write-behind)",
		Header: []string{"workload", "1-dir(s)", fmt.Sprintf("%d-shard(s)", shardCount), "ratio"},
		Notes: fmt.Sprintf("workers=%d prefetch=%d shards=%d placement=least-bytes; results pinned identical across stores",
			ex.Workers, ex.Prefetch, shardCount),
	}

	nR := cfg.scaled(800)
	nS := 20 * nR
	dS := 50
	dR := 2 * dS
	const iters = 2
	chunkRows := autoChunkRows(cfg, dS+dR)
	// Keep at least 8 chunks in play: with one chunk per matrix there is
	// nothing for the placement policy to spread.
	if cap := nS / 8; cap >= 1 && chunkRows > cap {
		chunkRows = cap
	}
	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: dS, NR: nR, DR: dR, Seed: cfg.Seed})
	if err != nil {
		return Result{}, err
	}
	td := nm.Dense()
	y := datagen.Labels(nm, 0, true, cfg.Seed)

	tSingle, err := chunk.FromDense(single, td, chunkRows)
	if err != nil {
		return Result{}, err
	}
	tSharded, err := chunk.FromDense(sharded, td, chunkRows)
	if err != nil {
		return Result{}, err
	}
	defer tSingle.Free()
	defer tSharded.Free()

	// Spill: an identity StreamToMatrix — the pure read+write pass whose
	// output goes through the per-shard write-behind queues (Build writes
	// synchronously, so it would not exercise the concurrency under test).
	spill := func(t *chunk.Matrix) func() {
		return func() {
			cp, err := t.StreamToMatrix(ex, t.Cols(), func(ci, lo int, c la.Mat) (*la.Dense, error) {
				return c.(*la.Dense), nil
			})
			if err != nil {
				panic(err)
			}
			if err := cp.Free(); err != nil {
				panic(err)
			}
		}
	}
	oneSpill := timeIt(spill(tSingle))
	shSpill := timeIt(spill(tSharded))
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("spill copy of T (%d×%d)", nS, dS+dR),
		secs(oneSpill), secs(shSpill), ratio(oneSpill, shSpill)})

	// row times one workload on both stores and pins the results equal.
	row := func(name string, run func(t chunk.Mat) (*la.Dense, error)) error {
		var outSingle, outSharded *la.Dense
		oneT := timeIt(func() {
			var err error
			outSingle, err = run(tSingle)
			if err != nil {
				panic(err)
			}
		})
		shT := timeIt(func() {
			var err error
			outSharded, err = run(tSharded)
			if err != nil {
				panic(err)
			}
		})
		if la.MaxAbsDiff(outSingle, outSharded) != 0 {
			return fmt.Errorf("chunkshard: %s results diverged between stores", name)
		}
		res.Rows = append(res.Rows, []string{name, secs(oneT), secs(shT), ratio(oneT, shT)})
		return nil
	}

	xc := la.Ones(dS+dR, 8)
	if err := row("T·x (spilled product)", func(t chunk.Mat) (*la.Dense, error) {
		p, err := t.MulExec(ex, xc)
		if err != nil {
			return nil, err
		}
		defer p.Free()
		return p.ColSumsExec(ex)
	}); err != nil {
		return Result{}, err
	}
	if err := row(fmt.Sprintf("glm-materialized (%d iters)", iters), func(t chunk.Mat) (*la.Dense, error) {
		return ml.LogRegScan(chunk.MatOperand(ex, t), y, nil, ml.Options{Iters: iters, StepSize: 1e-6})
	}); err != nil {
		return Result{}, err
	}
	// GNMF wants a non-negative table; absChunk streams |T| per chunk.
	absChunk := func(ci, lo int, c la.Mat) (*la.Dense, error) {
		return c.ApplyM(func(v float64) float64 {
			if v < 0 {
				return -v
			}
			return v
		}).(*la.Dense), nil
	}
	if err := row(fmt.Sprintf("gnmf rank=5 (%d iters)", iters), func(t chunk.Mat) (*la.Dense, error) {
		pos, err := t.StreamToMatrix(ex, t.Cols(), absChunk)
		if err != nil {
			return nil, err
		}
		defer pos.Free()
		r, err := ml.GNMFScan(chunk.MatOperand(ex, pos), 5, ml.Options{Iters: iters, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		defer r.W.Free()
		return r.H, nil
	}); err != nil {
		return Result{}, err
	}
	stats := sharded.ShardStats()
	var minB, maxB int64 = -1, 0
	for _, st := range stats {
		if minB < 0 || st.Bytes < minB {
			minB = st.Bytes
		}
		if st.Bytes > maxB {
			maxB = st.Bytes
		}
	}
	res.Notes += fmt.Sprintf("; live shard bytes span [%d, %d]", minB, maxB)
	return res, nil
}

// singleDirStore opens the one-directory baseline store. With -shards it
// lives in a subdirectory of the first shard directory, so both columns
// are measured on the same device; otherwise it honors TmpDir.
func singleDirStore(cfg Config) (*chunk.Store, func(), error) {
	if len(cfg.ShardDirs) > 0 {
		dir := filepath.Join(cfg.ShardDirs[0], "single")
		st, err := chunk.NewStore(dir)
		if err != nil {
			return nil, nil, err
		}
		return st, func() { st.Close(); os.Remove(dir) }, nil
	}
	return chunkStore(Config{TmpDir: cfg.TmpDir}, "chunkshard-1dir")
}

// shardedStore opens the sharded store for the comparison: the
// user-supplied -shards directories and/or -remote-shards chunk servers
// when they make up more than one shard, a single -shards directory split
// into two shard subdirectories (so the comparison still runs on the
// user's device, not the OS temp filesystem), otherwise two shard
// subdirectories under one fresh temp root.
func shardedStore(cfg Config) (*chunk.Store, int, func(), error) {
	if n := len(cfg.ShardDirs) + len(cfg.RemoteShards); n > 1 || len(cfg.RemoteShards) == 1 {
		st, cleanup, err := chunkStore(cfg, "chunkshard")
		return st, n, cleanup, err
	}
	root := ""
	removeRoot := func() {}
	if len(cfg.ShardDirs) == 1 {
		root = cfg.ShardDirs[0] // user's device; shard subdirs are ours to remove
	} else {
		d, err := os.MkdirTemp("", "morpheus-chunkshard-*")
		if err != nil {
			return nil, 0, nil, err
		}
		root = d
		removeRoot = func() { os.RemoveAll(d) }
	}
	dirs := []string{filepath.Join(root, "shard0"), filepath.Join(root, "shard1")}
	st, err := chunk.NewShardedStore(dirs, chunk.LeastBytes)
	if err != nil {
		removeRoot()
		return nil, 0, nil, err
	}
	return st, len(dirs), func() {
		st.Close()
		for _, d := range dirs {
			os.Remove(d) // empty after Close; leave the user's root in place
		}
		removeRoot()
	}, nil
}

func init() {
	register("chunkshard", chunkshard)
}
