// Command morpheus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	morpheus-bench -exp fig3            # one experiment
//	morpheus-bench -exp all             # everything (slow)
//	morpheus-bench -list                # show experiment IDs
//	morpheus-bench -exp fig5 -scale 2   # grow workloads toward paper scale
//	morpheus-bench -exp table9 -tmpdir /fast/disk
//	morpheus-bench -chunked             # out-of-core suite
//	morpheus-bench -chunked -workers 4  # ... with a fixed worker count
//	morpheus-bench -chunked -mem 64     # ... under a 64 MB chunk budget
//	morpheus-bench -chunked -shards /disk1/spill,/disk2/spill
//	morpheus-bench -chunked -remote-shards http://node1:9431,http://node2:9431
//	morpheus-bench -chunked -remote-shards http://node1:9431 -pushdown
//	morpheus-bench -exp chunkpar -inproc-chunkd 2 -pushdown -json
//	morpheus-bench -exp chunkpar -codec shuffle-flate -zonemap -json
//	morpheus-bench -exp fig3 -json > bench.json
//
// Each experiment prints a text table with the materialized (M) and
// factorized (F) runtimes and the speed-up, mirroring the series in the
// corresponding paper table/figure, which the experiment id names (-list
// enumerates them).
//
// -chunked runs the out-of-core suite: the serial-vs-parallel engine
// comparison (chunkpar), the star-schema/sparse/k-means interface suite
// (chunkstar), the sharded-vs-single-directory spill comparison
// (chunkshard), and the §5.2.4 Tables 9 and 10, all under the parallel
// prefetching chunk pipeline. -mem bounds the decoded-chunk memory; chunk
// heights are derived from it via chunk.AutoRows instead of being
// hard-coded. -shards spreads every chunk store across the listed
// directories (point them at different disks) with size-aware placement
// and per-shard write-behind queues. -remote-shards adds morpheus-chunkd
// chunk servers as shards next to (or instead of) the local directories,
// so spills stream to other nodes.
//
// -pushdown ships op-based per-chunk maps (crossprod, colsums, sum, the
// k-means assignment pass) to the remote shards' /exec endpoints instead
// of streaming their chunks back; every experiment still asserts the
// results identical to the all-local run. -inproc-chunkd N starts N
// in-process chunkd workers on loopback and adds them to -remote-shards —
// the single-binary smoke configuration CI runs.
//
// -codec wraps every spill backend with the named chunk codec (see
// chunk.Codecs; currently shuffle-flate, a byte-shuffled DEFLATE), so
// chunks are compressed at rest and on the wire — including through
// morpheus-chunkd, whose /exec decodes them shard-side. -zonemap wraps
// every spill backend with the zone-map annotator: per-chunk min/max/nnz
// sidecars written at spill time let the streaming reductions skip chunks
// proven all-zero without reading them. Both wrappers sit behind the
// chunk.Backend seam, results stay bit-identical, and the -json output
// records bytes_read, bytes_on_wire, chunks_skipped, and codec per result.
//
// -exp serve-mutate runs the HTAP serving workload: an epoch-aware scorer
// over a versioned store, measured at steady state and then under a
// commit storm — per-commit publish latency (including the incremental
// partial-product patch), epochs/sec, and the scoring throughput retained
// while mutating. -mutate sets the rows upserted per commit. The run
// asserts the patched scorer identical (≤1e-12) to a from-scratch rebuild
// at the final epoch and fails otherwise, so CI's epoch smoke step gates
// on the differential.
//
// -exp serve-slo runs the serving-fleet latency harness: single,
// replicated, and hash-sharded fleets (width -replicas) behind the
// Batcher's bounded admission queue, driven closed-loop (-slo-conc
// workers, each window -slo-dur long) and open-loop (fixed arrival rate
// -slo-rate, default derived from the measured closed-loop throughput),
// reporting p50/p99/p999 latency, throughput, and rejection counts; an
// overload segment with a deliberately slow backend asserts excess
// requests fail fast with ErrOverloaded, and an epoch-fleet commit storm
// re-checks the routed ≡ single differential (≤1e-12) at the final
// epoch. With -json the percentiles and rejections land in the
// p50_us/p99_us/p999_us/rejected fields CI archives as bench-serve.json.
//
// -json replaces the text tables with one JSON array of results on stdout
// (the schema is experiments.Result: id/title/header/rows/notes), the
// machine-readable record CI archives per run so the performance
// trajectory accumulates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/chunk"
	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "morpheus-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "", "experiment ID (or 'all')")
		scale    = flag.Float64("scale", 1, "workload scale factor (1 = laptop defaults)")
		seed     = flag.Int64("seed", 1, "data generation seed")
		tmpdir   = flag.String("tmpdir", "", "directory for out-of-core chunk stores (default: system temp)")
		shards   = flag.String("shards", "", "comma-separated shard directories for the out-of-core chunk stores (different disks); overrides -tmpdir")
		remote   = flag.String("remote-shards", "", "comma-separated morpheus-chunkd base URLs to shard the out-of-core chunk stores across, alongside -shards")
		inproc   = flag.Int("inproc-chunkd", 0, "start N in-process chunkd workers on loopback and add them to -remote-shards (pushdown smoke testing)")
		pushdown = flag.Bool("pushdown", false, "run op-based per-chunk maps on the remote shards holding the chunks (/exec) instead of streaming chunks back")
		workers  = flag.Int("workers", 0, "out-of-core chunk workers (0 = GOMAXPROCS)")
		mem      = flag.Int("mem", 0, "out-of-core decoded-chunk memory budget in MB; chunk heights are autotuned from it (0 = 256)")
		chunked  = flag.Bool("chunked", false, "run the out-of-core suite (chunkpar, chunkstar, table9, table10)")
		codec    = flag.String("codec", "", "compress spill chunks with this chunk codec (see -list-codecs); empty = raw chunks")
		zonemap  = flag.Bool("zonemap", false, "record per-chunk zone-map sidecars at spill time so reductions skip proven all-zero chunks")
		mutate   = flag.Int("mutate", 0, "rows upserted per epoch commit in the serve-mutate experiment (0 = scale-derived default)")
		replicas = flag.Int("replicas", 0, "serving-fleet width for the serve-slo experiment (0 = 4)")
		sloRate  = flag.Float64("slo-rate", 0, "open-loop arrival rate in requests/sec for serve-slo (0 = derived from measured closed-loop throughput)")
		sloConc  = flag.Int("slo-conc", 0, "closed-loop concurrency for serve-slo (0 = 8)")
		sloDur   = flag.Duration("slo-dur", 0, "measurement window per serve-slo segment (0 = 250ms)")
		listCdc  = flag.Bool("list-codecs", false, "list registered chunk codec names and exit")
		asJSON   = flag.Bool("json", false, "emit results as one JSON array on stdout instead of text tables")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *listCdc {
		fmt.Println(strings.Join(chunk.Codecs(), "\n"))
		return nil
	}
	if *codec != "" {
		if _, err := chunk.CodecByName(*codec); err != nil {
			return err
		}
	}
	if *exp == "" && !*chunked {
		fmt.Fprintln(os.Stderr, "morpheus-bench: -exp is required (try -list or -chunked)")
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, TmpDir: *tmpdir, Workers: *workers, MemBudgetMB: *mem, Pushdown: *pushdown, Codec: *codec, ZoneMap: *zonemap, MutateRows: *mutate, Replicas: *replicas, SLORate: *sloRate, SLOConc: *sloConc, SLODur: *sloDur}
	if *shards != "" {
		for _, d := range strings.Split(*shards, ",") {
			if d = strings.TrimSpace(d); d != "" {
				cfg.ShardDirs = append(cfg.ShardDirs, d)
			}
		}
	}
	if *remote != "" {
		for _, u := range strings.Split(*remote, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.RemoteShards = append(cfg.RemoteShards, u)
			}
		}
	}
	if *inproc > 0 {
		urls, stop, err := startInprocChunkd(*inproc)
		if err != nil {
			return err
		}
		defer stop()
		cfg.RemoteShards = append(cfg.RemoteShards, urls...)
	}
	var ids []string
	switch {
	case *chunked:
		ids = []string{"chunkpar", "chunkstar", "chunkshard", "table9", "table10"}
		if *exp != "" {
			fmt.Fprintln(os.Stderr, "morpheus-bench: -chunked ignores -exp")
		}
	case *exp == "all":
		ids = experiments.IDs()
	default:
		ids = []string{*exp}
	}
	seen := map[string]bool{}
	var results []experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", id, err)
		}
		if seen[res.ID] { // fig6/fig7 and fig11/fig12 share runners
			continue
		}
		seen[res.ID] = true
		if *asJSON {
			results = append(results, res)
			continue
		}
		fmt.Println(res.Format())
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	}
	return nil
}

// startInprocChunkd starts n chunkd workers on loopback listeners, each
// serving its own temp shard directory, and returns their base URLs plus a
// cleanup that stops the servers and removes the directories.
func startInprocChunkd(n int) (urls []string, stop func(), err error) {
	var servers []*http.Server
	var dirs []string
	stop = func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "morpheus-chunkd-*")
		if err != nil {
			stop()
			return nil, nil, err
		}
		dirs = append(dirs, dir)
		cs, err := chunk.NewChunkServer(dir, 0)
		if err != nil {
			stop()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &http.Server{Handler: cs}
		servers = append(servers, srv)
		go srv.Serve(ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, stop, nil
}
