// Command morpheus-bench regenerates the paper's tables and figures (§5 and
// the appendix). It measures the paper's claim — factorized (F) against
// materialized (M) — and nothing else; the system benchmark (chunk
// pipeline, epochs, serving fleet) is bench/run.sh, see bench/README.md.
//
// Usage:
//
//	morpheus-bench -list                # show experiment IDs
//	morpheus-bench -exp fig3            # one experiment
//	morpheus-bench -exp all             # everything (slow)
//	morpheus-bench -exp fig5 -scale 2   # grow workloads toward paper scale
//	morpheus-bench -exp fig3 -json      # one JSON array instead of text tables
//	morpheus-bench -exp table9 -mem 64 -workers 4 -codec shuffle-flate
//	morpheus-bench -exp table9 -tmpdir /fast/disk
//	morpheus-bench -exp table10 -shards /disk1/spill,/disk2/spill
//	morpheus-bench -exp table9 -remote-shards http://node1:9431,http://node2:9431
//
// Each experiment prints a text table with the M and F runtimes and the
// speed-up, mirroring the series in the paper table/figure its id names.
//
// The out-of-core flags steer only Tables 9 and 10 (§5.2.4), which train
// under the parallel chunk pipeline: -workers bounds its chunk
// parallelism, -mem its decoded-chunk memory (chunk heights are derived
// from it via chunk.AutoRows), -codec compresses chunks at rest and on the
// wire (-list-codecs names the registered codecs). -tmpdir, -shards and
// -remote-shards say where the chunks live: one directory, several
// (different disks, round-robin placement), and/or morpheus-chunkd servers.
//
// -json emits one JSON array of experiments.Result objects
// (id/title/header/rows/notes) on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/chunk"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "morpheus-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("morpheus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment ID (or 'all')")
		scale   = fs.Float64("scale", 1, "workload scale factor (1 = laptop defaults)")
		seed    = fs.Int64("seed", 1, "data generation seed")
		tmpdir  = fs.String("tmpdir", "", "directory for out-of-core chunk stores (default: system temp)")
		shards  = fs.String("shards", "", "comma-separated shard directories for the out-of-core chunk stores (different disks); overrides -tmpdir")
		remote  = fs.String("remote-shards", "", "comma-separated morpheus-chunkd base URLs to shard the out-of-core chunk stores across, alongside -shards")
		workers = fs.Int("workers", 0, "out-of-core chunk workers (0 = GOMAXPROCS)")
		mem     = fs.Int("mem", 0, "out-of-core decoded-chunk memory budget in MB; chunk heights are autotuned from it (0 = 256)")
		codec   = fs.String("codec", "", "compress spill chunks with this chunk codec (see -list-codecs); empty = raw chunks")
		listCdc = fs.Bool("list-codecs", false, "list registered chunk codec names and exit")
		asJSON  = fs.Bool("json", false, "emit results as one JSON array on stdout instead of text tables")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *listCdc {
		fmt.Fprintln(stdout, strings.Join(chunk.Codecs(), "\n"))
		return nil
	}
	if *codec != "" {
		if _, err := chunk.CodecByName(*codec); err != nil {
			return err
		}
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (try -list)")
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, TmpDir: *tmpdir, ShardDirs: splitList(*shards), RemoteShards: splitList(*remote), Workers: *workers, MemBudgetMB: *mem, Codec: *codec}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
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
		fmt.Fprintln(stdout, res.Format())
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
