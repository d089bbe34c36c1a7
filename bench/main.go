// Command bench is the repository's performance benchmark: five named
// workloads, the end-to-end metrics a user of the system sees, and — from
// a traced run — the metrics of each layer. See README.md for the method
// and BENCHMARK.json at the root of the repository for the declarations
// the driver reads.
//
//	bash bench/run.sh --workload train-inmem --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh -smoke
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads lists the benchmark's workloads in the order the README
// describes them, each with the operation its latencies are of.
var workloads = []struct {
	name string
	op   string
	new  func(smoke bool) workload
}{
	{"train-inmem", "one in-memory training job (plan.Choose, then LogReg, LinReg, K-Means, GNMF)", func(s bool) workload { return newTrainInmem(s) }},
	{"train-ooc", "one out-of-core training job (plan.LogReg, plan.KMeans on T, crossprod(T)) under a 16 MB budget", func(s bool) workload { return newTrainOOC(s) }},
	{"serve-steady", "one Batcher.Score request against an immutable hash-sharded fleet", func(s bool) workload { return newServe(false, s) }},
	{"serve-storm", "one Batcher.Score request against an epoch fleet while a writer commits 200 times a second", func(s bool) workload { return newServe(true, s) }},
	{"e2e-csv", "one flow from CSV bytes to checked predictions (ReadCSV x3, Build, plan.Choose, LogReg, fleet, UpdateWeights, ScoreAll)", func(s bool) workload { return newE2ECSV(s) }},
}

func opOf(name string) string {
	for _, w := range workloads {
		if w.name == name {
			return w.op
		}
	}
	return "?"
}

func newWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new(smoke), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// outDir is where runs, traces and chunk spills go, relative to the root
// of the checkout the benchmark is started from.
const outDir = "bench/out"

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "the only source of randomness: every input is generated from it")
	seconds := flag.Float64("seconds", 18, "how long the timed region measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	smoke := flag.Bool("smoke", false, "run every workload at tiny shapes, traced, with all output checks on")
	compare := flag.Bool("compare", false, "compare two result files against the bounds in ./BENCHMARK.json: -compare A.json B.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *smoke:
		if err := runSmoke(os.Stdout, *seed, filepath.Join(outDir, "smoke")); err != nil {
			fatal(1, "smoke: %v", err)
		}
	default:
		w, err := newWorkload(*name, false)
		if err != nil {
			fatal(2, "%v", err)
		}
		rec, err := execute(w, *seed, *seconds, *trace != 0, false, outDir)
		if err != nil {
			fatal(1, "%s: %v", *name, err)
		}
		if err := writeRecord(outDir, rec); err != nil {
			fatal(1, "%v", err)
		}
		if err := printRecord(os.Stdout, rec); err != nil {
			fatal(1, "%v", err)
		}
	}
}

// runSmoke runs all workloads at tiny shapes through the traced path (which
// also runs the untraced one), so every decorator, probe and output check
// executes. It prints one line per workload.
func runSmoke(out *os.File, seed int64, dir string) error {
	for _, wl := range workloads {
		t0 := time.Now()
		for _, trace := range []bool{false, true} {
			rec, err := execute(wl.new(true), seed, 0.3, trace, true, dir)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if rec.Failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed", wl.name, rec.Failed, rec.Attempted)
			}
		}
		fmt.Fprintf(out, "smoke %-12s ok %.2fs\n", wl.name, time.Since(t0).Seconds())
	}
	return nil
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
