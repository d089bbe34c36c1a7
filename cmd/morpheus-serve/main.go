// Command morpheus-serve demonstrates the factorized scoring service: it
// trains a model over a generated normalized dataset (never materializing
// the join), builds a cached-partial Scorer, and then serves scoring
// requests read from stdin.
//
// Usage:
//
//	morpheus-serve -ns 20000 -ds 20 -nr 1000 -dr 80 -model logreg <ids.txt
//	morpheus-serve -mutable            # versioned store + online updates
//	morpheus-serve -replicas 4         # hash-sharded scoring fleet
//	morpheus-serve -replicas 4 -placement replicated
//
// Each input line is one request: a row id, or a comma-separated list of
// row ids (CSV) served as one batch. The special line "all" scores every
// row. Output is "id,score" per request row. With -compare, the tool first
// reports the cached-partial speedup over rerunning the factorized
// predictor.
//
// With -mutable the feature store is wrapped in a versioned epoch store
// (internal/epoch) served by an epoch-aware scorer, and three more
// request forms mutate it online:
//
//	set s 17 0.5,1.25,...     # stage new features for entity tuple 17
//	set r1 3 0.1,0.2,...      # stage new features for tuple 3 of R_1
//	commit                    # publish staged rows as one new epoch
//	epoch                     # print the epoch currently served
//
// Staged rows are invisible until commit; commit patches the scorer's
// cached partial products incrementally (subtract old contribution, add
// new) before returning, so the next score already reflects the new
// epoch. A scoring request racing a commit scores every row at a
// committed epoch — one epoch per batch, except that a sharded batch
// straddling the commit may see its slices one epoch apart.
//
// -replicas N serves through an N-replica fleet behind the serve.Router:
// -placement sharded (default) hash-partitions row ids so the entity-side
// partial cache exists once across the fleet; -placement replicated gives
// every replica the full cache and rotates batches round-robin. Both
// placements work with -mutable: every replica subscribes to the one
// store, and a commit patches entity rows on the slice that owns them and
// attribute rows everywhere before it returns. Requests go through a
// serve.Batcher that owns no goroutines: callers score their own batches,
// at most -workers at once and -batch rows a pass. -queue bounds the
// waiting requests; a full queue rejects with ErrOverloaded.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops admitting
// new requests, answers every request already accepted, flushes output,
// reports the admission stats, and exits 0 — no request is dropped
// mid-batch.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/serve"
)

// errDrain ends the request stream on SIGINT/SIGTERM.
var errDrain = errors.New("draining")

func main() {
	// Graceful shutdown: a signal ends the request stream run reads, so
	// run answers everything already accepted, flushes, reports and
	// returns — instead of dying mid-batch.
	in, stream := io.Pipe()
	go func() {
		_, err := io.Copy(stream, os.Stdin)
		stream.CloseWithError(err)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "morpheus-serve: %v — draining in-flight batches\n", s)
		stream.CloseWithError(errDrain)
	}()
	if err := run(os.Args[1:], in, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "morpheus-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("morpheus-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ns      = fs.Int("ns", 20000, "entity tuples (fact-table rows)")
		ds      = fs.Int("ds", 20, "entity features")
		nr      = fs.Int("nr", 1000, "attribute-table tuples")
		dr      = fs.Int("dr", 80, "attribute features")
		tables  = fs.Int("tables", 1, "attribute tables (star schema when > 1)")
		model   = fs.String("model", "logreg", "model: logreg | linreg")
		iters   = fs.Int("iters", 20, "training iterations")
		step    = fs.Float64("step", 1e-6, "gradient-descent step size")
		seed    = fs.Int64("seed", 1, "data generator seed")
		batch   = fs.Int("batch", 256, "largest batch one caller scores")
		workers = fs.Int("workers", 0, "callers scoring batches at once (0 = GOMAXPROCS)")
		compare = fs.Bool("compare", false, "report cached vs naive scoring throughput before serving")
		mutable = fs.Bool("mutable", false, "serve from a versioned epoch store accepting set/commit/epoch requests")
		fleet   = fs.Int("replicas", 1, "serving-fleet width")
		place   = fs.String("placement", "sharded", "fleet cache placement: sharded | replicated")
		queue   = fs.Int("queue", 0, "admission queue depth; full queue rejects with ErrOverloaded (0 = workers x batch)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	head := serve.Logistic
	binarize := true
	if *model == "linreg" {
		head = serve.Linear
		binarize = false
	} else if *model != "logreg" {
		return fmt.Errorf("unknown -model %q (want logreg or linreg)", *model)
	}
	var placement serve.Placement
	switch *place {
	case "sharded":
		placement = serve.HashSharded
	case "replicated":
		placement = serve.Replicated
	default:
		return fmt.Errorf("unknown -placement %q (want sharded or replicated)", *place)
	}
	if *fleet < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", *fleet)
	}

	nm, err := generate(*ns, *ds, *nr, *dr, *tables, *seed)
	if err != nil {
		return fmt.Errorf("generating data: %v", err)
	}
	fmt.Fprintf(stderr, "dataset: %d rows x %d features over %d attribute table(s)\n",
		nm.Rows(), nm.Cols(), nm.NumTables())
	y := datagen.Labels(nm, 0.1, binarize, *seed+1)
	start := time.Now()
	var w *la.Dense
	if head == serve.Logistic {
		w, err = ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	} else {
		w, err = ml.LinearRegressionGD(nm, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	}
	if err != nil {
		return fmt.Errorf("training: %v", err)
	}
	fmt.Fprintf(stderr, "trained %s factorized in %v\n", *model, time.Since(start).Round(time.Millisecond))

	// One construction path for every configuration: -mutable picks the
	// partial source, -placement the ownership of each of -replicas scorers.
	var st *epoch.Store
	if *mutable {
		if st, err = epoch.NewStore(nm); err != nil {
			return fmt.Errorf("building epoch store: %v", err)
		}
	}
	replicas := make([]serve.Replica, *fleet)
	for i := range replicas {
		shard, of := 0, 1
		if placement == serve.HashSharded {
			shard, of = i, *fleet
		}
		if st != nil {
			replicas[i], err = serve.NewShardedEpochScorer(st, w, head, shard, of)
		} else {
			replicas[i], err = serve.NewShardedScorer(nm, w, head, shard, of)
		}
		if err != nil {
			return fmt.Errorf("building scorer: %v", err)
		}
	}
	sc, err := serve.NewRouter(replicas, placement)
	if err != nil {
		return fmt.Errorf("building fleet: %v", err)
	}
	if st != nil {
		fmt.Fprintf(stderr, "mutable fleet: %d %s replicas at epoch %d (set/commit/epoch requests enabled)\n",
			sc.NumReplicas(), sc.Placement(), st.Version())
	} else {
		fmt.Fprintf(stderr, "serving fleet: %d %s replicas\n", sc.NumReplicas(), sc.Placement())
	}
	if *compare {
		reportSpeedup(stderr, sc, nm, head, w)
	}
	b := serve.NewBatcher(sc, serve.BatchOptions{MaxBatch: *batch, Workers: *workers, QueueDepth: *queue})
	defer b.Close()

	out := bufio.NewWriter(stdout)
	in := bufio.NewScanner(stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if st == nil || !handleMutation(line, st, out, stderr) {
			handleRequest(line, sc, b, out, stderr)
		}
		// Flush per request so interactive callers see their response
		// immediately rather than at buffer/EOF boundaries.
		if err := out.Flush(); err != nil {
			return err
		}
	}
	switch err := in.Err(); {
	case errors.Is(err, errDrain):
		b.Close()
		bs := b.Stats()
		fmt.Fprintf(stderr, "morpheus-serve: drained; accepted=%d rejected=%d batches=%d peak_queue=%d\n",
			bs.Accepted, bs.Rejected, bs.Batches, bs.PeakQueue)
	case err != nil:
		return fmt.Errorf("reading stdin: %v", err)
	}
	return nil
}

// handleMutation serves the -mutable request forms; it reports whether
// the line was a mutation request (handled or rejected) as opposed to a
// scoring request.
func handleMutation(line string, st *epoch.Store, out, stderr io.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "epoch":
		fmt.Fprintf(out, "epoch,%d\n", st.Version())
		return true
	case "commit":
		c, err := st.Commit()
		if err != nil {
			fmt.Fprintf(stderr, "commit failed: %v\n", err)
			return true
		}
		fmt.Fprintf(out, "epoch,%d,rows,%d\n", c.Version, c.RowsChanged())
		return true
	case "set":
		if len(fields) != 4 {
			fmt.Fprintf(stderr, "skipping %q: want 'set s|rN ROW v1,v2,...'\n", line)
			return true
		}
		row, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Fprintf(stderr, "skipping %q: bad row %q\n", line, fields[2])
			return true
		}
		vals, err := parseVals(fields[3])
		if err != nil {
			fmt.Fprintf(stderr, "skipping %q: %v\n", line, err)
			return true
		}
		switch {
		case fields[1] == "s":
			err = st.UpsertEntity(row, vals)
		case strings.HasPrefix(fields[1], "r"):
			t, terr := strconv.Atoi(fields[1][1:])
			if terr != nil || t < 1 {
				fmt.Fprintf(stderr, "skipping %q: bad table %q (want s or r1..r%d)\n", line, fields[1], st.NumTables())
				return true
			}
			err = st.UpsertAttr(t-1, row, vals)
		default:
			fmt.Fprintf(stderr, "skipping %q: bad table %q (want s or r1..r%d)\n", line, fields[1], st.NumTables())
			return true
		}
		if err != nil {
			fmt.Fprintf(stderr, "skipping %q: %v\n", line, err)
			return true
		}
		fmt.Fprintf(out, "staged,%d\n", st.Pending())
		return true
	}
	return false
}

func parseVals(csv string) ([]float64, error) {
	fields := strings.Split(csv, ",")
	vals := make([]float64, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return vals, nil
}

// handleRequest serves one input line: "all", a single row id, or a
// comma-separated batch. Bad requests are reported to stderr and skipped.
func handleRequest(line string, sc *serve.Router, b *serve.Batcher, out, stderr io.Writer) {
	if line == "all" {
		for id, v := range sc.ScoreAll() {
			fmt.Fprintf(out, "%d,%g\n", id, v)
		}
		return
	}
	ids, err := parseIDs(line)
	if err != nil {
		fmt.Fprintf(stderr, "skipping %q: %v\n", line, err)
		return
	}
	if len(ids) == 1 {
		v, err := b.Score(ids[0])
		if err != nil {
			fmt.Fprintf(stderr, "skipping %d: %v\n", ids[0], err)
			return
		}
		fmt.Fprintf(out, "%d,%g\n", ids[0], v)
		return
	}
	vs, err := sc.ScoreBatch(ids)
	if err != nil {
		fmt.Fprintf(stderr, "skipping %q: %v\n", line, err)
		return
	}
	for i, id := range ids {
		fmt.Fprintf(out, "%d,%g\n", id, vs[i])
	}
}

func generate(ns, ds, nr, dr, tables int, seed int64) (*core.NormalizedMatrix, error) {
	if tables <= 1 {
		return datagen.PKFK(datagen.PKFKSpec{NS: ns, DS: ds, NR: nr, DR: dr, Seed: seed})
	}
	nrs := make([]int, tables)
	drs := make([]int, tables)
	for i := range nrs {
		nrs[i] = nr
		drs[i] = dr
	}
	return datagen.Star(datagen.StarSpec{NS: ns, DS: ds, NR: nrs, DR: drs, Seed: seed})
}

// reportSpeedup times scoring every row via the serving fleet's cached
// partials against rerunning the factorized predictor, mirroring
// BenchmarkServe*.
func reportSpeedup(stderr io.Writer, sc *serve.Router, nm *core.NormalizedMatrix, head serve.Head, w *la.Dense) {
	const reps = 5
	naive := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if head == serve.Logistic {
			ml.PredictLogistic(nm, w)
		} else {
			ml.PredictLinear(nm, w)
		}
		if d := time.Since(t0); d < naive {
			naive = d
		}
	}
	cached := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sc.ScoreAll()
		if d := time.Since(t0); d < cached {
			cached = d
		}
	}
	fmt.Fprintf(stderr, "scoring %d rows: naive factorized %v, cached partials %v (%.1fx)\n",
		nm.Rows(), naive, cached, float64(naive)/float64(cached))
}

func parseIDs(line string) ([]int, error) {
	fields := strings.Split(line, ",")
	ids := make([]int, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad row id %q", f)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no row ids")
	}
	return ids, nil
}
