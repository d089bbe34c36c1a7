package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/serve"
)

// serveParams are the shapes and traffic of the two serving workloads.
type serveParams struct {
	NS, DS, NR, DR int
	WarmupS        float64
	// CheckEvery: every n-th response of a client is compared with the
	// reference prediction (steady only; the storm's data moves).
	CheckEvery int `json:",omitempty"`
	// LatencyEvery: every n-th request of a client is timed. Timing all of
	// them would make the latency arrays the largest thing in the process.
	LatencyEvery int
	// The storm's writer: commits per second, rows upserted per commit in
	// the attribute and the entity table, fleet-wide weight updates per
	// second.
	CommitsPerS       int `json:",omitempty"`
	AttrRowsPerCommit int `json:",omitempty"`
	EntRowsPerCommit  int `json:",omitempty"`
	WeightUpdatesPerS int `json:",omitempty"`
	// The storm's hot set: the writer upserts only these many distinct
	// rows of each table, all of them once before the pass starts, so the
	// store's overlays — which every commit copies — have the same size
	// from the first measured request to the last.
	HotAttrRows int `json:",omitempty"`
	HotEntRows  int `json:",omitempty"`
}

// serveWL is serve-steady (an immutable hash-sharded fleet, reads only)
// or serve-storm (an epoch fleet with a writer committing on a fixed
// schedule beside the readers). Both are closed loops: clients() callers
// each send their next Batcher.Score when the previous one returns.
type serveWL struct {
	wname string
	storm bool
	p     serveParams

	nm    *core.NormalizedMatrix
	w     *la.Dense
	fleet *fleet    // the undecorated fleet, built by setup
	ref   []float64 // steady: ml.PredictLogistic over nm, computed once
}

func newServe(storm, smoke bool) *serveWL {
	w := &serveWL{wname: "serve-steady", storm: storm}
	w.p = serveParams{NS: 1_000_000, DS: 10, NR: 50_000, DR: 40, WarmupS: 2, CheckEvery: 1024, LatencyEvery: 8}
	if storm {
		w.wname = "serve-storm"
		w.p = serveParams{NS: 200_000, DS: 10, NR: 10_000, DR: 40, WarmupS: 2, LatencyEvery: 8,
			CommitsPerS: 200, AttrRowsPerCommit: 32, EntRowsPerCommit: 32, WeightUpdatesPerS: 2,
			HotAttrRows: 1024, HotEntRows: 4096}
	}
	if smoke {
		w.p.NS, w.p.DS, w.p.NR, w.p.DR, w.p.WarmupS = 5000, 4, 250, 16, 0.05
		if storm {
			w.p.HotAttrRows, w.p.HotEntRows = 64, 256
		} else {
			w.p.CheckEvery = 16
		}
	}
	return w
}

func (w *serveWL) name() string { return w.wname }
func (w *serveWL) params() any  { return w.p }

// fleet is one serving stack below the Batcher.
type fleet struct {
	store   *epoch.Store // storm only
	rt      *serve.Router
	front   serve.BatchScorer    // what the Batcher fronts: rt, or its decorator
	tot     *routeTotals         // the decorators' sums; nil when undecorated
	scorers []*serve.EpochScorer // storm only
}

// buildFleet constructs the workload's fleet with zero weights and then
// publishes w.w through UpdateWeights, the retrain hand-off path. With a
// tracer every replica and the router are wrapped in the bench's
// decorators; without one the repo's own fleet constructors are used.
func (w *serveWL) buildFleet(tr *tracer) (fl *fleet, buildS, updateMs float64, err error) {
	n := clients()
	zero := la.NewDense(w.nm.Cols(), 1)
	fl = &fleet{}
	if tr != nil {
		fl.tot = &routeTotals{}
	}
	t0 := time.Now()
	switch {
	case w.storm:
		if fl.store, err = epoch.NewStore(w.nm); err != nil {
			return nil, 0, 0, err
		}
		if tr == nil {
			if fl.rt, err = serve.NewEpochFleet(fl.store, zero, serve.Logistic, n); err != nil {
				return nil, 0, 0, err
			}
			for i := 0; i < n; i++ {
				fl.scorers = append(fl.scorers, fl.rt.Replica(i).(*serve.EpochScorer))
			}
			break
		}
		replicas := make([]serve.Replica, n)
		for i := range replicas {
			es, err := serve.NewEpochScorer(fl.store, zero, serve.Logistic)
			if err != nil {
				return nil, 0, 0, err
			}
			fl.scorers = append(fl.scorers, es)
			replicas[i] = &tracedReplica{Replica: es, tr: tr, tot: fl.tot}
		}
		if fl.rt, err = serve.NewRouter(replicas, serve.Replicated); err != nil {
			return nil, 0, 0, err
		}
	case tr == nil:
		if fl.rt, err = serve.NewScorerFleet(w.nm, zero, serve.Logistic, n, serve.HashSharded); err != nil {
			return nil, 0, 0, err
		}
	default:
		replicas := make([]serve.Replica, n)
		for i := range replicas {
			sh, err := serve.NewShardedScorer(w.nm, zero, serve.Logistic, i, n)
			if err != nil {
				return nil, 0, 0, err
			}
			replicas[i] = &tracedReplica{Replica: sh, tr: tr, tot: fl.tot}
		}
		if fl.rt, err = serve.NewRouter(replicas, serve.HashSharded); err != nil {
			return nil, 0, 0, err
		}
	}
	buildS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err = fl.rt.UpdateWeights(w.w); err != nil {
		return nil, 0, 0, err
	}
	updateMs = time.Since(t0).Seconds() * 1e3
	fl.front = fl.rt
	if tr != nil {
		fl.front = &tracedRouter{Replica: fl.rt, tr: tr, tot: fl.tot}
	}
	return fl, buildS, updateMs, nil
}

func (w *serveWL) setup(r *run) error {
	t0 := time.Now()
	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: w.p.NS, DS: w.p.DS, NR: w.p.NR, DR: w.p.DR, Seed: r.seed})
	if err != nil {
		return err
	}
	w.nm = nm
	w.w = randWeights(rand.New(rand.NewSource(r.seed+1)), nm.Cols())
	r.set("datagen.gen_s", time.Since(t0).Seconds())
	fl, buildS, updateMs, err := w.buildFleet(nil)
	if err != nil {
		return err
	}
	w.fleet, w.ref = fl, nil
	r.set("serve.build_s", buildS)
	r.set("serve.update_weights_ms", updateMs)
	return nil
}

func (w *serveWL) teardown(*run) error {
	w.nm, w.w, w.fleet, w.ref = nil, nil, nil, nil
	return nil
}

func randWeights(rng *rand.Rand, d int) *la.Dense {
	w := la.NewDense(d, 1)
	for i := range w.Data() {
		w.Data()[i] = 0.1 * rng.NormFloat64()
	}
	return w
}

// scoreTol is the largest difference allowed between a served score and
// ml.PredictLogistic (or a from-scratch scorer) for the same row.
const scoreTol = 1e-12

// Phases of a closed-loop pass after the warm-up, which is phase 0.
const (
	phaseMeasure int32 = iota + 1
	phaseStop
)

// measureWindows cuts a measured phase of length d into windows of one
// second — the storm's writer repeats itself every half second (100
// commits, one weight barrier), so every window holds the same writes —
// or into four when d is shorter than four seconds. The end-to-end
// figures are medians over the windows.
func measureWindows(d time.Duration) int { return max(4, int(d/time.Second)) }

// loopClock tells the clients and the writer which phase the pass is in
// and where the measured phase's windows lie. start and window are written
// before phase becomes phaseMeasure.
type loopClock struct {
	phase  atomic.Int32
	start  time.Time
	window time.Duration
}

// client is one closed-loop caller's tally.
type client struct {
	windows   []window
	attempted int
	failed    int
	err       error // a wrong answer: fails the run
}

// writerStats is what the storm's writer measured during the measured
// phase.
type writerStats struct {
	commitUs    []float64 // Commit service time
	dueUs       []float64 // commit end minus when the tick was due
	lagUs       []float64 // how late the writer started each tick
	upsertNs    int64
	upserts     int
	commits     int
	rowsChanged int
	finalW      *la.Dense
	err         error
}

func (w *serveWL) measure(r *run, tr *tracer, d time.Duration) (opStats, error) {
	var st opStats
	fl := w.fleet
	if tr != nil {
		var err error
		if fl, _, _, err = w.buildFleet(tr); err != nil {
			return st, err
		}
	}
	if !w.storm && w.ref == nil {
		w.ref = ml.PredictLogistic(w.nm, w.w).Data()
	}

	b := serve.NewBatcher(fl.front, serve.BatchOptions{})
	nWin := measureWindows(d)
	clk := &loopClock{window: d / time.Duration(nWin)}
	n := clients()
	cls := make([]client, n)
	for i := range cls {
		cls[i].windows = make([]window, nWin)
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(&cls[c], b, clk, rand.New(rand.NewSource(r.seed*1000+int64(c))))
		}()
	}
	var ws writerStats
	if w.storm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = w.writer(fl, &clk.phase, rand.New(rand.NewSource(r.seed*1000+999)))
		}()
	}
	time.Sleep(time.Duration(w.p.WarmupS * float64(time.Second)))
	clk.start = time.Now()
	clk.phase.Store(phaseMeasure)
	time.Sleep(d)
	clk.phase.Store(phaseStop)
	wg.Wait()
	b.Close()
	st.PeakRSSMB = peakRSSMB()

	merged := make([]window, nWin)
	var latSum float64
	for i := range cls {
		if cls[i].err != nil {
			return st, cls[i].err
		}
		st.Attempted += cls[i].attempted
		st.Failed += cls[i].failed
		for wi, cw := range cls[i].windows {
			merged[wi].done += cw.done
			merged[wi].latUs = append(merged[wi].latUs, cw.latUs...)
			for _, l := range cw.latUs {
				latSum += l
			}
		}
	}
	st.summary = summarizeWindows(merged, clk.window.Seconds())
	if st.Samples == 0 {
		return st, fmt.Errorf("no request completed in %v", d)
	}

	finalW := w.w
	if w.storm {
		if ws.err != nil {
			return st, ws.err
		}
		finalW = ws.finalW
	}
	if err := w.checkFleet(fl, finalW); err != nil {
		return st, err
	}

	if w.storm && tr == nil {
		r.set("epoch.upsert_us", float64(ws.upsertNs)/1e3/float64(max(ws.upserts, 1)))
		r.set("epoch.commit_p50_us", median(ws.commitUs))
		tail, label := tailOf(ws.dueUs)
		r.set("epoch.commit_p99_us", tail)
		r.set("epoch.commits", float64(ws.commits))
		r.set("epoch.rows_changed", float64(ws.rowsChanged))
		r.set("epoch.live_epochs_end", float64(fl.store.LiveEpochs()))
		lag, lagLabel := tailOf(ws.lagUs)
		r.set("bench.gen_lag_p99_us", lag)
		var patchNs, patchRows, patched float64
		for _, es := range fl.scorers {
			ps := es.PatchStats()
			patchNs += float64(ps.TotalPatch.Nanoseconds())
			patchRows += float64(ps.Rows)
			patched = math.Max(patched, float64(ps.Commits))
		}
		r.set("serve.patch_us_per_commit", patchNs/1e3/math.Max(patched, 1))
		r.set("serve.patch_rows", patchRows/math.Max(patched, 1))
		r.notef("storm writer: %d commits measured; epoch.commit_p99_us is the %s of commit end minus due time, bench.gen_lag_p99_us the %s of start minus due time",
			ws.commits, label, lagLabel)
	}
	if tr != nil {
		// The Router calls its replicas one after another on the calling
		// goroutine, so its self time is its time less theirs.
		t := fl.tot
		rows, batches := float64(t.rows.Load()), float64(t.batches.Load())
		r.set("serve.batcher_wait_us", latSum/float64(st.Samples)-float64(t.rowNs.Load())/rows/1e3)
		r.set("serve.router_self_us", float64(t.routeNs.Load()-t.replicaNs.Load())/batches/1e3)
		r.set("serve.gather_ns_per_row", float64(t.replicaNs.Load())/rows)
		r.set("serve.batch_size_mean", rows/batches)
		rs, bs := fl.rt.Stats(), b.Stats()
		r.set("serve.subbatches_per_batch", float64(rs.SubBatches)/float64(max(rs.Batches, 1)))
		r.set("serve.peak_queue", float64(bs.PeakQueue))
		r.set("serve.rejected", float64(bs.Rejected))
	}
	return st, nil
}

// client sends Score requests back to back until the pass stops. Every
// LatencyEvery-th request is timed; a timed request also tells the client
// which measurement window it is in, and the untimed requests that follow
// are counted into the same window. A refused or failed request counts as
// failed and contributes no latency; a wrong score ends the run.
func (w *serveWL) client(c *client, b *serve.Batcher, clk *loopClock, rng *rand.Rand) {
	cur := -1 // the window of the measured phase this client is in
	for served := 0; ; served++ {
		ph := clk.phase.Load()
		if ph == phaseStop {
			return
		}
		id := rng.Intn(w.p.NS)
		timed := served%w.p.LatencyEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		score, err := b.Score(id)
		var lat time.Duration
		if timed && ph == phaseMeasure {
			end := time.Now()
			lat, cur = end.Sub(t0), int(end.Sub(clk.start)/clk.window)
		}
		if ph == phaseMeasure && cur >= 0 && cur < len(c.windows) {
			c.attempted++
			if err != nil {
				c.failed++
			} else {
				win := &c.windows[cur]
				win.done++
				if timed {
					win.latUs = append(win.latUs, float64(lat.Nanoseconds())/1e3)
				}
			}
		}
		if err == nil && w.ref != nil && served%w.p.CheckEvery == 0 {
			if diff := math.Abs(score - w.ref[id]); !(diff <= scoreTol) {
				c.err = fmt.Errorf("row %d scored %g, ml.PredictLogistic says %g (off by %g)", id, score, w.ref[id], diff)
				return
			}
		}
	}
}

// writer commits on a fixed schedule: tick k is due at start + k·period,
// whatever happened to the ticks before it. Each tick stages the
// configured upserts and commits; every (CommitsPerS/WeightUpdatesPerS)-th
// tick first publishes new weights through the fleet-wide barrier.
// Latencies are recorded during the measured phase only.
func (w *serveWL) writer(fl *fleet, phase *atomic.Int32, rng *rand.Rand) writerStats {
	ws := writerStats{finalW: w.w}
	period := int64(time.Second) / int64(w.p.CommitsPerS)
	every := w.p.CommitsPerS / w.p.WeightUpdatesPerS
	attr, ent := make([]float64, w.p.DR), make([]float64, w.p.DS)
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	// The hot set, all of it upserted in one commit before the schedule
	// starts (the readers are in their warm-up).
	hotAttr, hotEnt := rng.Perm(w.p.NR)[:w.p.HotAttrRows], rng.Perm(w.p.NS)[:w.p.HotEntRows]
	for _, row := range hotAttr {
		fill(attr)
		if ws.err = fl.store.UpsertAttr(0, row, attr); ws.err != nil {
			return ws
		}
	}
	for _, row := range hotEnt {
		fill(ent)
		if ws.err = fl.store.UpsertEntity(row, ent); ws.err != nil {
			return ws
		}
	}
	if _, ws.err = fl.store.Commit(); ws.err != nil {
		return ws
	}
	epochStart := time.Now()
	sinceStart := func() int64 { return time.Since(epochStart).Nanoseconds() }
	for k := 0; ; k++ {
		due := dueTime(0, period, k)
		if wait := due - sinceStart(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		ph := phase.Load()
		if ph == phaseStop {
			return ws
		}
		started := sinceStart()
		if k > 0 && k%every == 0 {
			ws.finalW = randWeights(rng, w.nm.Cols())
			if ws.err = fl.rt.UpdateWeights(ws.finalW); ws.err != nil {
				return ws
			}
		}
		u0 := sinceStart()
		for i := 0; i < w.p.AttrRowsPerCommit && ws.err == nil; i++ {
			fill(attr)
			ws.err = fl.store.UpsertAttr(0, hotAttr[rng.Intn(len(hotAttr))], attr)
		}
		for i := 0; i < w.p.EntRowsPerCommit && ws.err == nil; i++ {
			fill(ent)
			ws.err = fl.store.UpsertEntity(hotEnt[rng.Intn(len(hotEnt))], ent)
		}
		c0 := sinceStart()
		var c *epoch.Commit
		if ws.err == nil {
			c, ws.err = fl.store.Commit()
		}
		end := sinceStart()
		if ws.err != nil {
			return ws
		}
		if ph == phaseMeasure {
			ws.upsertNs += c0 - u0
			ws.upserts += w.p.AttrRowsPerCommit + w.p.EntRowsPerCommit
			ws.commits++
			ws.rowsChanged += c.RowsChanged()
			ws.commitUs = append(ws.commitUs, float64(end-c0)/1e3)
			ws.dueUs = append(ws.dueUs, float64(dueLatency(due, end))/1e3)
			ws.lagUs = append(ws.lagUs, float64(started-due)/1e3)
		}
	}
}

// checkFleet compares every row the fleet serves with an independent
// reference: ml.PredictLogistic for the immutable fleet; for the storm, a
// scorer built from scratch over the final epoch and weights — after
// which the store must be back to one live epoch.
func (w *serveWL) checkFleet(fl *fleet, finalW *la.Dense) error {
	got := fl.rt.ScoreAll()
	want := w.ref
	if w.storm {
		snap := fl.store.Pin()
		cur, err := snap.NormalizedMatrix()
		if err != nil {
			snap.Release()
			return err
		}
		fresh, err := serve.NewScorer(cur, finalW, serve.Logistic)
		if err != nil {
			snap.Release()
			return err
		}
		want = fresh.ScoreAll()
		snap.Release()
		if live := fl.store.LiveEpochs(); live != 1 {
			return fmt.Errorf("%d live epochs after the storm, want 1", live)
		}
	}
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); !(diff <= scoreTol) {
			return fmt.Errorf("row %d: fleet serves %g, reference %g (off by %g)", i, got[i], want[i], diff)
		}
	}
	return nil
}

// probes times the routed path without the Batcher, on one goroutine:
// ns per row and allocations per call of Router.ScoreBatchInto over 256
// ids (the steady-state path must not allocate), and bulk ScoreAll.
func (w *serveWL) probes(r *run, _ *tracer) error {
	rt := w.fleet.rt
	rng := rand.New(rand.NewSource(r.seed + 2))
	ids, out := make([]int, 256), make([]float64, 256)
	for i := range ids {
		ids[i] = rng.Intn(w.p.NS)
	}
	const calls = 2000
	score := func() error { return rt.ScoreBatchInto(ids, out) }
	for i := 0; i < 100; i++ { // fill the router's scratch pool
		if err := score(); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if err := score(); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	allocs := (m1.Mallocs - m0.Mallocs) / calls
	r.set("serve.direct_ns_per_row", float64(el.Nanoseconds())/float64(calls*len(ids)))
	r.set("serve.direct_allocs_per_op", float64(allocs))
	if allocs != 0 && !raceEnabled {
		return fmt.Errorf("Router.ScoreBatchInto allocates %d times per call, want 0", allocs)
	}
	secs := medianTime(3, func() { rt.ScoreAll() })
	r.set("serve.scoreall_rows_per_s", float64(w.p.NS)/secs)
	return nil
}
