package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// root of the repository repeats these declarations for the driver; the
// schema test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them from its untraced pass; what "one operation" is
// depends on the workload (a training job, a CSV-to-predictions flow, or
// one Batcher.Score request) and is stated in workloads and the README.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not exercise reports 0.
var perLayer = buildPerLayer()

// roofKernels are the la kernels of the roofline section. The first three
// are compute-bound (rate in GFLOP/s); the rest are bandwidth-bound (rate
// in computed GB/s, with a share of the measured copy ceiling).
var roofKernels = []struct {
	Name      string
	Bandwidth bool
}{
	{"gemm", false}, {"tmatmul", false}, {"crossprod", false},
	{"dense_mul", true}, {"dense_tmul", true},
	{"csr_mul", true}, {"csr_tmul", true},
	{"ind_mul", true}, {"ind_tmul", true},
}

// coreOps are the operator classes the la.Matrix decorator times.
var coreOps = []string{"mul", "tmul", "crossprod", "rowsums", "colsums", "elemwise"}

// algos are the training algorithms of the train-inmem job.
var algos = []string{"logreg", "linreg", "kmeans", "gnmf"}

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("table.readcsv_s", "s", "lower")
	add("table.readcsv_mb_per_s", "MB/s", "higher")
	add("table.build_s", "s", "lower")
	add("table.rows", "rows", "higher")

	add("datagen.gen_s", "s", "lower")

	add("la.copy_gb_per_s", "GB/s", "higher")
	for _, k := range roofKernels {
		add("la."+k.Name+"_ms", "ms", "lower")
		if k.Bandwidth {
			add("la."+k.Name+"_rate", "GB/s", "higher")
			add("la."+k.Name+"_bw_share", "share", "higher")
		} else {
			add("la."+k.Name+"_rate", "GFLOP/s", "higher")
		}
	}

	for _, o := range coreOps {
		add("core."+o+"_s", "s", "lower")
		add("core."+o+"_calls", "count", "lower")
	}
	add("core.tuple_ratio", "ratio", "higher")
	add("core.feature_ratio", "ratio", "higher")
	add("core.materialize_s", "s", "lower")
	for _, a := range algos {
		add("core.fm_speedup_"+a, "ratio", "higher")
	}

	add("expr.optimize_us", "us", "lower")
	add("expr.eval_s", "s", "lower")

	for _, a := range algos {
		add("ml."+a+"_s", "s", "lower")
		add("ml."+a+"_self_s", "s", "lower")
		add("ml."+a+"_iters", "count", "lower")
	}

	add("plan.decide_us", "us", "lower")
	add("plan.factorized", "bool", "higher")
	add("plan.chunk_rows", "rows", "higher")

	add("chunk.spill_s", "s", "lower")
	add("chunk.spill_mb_per_s", "MB/s", "higher")
	add("chunk.bytes_on_disk", "B", "lower")
	add("chunk.pass_s", "s", "lower")
	add("chunk.serial_pass_s", "s", "lower")
	add("chunk.par_speedup", "ratio", "higher")
	add("chunk.read_s", "s", "lower")
	add("chunk.map_s", "s", "lower")
	add("chunk.commit_s", "s", "lower")
	add("chunk.other_s", "s", "lower")
	add("chunk.overlap_ratio", "ratio", "higher")
	add("chunk.logreg_s", "s", "lower")
	add("chunk.kmeans_s", "s", "lower")
	add("chunk.crossprod_s", "s", "lower")
	add("chunk.chunks_read", "count", "lower")
	add("chunk.bytes_read", "B", "lower")
	add("chunk.chunks_skipped", "count", "higher")
	add("chunk.read_amplification", "ratio", "lower")
	add("chunk.live_chunks_end", "count", "lower")

	add("epoch.upsert_us", "us", "lower")
	add("epoch.commit_p50_us", "us", "lower")
	add("epoch.commit_p99_us", "us", "lower")
	add("epoch.commits", "count", "higher")
	add("epoch.rows_changed", "rows", "higher")
	add("epoch.live_epochs_end", "count", "lower")

	add("serve.build_s", "s", "lower")
	add("serve.update_weights_ms", "ms", "lower")
	add("serve.batcher_wait_us", "us", "lower")
	add("serve.router_self_us", "us", "lower")
	add("serve.gather_ns_per_row", "ns/row", "lower")
	add("serve.batch_size_mean", "rows", "higher")
	add("serve.subbatches_per_batch", "ratio", "lower")
	add("serve.peak_queue", "count", "lower")
	add("serve.rejected", "count", "lower")
	add("serve.direct_ns_per_row", "ns/row", "lower")
	add("serve.direct_allocs_per_op", "allocs/op", "lower")
	add("serve.scoreall_rows_per_s", "rows/s", "higher")
	add("serve.patch_us_per_commit", "us", "lower")
	add("serve.patch_rows", "rows", "higher")

	add("bench.trace_overhead_share", "share", "lower")
	add("bench.gen_lag_p99_us", "us", "lower")
	add("bench.latency_samples", "count", "higher")
	add("bench.fail_share", "share", "lower")
	return out
}
