package main

// metricDef names one metric of BENCHMARK.json. The catalogue below is
// the harness's side of that file: TestCatalogMatchesBenchmarkJSON
// keeps the two in step, name for name.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// moves is written down before measuring: which end-to-end metric
	// this layer metric should move, and on which workload.
	moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md gives the per-workload definitions of
// the three quality metrics.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "success_share", unit: "ratio", better: "higher", bound: 0.001},
	{name: "track_efficiency", unit: "ratio", better: "higher", bound: 0.03},
	{name: "edge_precision", unit: "ratio", better: "higher", bound: 0.03},
	{name: "edge_recall", unit: "ratio", better: "higher", bound: 0.01},
}

const (
	onGNN    = "throughput_per_s, latency_p50_ms on recon_gnn_*"
	onBuild  = "throughput_per_s on graph_build, serve_small"
	onServe  = "latency_p50_ms on serve_small"
	onTrain  = "throughput_per_s on train_dist"
	onKernel = "throughput_per_s on recon_gnn_*, train_dist"
)

// perLayer is the ledger: one row per layer boundary, named
// <module>.<metric>. A metric that does not apply to a workload reads 0
// there.
var perLayer = []metricDef{
	// Reconstruction stages, per event (recon_*, graph_build, serve_small).
	{name: "detector.hits", unit: "count", better: "lower", moves: "sizes every stage; set by the seed"},
	{name: "embed.busy_ms", unit: "ms", better: "lower", moves: onBuild},
	{name: "knnsearch.busy_ms", unit: "ms", better: "lower", moves: onBuild},
	{name: "knnsearch.candidate_edges", unit: "count", better: "lower", moves: "sets filter.busy_ms and ignn.edges on serve_small"},
	{name: "filter.busy_ms", unit: "ms", better: "lower", moves: onBuild},
	{name: "filter.keep_ratio", unit: "ratio", better: "lower", moves: "sets ignn.edges; read against edge_recall on serve_small"},
	{name: "ignn.busy_ms", unit: "ms", better: "lower", moves: onGNN + " (share 0.98), serve_small (0.4)"},
	{name: "ignn.edges", unit: "count", better: "lower", moves: onGNN},
	{name: "ignn.ns_per_edge_step", unit: "ns", better: "lower", moves: onGNN},
	{name: "graph.extract_ms", unit: "ms", better: "lower", moves: onServe},
	{name: "graph.tracks", unit: "count", better: "higher", moves: "track_efficiency"},
	{name: "recon.self_ms", unit: "ms", better: "lower", moves: onServe},
	{name: "op.latency_p99_ms", unit: "ms", better: "lower", moves: "latency_p90_ms"},

	// Engine and pools.
	{name: "engine.allocs_per_op", unit: "count", better: "lower", moves: onServe},
	{name: "engine.alloc_kb_per_op", unit: "KiB", better: "lower", moves: onServe},
	{name: "engine.rejected", unit: "count", better: "lower", moves: "success_share"},
	{name: "engine.panics_recovered", unit: "count", better: "lower", moves: "success_share"},
	{name: "workspace.miss_ratio", unit: "ratio", better: "lower", moves: onServe},
	{name: "workspace.in_use_kb_after", unit: "KiB", better: "lower", moves: "none; a leak shows here first"},
	{name: "kernels.workers", unit: "count", better: "higher", moves: onKernel},

	// Kernels, direct calls at the workload's own shapes.
	{name: "tensor.gemm_ms", unit: "ms", better: "lower", moves: onKernel},
	{name: "tensor.gemm_gflops", unit: "GFLOP/s", better: "higher", moves: onKernel},
	{name: "sparse.spmm_ms", unit: "ms", better: "lower", moves: onKernel},
	{name: "sparse.spmm_gbps", unit: "GB/s", better: "higher", moves: onKernel},
	{name: "tensor.gather_concat_ms", unit: "ms", better: "lower", moves: onKernel},

	// Serving (serve_small).
	{name: "wire.request_bytes_json", unit: "B", better: "lower", moves: onServe},
	{name: "wire.request_bytes_bin", unit: "B", better: "lower", moves: onServe},
	{name: "wire.response_bytes_json", unit: "B", better: "lower", moves: onServe},
	{name: "wire.response_bytes_bin", unit: "B", better: "lower", moves: onServe},
	{name: "wire.decode_request_ms_json", unit: "ms", better: "lower", moves: onServe},
	{name: "wire.decode_request_ms_bin", unit: "ms", better: "lower", moves: onServe},
	{name: "wire.encode_response_ms_json", unit: "ms", better: "lower", moves: onServe},
	{name: "wire.encode_response_ms_bin", unit: "ms", better: "lower", moves: onServe},
	{name: "server.latency_p50_ms_json", unit: "ms", better: "lower", moves: onServe},
	{name: "server.latency_p50_ms_bin", unit: "ms", better: "lower", moves: onServe},
	{name: "server.latency_p99_ms", unit: "ms", better: "lower", moves: "latency_p90_ms on serve_small"},
	{name: "server.overhead_ms", unit: "ms", better: "lower", moves: onServe},
	{name: "server.rejected_429", unit: "count", better: "lower", moves: "success_share on serve_small"},
	{name: "server.errors_5xx", unit: "count", better: "lower", moves: "success_share on serve_small"},
	{name: "microbatch.coalesced_batches", unit: "count", better: "higher", moves: "none while the window is off"},
	{name: "microbatch.events_per_batch", unit: "count", better: "higher", moves: "none while the window is off"},

	// Training (train_dist).
	{name: "sampling.busy_ms_per_step", unit: "ms", better: "lower", moves: onTrain + " (share 0.05)"},
	{name: "dtrain.compute_ms_per_step", unit: "ms", better: "lower", moves: onTrain + " (share 0.95)"},
	{name: "sampling.bulk_call_ms", unit: "ms", better: "lower", moves: onTrain},
	{name: "sampling.vertices_per_root", unit: "count", better: "lower", moves: "sizes dtrain.compute_ms_per_step"},
	{name: "sampling.edges_per_root", unit: "count", better: "lower", moves: "sizes dtrain.compute_ms_per_step"},
	{name: "dtrain.steps", unit: "count", better: "higher", moves: onTrain},
	{name: "dtrain.final_loss", unit: "loss", better: "lower", moves: "edge_precision, edge_recall on train_dist"},
	{name: "dtrain.speedup_vs_p1", unit: "ratio", better: "higher", moves: onTrain},
	{name: "dtrain.loss_equal_p1", unit: "bool", better: "higher", moves: "success_share on train_dist"},
	{name: "comm.calls_per_step", unit: "count", better: "lower", moves: onTrain + " (below 1% modelled)"},
	{name: "comm.logical_kb_per_step", unit: "KiB", better: "lower", moves: onTrain + " (below 1% modelled)"},
	{name: "comm.modeled_ms_per_step", unit: "ms", better: "lower", moves: onTrain + " (below 1% modelled)"},
	{name: "comm.allreduce_ms", unit: "ms", better: "lower", moves: onTrain},
	{name: "ddp.buckets", unit: "count", better: "lower", moves: "comm.calls_per_step"},

	// Every workload.
	{name: "fixture.fit_s", unit: "s", better: "lower", moves: "none; training the fixture is not part of setup_s"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none; the cost of the traced pass itself"},
	{name: "trace.closure_pct", unit: "%", better: "lower", moves: "none; span self times against the op wall"},
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	make func() workload
}

var workloads = []workloadDef{
	{"recon_gnn_f64", "GNN is ~98% of the event on truth-level graphs, so GEMM, SpMM and ignn changes show here", func() workload { return newReconGNN("f64") }},
	{"recon_gnn_f32", "same events and checkpoint at float32: the generic kernels and the stages32 adapters", func() workload { return newReconGNN("f32") }},
	{"recon_gnn_i8", "same events through the int8 QGEMM/QSpMM/stages8 stack whose keep-or-delete verdict is open", func() workload { return newReconGNN("i8") }},
	{"graph_build", "stages 1-3 only (embed, k-d tree radius search, filter MLP, AssembleGraph); the GNN never runs", func() workload { return newGraphBuild() }},
	{"serve_small", "small events over loopback HTTP, JSON and binary alternating: codec, admission and per-event overhead are largest here", func() workload { return newServeSmall() }},
	{"train_dist", "bulk-sampled DDP training at 2 ranks: the same kernels as recon_gnn_f64 but through the autograd tape", func() workload { return newTrainDist() }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
