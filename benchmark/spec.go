package main

// This file is the benchmark's table of contents: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move.
// BENCHMARK.json at the repository root repeats the names, units and
// bounds; smoke_test.go fails when the two disagree.

// metricSpec describes one named metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves says which end-to-end metric a per-layer metric should move
	// and on which workload, or where the prediction is no change.
	Moves string
}

// endToEnd lists what a user of the system sees. Every workload emits
// every one of them, so each has one meaning on the batch workloads and
// one on the serving workloads:
//
//	throughput      batch: SNP pairs delivered ÷ median pass time
//	                serving: correct 200 responses ÷ timed window
//	latency_p50_ms  batch: median wall time of one pass
//	                serving: median client-side latency of /api/ld/region
//	alloc_mb_per_op batch: runtime.MemStats.TotalAlloc delta per pass (median)
//	                serving: TotalAlloc delta ÷ requests (process-wide, so
//	                it includes the in-process clients)
//	setup_s         data generation + store builds/opens + server boot,
//	                median of the set-ups made in the run
//
// Times and rates are normalised by the host's speed sampled inside the
// window (host.go, nominalSpeed); allocation is not.
//
// Each bound is at least three times the widest spread ten back-to-back
// runs of any workload showed on the build host (README.md, "Bounds").
var endToEnd = []metricSpec{
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics, layer.metric. A metric whose
// layer a workload does not exercise, or whose probe does not run on it,
// reads 0 there (and "not_measured" in the result file).
var perLayer = []metricSpec{
	// popcount: calibration on L1-resident 4 KiB operands, every run.
	{Name: "popcount.scalar_triples_per_s", Unit: "1/s", Better: "higher", Moves: "denominator of blis.peak_fraction at kw < 32 (compute_small_k)"},
	{Name: "popcount.engine_triples_per_s", Unit: "1/s", Better: "higher", Moves: "throughput on compute_large_k; no change on compute_small_k (scalar dispatch)"},
	{Name: "popcount.engine_over_scalar", Unit: "ratio", Better: "higher", Moves: "read beside blis.peak_fraction"},

	// kernel: one MR×NR micro-tile on packed panels, as the driver dispatches at that k.
	{Name: "kernel.micro_triples_per_s_k8", Unit: "1/s", Better: "higher", Moves: "throughput on compute_small_k"},
	{Name: "kernel.micro_triples_per_s_k1024", Unit: "1/s", Better: "higher", Moves: "throughput on compute_large_k"},
	{Name: "kernel.fraction_of_engine_k8", Unit: "ratio", Better: "higher", Moves: "throughput on compute_small_k"},
	{Name: "kernel.fraction_of_engine_k1024", Unit: "ratio", Better: "higher", Moves: "throughput on compute_large_k"},
	{Name: "kernel.pack_words_per_s", Unit: "1/s", Better: "higher", Moves: "throughput on compute_small_k (pack is not amortised over a short K loop)"},

	// blis: the blocked driver, from counter deltas over the traced window plus direct Syrk calls.
	{Name: "blis.peak_fraction", Unit: "ratio", Better: "higher", Moves: "throughput on the four batch workloads, normalised by the calibrated rate of the dispatched engine"},
	{Name: "blis.syrk_triples_per_s", Unit: "1/s", Better: "higher", Moves: "throughput on both compute workloads"},
	{Name: "blis.fraction_of_kernel", Unit: "ratio", Better: "higher", Moves: "throughput on both compute workloads"},
	{Name: "blis.epilogue_share", Unit: "ratio", Better: "lower", Moves: "large on compute_small_k, small on compute_large_k; an epilogue change moves throughput on compute_small_k only"},
	{Name: "blis.pack_share_est", Unit: "ratio", Better: "lower", Moves: "large on compute_small_k, small on compute_large_k"},
	{Name: "blis.arena_hit_rate", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on serve_compute"},
	{Name: "blis.calls_per_op", Unit: "count", Better: "lower", Moves: "exact count; throughput on compute_small_k (dispatch cost per call)"},
	{Name: "blis.thread_efficiency", Unit: "ratio", Better: "higher", Moves: "throughput on both compute workloads"},

	// core: Stream and its fused epilogue tables.
	{Name: "core.epilogue_self_s", Unit: "s", Better: "lower", Moves: "throughput on compute_small_k; no change on compute_large_k"},
	{Name: "core.fraction_of_driver", Unit: "ratio", Better: "higher", Moves: "throughput on compute_small_k"},
	{Name: "core.mallocs_per_pass", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op on the batch workloads"},

	// bitmat: .ldbm Source I/O.
	{Name: "bitmat.panel_read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "throughput on both builds (page-cache reads in a sandbox); no change on compute workloads"},
	{Name: "bitmat.panel_bytes_per_build", Unit: "bytes", Better: "lower", Moves: "exact count; throughput on both builds"},
	{Name: "bitmat.stall_fraction", Unit: "ratio", Better: "lower", Moves: "throughput on both builds"},

	// ldstore: dense tile build, tile cache, reads.
	{Name: "ldstore.build_self_s", Unit: "s", Better: "lower", Moves: "throughput on build_dense_ooc"},
	{Name: "ldstore.build_self_share", Unit: "ratio", Better: "lower", Moves: "throughput on build_dense_ooc"},
	{Name: "ldstore.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "throughput on build_dense_ooc"},
	{Name: "ldstore.bytes_per_pair", Unit: "bytes", Better: "lower", Moves: "ldstore.store_mb on build_dense_ooc"},
	{Name: "ldstore.store_mb", Unit: "MB", Better: "lower", Moves: "exact size of the finished container on build_dense_ooc"},
	{Name: "ldstore.region_warm_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on serve_store; no change on serve_compute or cluster_scatter"},
	{Name: "ldstore.region_cold_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on serve_store"},
	{Name: "ldstore.at_cold_us", Unit: "us", Better: "lower", Moves: "server.pair_p50_ms on serve_store"},
	{Name: "ldstore.top_ms", Unit: "ms", Better: "lower", Moves: "server.top_p50_ms on serve_store"},
	{Name: "ldstore.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on serve_store"},
	{Name: "ldstore.tiles_read_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_ms on serve_store"},
	{Name: "ldstore.read_amplification", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms and throughput on serve_store"},

	// ldsparse: pruned CSR build, MatVec.
	{Name: "ldsparse.build_self_s", Unit: "s", Better: "lower", Moves: "throughput on build_sparse_banded"},
	{Name: "ldsparse.nnz", Unit: "count", Better: "higher", Moves: "exact count; ldsparse.store_mb on build_sparse_banded"},
	{Name: "ldsparse.bytes_per_nnz", Unit: "bytes", Better: "lower", Moves: "ldsparse.store_mb on build_sparse_banded"},
	{Name: "ldsparse.band_cells_skipped", Unit: "count", Better: "higher", Moves: "exact count; throughput on build_sparse_banded"},
	{Name: "ldsparse.store_mb", Unit: "MB", Better: "lower", Moves: "exact size of the finished container on build_sparse_banded"},
	{Name: "ldsparse.matvec_ms", Unit: "ms", Better: "lower", Moves: "server.matvec_p50_ms and throughput on serve_store only"},
	{Name: "ldsparse.entries_per_s", Unit: "1/s", Better: "higher", Moves: "server.matvec_p50_ms on serve_store only"},
	{Name: "ldsparse.tiles_read_per_matvec", Unit: "count", Better: "lower", Moves: "server.matvec_p50_ms on serve_store only"},
	{Name: "ldsparse.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "server.matvec_p50_ms on serve_store only"},
	{Name: "ldsparse.mallocs_per_matvec", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op on serve_store"},

	// server: parse, store-or-compute, JSON encode.
	{Name: "server.qps", Unit: "1/s", Better: "higher", Moves: "throughput on the three serving workloads"},
	{Name: "server.region_p99_ms", Unit: "ms", Better: "lower", Moves: "tail of latency_p50_ms on the three serving workloads"},
	{Name: "server.pair_p50_ms", Unit: "ms", Better: "lower", Moves: "throughput on the three serving workloads"},
	{Name: "server.top_p50_ms", Unit: "ms", Better: "lower", Moves: "throughput on the three serving workloads"},
	{Name: "server.matvec_p50_ms", Unit: "ms", Better: "lower", Moves: "throughput on serve_store"},
	{Name: "server.region_self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms and throughput on both serve_store and serve_compute (encode is shared)"},
	{Name: "server.region_self_share", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms on both serve_store and serve_compute"},
	{Name: "server.bytes_per_region", Unit: "bytes", Better: "lower", Moves: "latency_p50_ms on the three serving workloads"},
	{Name: "server.encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "latency_p50_ms on the three serving workloads"},
	{Name: "server.pair_self_us", Unit: "us", Better: "lower", Moves: "server.pair_p50_ms on serve_store and serve_compute"},
	{Name: "server.matvec_self_ms", Unit: "ms", Better: "lower", Moves: "server.matvec_p50_ms on serve_store"},
	{Name: "server.store_served_ratio", Unit: "ratio", Better: "higher", Moves: "1 on serve_store, 0 on serve_compute: confirms which path answered"},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: "failed operations on the serving workloads; must stay 0"},
	{Name: "server.mallocs_per_request", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op on the serving workloads (process-wide, includes the clients)"},

	// cluster: coordinator scatter/merge, result cache, coalescing.
	{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on cluster_scatter; no change on single-node workloads"},
	{Name: "cluster.qps_vs_single", Unit: "ratio", Better: "higher", Moves: "throughput on cluster_scatter over serve_compute"},
	{Name: "cluster.shard_calls_per_request", Unit: "count", Better: "lower", Moves: "throughput on cluster_scatter"},
	{Name: "cluster.result_cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms and throughput on cluster_scatter"},
	{Name: "cluster.coalesced", Unit: "count", Better: "higher", Moves: "throughput on cluster_scatter"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", Moves: "server.region_p99_ms on cluster_scatter"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Moves: "server.region_p99_ms on cluster_scatter"},

	// set-up and tracing.
	{Name: "popsim.generate_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "setup.store_build_s", Unit: "s", Better: "lower", Moves: "setup_s on the serving workloads"},
	{Name: "trace.overhead_fraction", Unit: "ratio", Better: "lower", Moves: "traced ÷ untraced median latency − 1; nothing a user sees"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "exact count of spans the traced run recorded"},
	{Name: "host.speed_triples_per_s", Unit: "1/s", Better: "higher", Moves: "the host, not the program: what the end-to-end times and rates are normalised by; the per-layer metrics are not normalised"},
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name  string
	Why   string
	setup func(e *env) (instance, error)
}

var workloads = []workloadSpec{
	{Name: "compute_large_k", setup: setupComputeLargeK,
		Why: "1024 SNPs x 65536 samples through core.Stream: kernel-bound, the vector popcount engine does the work; an epilogue change must not move it"},
	{Name: "compute_small_k", setup: setupComputeSmallK,
		Why: "8192 SNPs x 512 samples through core.Stream: scalar dispatch, epilogue + pack + dispatch dominate; a kernel-engine change must not move it"},
	{Name: "build_dense_ooc", setup: setupBuildDense,
		Why: "4096x2048 .ldbm, windowed reads, checkpointed dense tile build: write-bound, tile assembly, CRC and fsync around a driver that is about half the time"},
	{Name: "build_sparse_banded", setup: setupBuildSparse,
		Why: "16384x2048 .ldbm, banded W=512 pruned CSR build: same scheduler used the other way, far panels skipped, tiny output; guards the banded schedule"},
	{Name: "serve_store", setup: setupServeStore,
		Why: "2 closed-loop clients on a store-backed server, tile cache smaller than the working set, plus sparse matvec over HTTP: cache and read-amplification changes show here"},
	{Name: "serve_compute", setup: setupServeCompute,
		Why: "same cohort and query stream with no stores: isolates what the store buys; an encode change moves both, a cache change moves only serve_store"},
	{Name: "cluster_scatter", setup: setupCluster,
		Why: "2 compute shards behind a coordinator, 30% exact-repeat regions: scatter/merge, shard RTT, result cache and coalescing on top of serve_compute"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
