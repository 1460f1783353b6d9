package main

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []string{
	"setup_s", "samples_per_s", "op_latency_p50_s", "op_latency_p90_s",
	"best_cost", "allocs_per_sample", "alloc_bytes_per_sample", "rss_peak_mb",
}

// perLayer lists the metrics a traced run reports, whatever its workload:
// the layers the workload does not exercise come from short probes of the
// workloads that do.
var perLayer = []string{
	// models / eval set-up, from the traced workload itself.
	"models.build_s", "eval.context_build_s", "warmup_op_s",
	// eval and core, from coexplore.
	"eval.calls_per_sample", "eval.cache_hit_ratio", "eval.cold_computes_per_op",
	"eval.delta_reused_per_sample", "eval.cache_entries",
	"eval.cold_partition_s", "eval.warm_partition_s",
	"core.init_step_s", "core.step_s_p50", "core.step_s_p90",
	"core.memo_hit_ratio", "core.feasible_ratio", "core.allocs_per_sample",
	"core.gc_cycles_per_op", "core.gc_pause_s_per_op",
	// search, serialize and serve, from serve.
	"search.round_s_p50", "search.checkpoint_bytes",
	"serialize.checkpoint_encode_s", "serialize.checkpoint_decode_s",
	"serialize.atomic_write_s", "serialize.manifest_bytes",
	"serve.submit_s_p50", "serve.queue_wait_s_p50", "serve.queue_wait_s_p90",
	"serve.slices_per_job", "serve.slice_s_p50", "serve.slice_overhead_s", "serve.result_s",
	// dse, from sweep.
	"dse.config_s_p50", "dse.config_s_p90", "dse.feasible_config_ratio", "dse.snapshot_bytes",
	// search/dist, from fleet.
	"dist.overhead_ratio", "dist.frames_per_op", "dist.bytes_per_round",
	"dist.worker_read_wait_s", "dist.frame_codec_s_per_mib",
	// the tracing itself.
	"trace.overhead_ratio", "trace.spans_per_op",
}

// missing returns the names in want that m lacks.
func missing(m map[string]metric, want []string) []string {
	var out []string
	for _, name := range want {
		if _, ok := m[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}
