package main

// metricDef describes one reported metric. The same table drives the
// program's output, BENCHMARK.json (checked by a unit test) and the
// README.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// source says where a per-layer number comes from: "ctr" (deltas of the
	// program's public counters read at window edges), "client" (the
	// harness's own records), "tap" (traced run only) or "drive:<layer>"
	// (the layer's public functions called directly by benchmark/drives).
	source string
	// moves records, before anything is measured, which end-to-end metric
	// this layer metric should move, and on which workload.
	moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, and none can be zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "goodput_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_ctx", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MiB", better: "lower", bound: 0.20},
}

const (
	movesWirePath  = "goodput_per_s, cpu_ms_per_ctx on single_write (CPU-bound at the window); flat on cross_uniform p50_ms"
	movesBatching  = "goodput_per_s on single_write, mixed_hot; larger batches may raise single_write p50_ms"
	movesOrdering  = "p50_ms on single_write and (x3 rounds) cross_uniform; flat on goodput_per_s"
	movesJournal   = "p50_ms on cross_uniform, read_beside_write (several serial journal records per tx); flat on query.scan_rows_per_s"
	movesTwoPC     = "p50_ms, goodput_per_s on cross_uniform; must read 0 on single_write"
	movesLocks     = "txn.abort_share, goodput_per_s on mixed_hot; flat on cross_uniform txn.abort_share"
	movesExecution = "goodput_per_s, cpu_ms_per_ctx on single_write; flat on query.sweep_p50_ms"
	movesReads     = "query.scan_rows_per_s, query.sweep_p50_ms, then cpu_ms_per_ctx and p50_ms on read_beside_write; flat on every write-only workload"
	movesVerify    = "cpu_ms_per_ctx then goodput_per_s on all workloads (scales with transport.frames_per_ctx)"
	movesNone      = "diagnostic; explains outliers rather than predicting a gain"
)

var wireTypes = []string{"request", "preprepare", "vote", "txn_prepare", "query_chunk"}

// perLayer lists every per-layer metric, layer = module name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "transport.frames_per_ctx", unit: "count", better: "lower", source: "ctr", moves: movesWirePath},
		{name: "transport.bytes_per_ctx", unit: "B", better: "lower", source: "ctr", moves: movesWirePath},
		{name: "transport.dropped", unit: "count", better: "lower", source: "ctr", moves: "client.p95_ms outliers: shed frames become 15 s client retransmissions"},
		{name: "transport.drive_small_frames_per_s", unit: "1/s", better: "higher", source: "drive:transport", moves: movesWirePath},
		{name: "transport.drive_large_mb_per_s", unit: "MB/s", better: "higher", source: "drive:transport", moves: movesWirePath},
	}
	for _, kind := range []struct{ prefix, unit string }{
		{"wire.encode_ns.", "ns"}, {"wire.decode_ns.", "ns"}, {"wire.decode_allocs.", "count"},
	} {
		for _, t := range wireTypes {
			defs = append(defs, metricDef{name: kind.prefix + t, unit: kind.unit, better: "lower", source: "drive:wire", moves: movesWirePath})
		}
	}
	return append(defs, []metricDef{
		{name: "blockcrypto.hash_1k_ns", unit: "ns", better: "lower", source: "drive:blockcrypto", moves: movesVerify},
		{name: "blockcrypto.sim_sign_ns", unit: "ns", better: "lower", source: "drive:blockcrypto", moves: movesVerify},
		{name: "blockcrypto.sim_verify_ns", unit: "ns", better: "lower", source: "drive:blockcrypto", moves: movesVerify},
		{name: "blockcrypto.ed25519_sign_ns", unit: "ns", better: "lower", source: "drive:blockcrypto", moves: movesVerify},
		{name: "blockcrypto.ed25519_verify_ns", unit: "ns", better: "lower", source: "drive:blockcrypto", moves: movesVerify},

		{name: "core.inbox_dropped", unit: "count", better: "lower", source: "ctr", moves: movesNone},
		{name: "core.preverify_ns_per_msg", unit: "ns", better: "lower", source: "tap", moves: movesVerify},
		{name: "core.stage_gap_ms", unit: "ms", better: "lower", source: "ctr", moves: "the part of single_write p50_ms no stage histogram covers"},

		{name: "pbft.batch_txs_mean", unit: "count", better: "higher", source: "ctr", moves: movesBatching},
		{name: "pbft.msgs_per_batch", unit: "count", better: "lower", source: "tap", moves: movesBatching},
		{name: "pbft.commit_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesOrdering},
		{name: "pbft.exec_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesExecution},
		{name: "pbft.cut_fastpath_share", unit: "ratio", better: "higher", source: "ctr", moves: movesOrdering},
		{name: "pbft.pipeline_peak", unit: "count", better: "higher", source: "ctr", moves: movesNone},
		{name: "pbft.view_changes", unit: "count", better: "lower", source: "ctr", moves: "must be 0 (checked)"},
		{name: "pbft.parexec_parallel_share", unit: "ratio", better: "higher", source: "ctr", moves: movesExecution},
		{name: "pbft.parexec_fallback_share", unit: "ratio", better: "lower", source: "ctr", moves: movesLocks},

		{name: "storage.wal_bytes_per_ctx", unit: "B", better: "lower", source: "ctr", moves: movesJournal},
		{name: "storage.fsyncs_per_ctx", unit: "count", better: "lower", source: "ctr", moves: movesJournal},
		{name: "storage.append_p50_us", unit: "us", better: "lower", source: "ctr", moves: movesJournal},
		{name: "storage.fsync_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesJournal},
		{name: "storage.stalls", unit: "count", better: "lower", source: "ctr", moves: movesNone},
		{name: "storage.drive_append_us.off", unit: "us", better: "lower", source: "drive:storage", moves: movesJournal},
		{name: "storage.drive_append_us.interval", unit: "us", better: "lower", source: "drive:storage", moves: movesJournal},
		{name: "storage.drive_append_us.always", unit: "us", better: "lower", source: "drive:storage", moves: movesJournal},

		{name: "chain.drive_apply_seal_us", unit: "us", better: "lower", source: "drive:chain", moves: movesExecution},
		{name: "chain.drive_get_ns", unit: "ns", better: "lower", source: "drive:chain", moves: movesExecution},
		{name: "chain.drive_iter_rows_per_s", unit: "1/s", better: "higher", source: "drive:chain", moves: movesReads},
		{name: "chain.drive_reader_under_write_rows_per_s", unit: "1/s", better: "higher", source: "drive:chain", moves: movesReads},

		{name: "chaincode.drive_exec_ns.put", unit: "ns", better: "lower", source: "drive:chaincode", moves: movesExecution},
		{name: "chaincode.drive_exec_ns.query", unit: "ns", better: "lower", source: "drive:chaincode", moves: movesExecution},
		{name: "chaincode.drive_exec_ns.preparePayment", unit: "ns", better: "lower", source: "drive:chaincode", moves: movesExecution},
		{name: "chaincode.drive_exec_ns.commitPayment", unit: "ns", better: "lower", source: "drive:chaincode", moves: movesExecution},

		{name: "txn.prepare_wait_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesTwoPC},
		{name: "txn.lock_hold_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesLocks},
		{name: "txn.decide_wait_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesTwoPC},
		{name: "txn.commit_p50_ms", unit: "ms", better: "lower", source: "ctr", moves: movesTwoPC},
		{name: "txn.retries_per_ctx", unit: "count", better: "lower", source: "ctr", moves: movesTwoPC},
		{name: "txn.abort_share", unit: "ratio", better: "lower", source: "client", moves: movesLocks},
		{name: "txn.dangling_locks_end", unit: "count", better: "lower", source: "ctr", moves: "must be 0 (checked)"},

		{name: "query.scan_rows_per_s", unit: "1/s", better: "higher", source: "client", moves: "what a reader sees beside writes; too unsteady at this run length to carry a bound"},
		{name: "query.sweep_p50_ms", unit: "ms", better: "lower", source: "client", moves: movesReads},
		{name: "query.pruned_share", unit: "ratio", better: "lower", source: "client", moves: movesReads},
		{name: "query.pages_per_scan", unit: "count", better: "lower", source: "tap", moves: movesReads},
		{name: "query.sweep_wrong_total", unit: "count", better: "lower", source: "client", moves: "counted as failed operations"},
		{name: "query.drive_answer_us.kv_page", unit: "us", better: "lower", source: "drive:query", moves: movesReads},
		{name: "query.drive_answer_us.sum_page", unit: "us", better: "lower", source: "drive:query", moves: movesReads},

		{name: "sim.drive_schedule_run_ns", unit: "ns", better: "lower", source: "drive:sim", moves: movesVerify},

		{name: "proc.allocs_per_ctx", unit: "count", better: "lower", source: "ctr", moves: movesWirePath},
		{name: "proc.alloc_kb_per_ctx", unit: "KiB", better: "lower", source: "ctr", moves: movesWirePath},
		{name: "proc.gc_pause_ms", unit: "ms", better: "lower", source: "ctr", moves: "client.p95_ms on every workload"},

		{name: "client.p95_ms", unit: "ms", better: "lower", source: "client", moves: "the tail of p50_ms's distribution; too unsteady at this run length to carry a bound"},
		{name: "client.p99_ms", unit: "ms", better: "lower", source: "client", moves: movesNone},
		{name: "client.closed_p50_ms", unit: "ms", better: "lower", source: "client", moves: "window / goodput_per_s by Little's law"},
		{name: "client.gen_late_max_ms", unit: "ms", better: "lower", source: "client", moves: "a late generator understates open-loop latency"},
		{name: "client.backlog_end", unit: "count", better: "lower", source: "client", moves: "over one second of the offered rate marks the phase overloaded (checked)"},
		{name: "client.fail_share", unit: "ratio", better: "lower", source: "client", moves: "must be 0 on these workloads"},
		{name: "client.setup_dropped", unit: "count", better: "lower", source: "ctr", moves: "setup_s swings when seeding sheds frames"},

		{name: "trace.overhead_share", unit: "ratio", better: "lower", source: "tap", moves: "how far traced per-layer numbers sit from the untraced end-to-end ones"},
	}...)
}

// missing is the value reported for a per-layer metric that could not be
// measured (a drive whose public function is gone, a tap metric in an
// untraced run). Nothing the benchmark measures is negative.
const missing = -1
