//! The asymfence benchmark: three workloads (`stm`, `cilk`,
//! `fence-tools`) with end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod calib;
pub mod digest;
pub mod gen;
pub mod host;
pub mod run;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod tools;

/// End-to-end metrics and units, in `BENCHMARK.json` order (printed by
/// `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_minstrs_per_s", "Minstrs/s"),
    ("runs_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ws_speedup", "x"),
    ("w_speedup", "x"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order (printed by
/// `--trace 1`; a layer a workload does not exercise reads 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.runner.overhead_ms", "ms"),
    ("bench.pool.builds", "count"),
    ("bench.pool.reuses", "count"),
    ("bench.cell.setup_ms", "ms"),
    ("bench.cell.harvest_ms", "ms"),
    ("core.run_s", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_instr", "ns"),
    ("core.ns_per_msg", "ns"),
    ("core.new_us", "us"),
    ("cpu.instrs", "count"),
    ("cpu.loads", "count"),
    ("cpu.stores", "count"),
    ("cpu.rmws", "count"),
    ("cpu.sf", "count"),
    ("cpu.wf", "count"),
    ("cpu.load_squashes", "count"),
    ("cpu.early_retired_loads", "count"),
    ("cpu.recoveries", "count"),
    ("cpu.busy_frac", "ratio"),
    ("cpu.fence_stall_frac", "ratio"),
    ("coherence.l1_hits", "count"),
    ("coherence.l1_misses", "count"),
    ("coherence.l1_miss_rate", "ratio"),
    ("coherence.writes_bounced", "count"),
    ("coherence.bounce_retries", "count"),
    ("coherence.order_ops", "count"),
    ("coherence.cond_order_failures", "count"),
    ("coherence.bs_lines_per_wf", "lines"),
    ("coherence.bs_overflows", "count"),
    ("coherence.wee_demotions", "count"),
    ("coherence.remote_ps_stalls", "count"),
    ("noc.messages", "count"),
    ("noc.bytes", "bytes"),
    ("noc.retry_bytes", "bytes"),
    ("noc.msgs_per_kcycle", "1/kcycle"),
    ("workloads.commits", "count"),
    ("workloads.aborts", "count"),
    ("workloads.abort_ratio", "ratio"),
    ("workloads.install_ms", "ms"),
    ("explore.dpor.executed", "count"),
    ("explore.dpor.pruned", "count"),
    ("explore.dpor.classes", "count"),
    ("explore.dpor.shrink_runs", "count"),
    ("explore.dpor.prune_ratio", "ratio"),
    ("explore.dpor.us_per_run", "us"),
    ("explore.build_us", "us"),
    ("explore.observe_us", "us"),
    ("synth.search_s", "s"),
    ("synth.enumerated", "count"),
    ("synth.pruned", "count"),
    ("synth.oracle_rejected", "count"),
    ("synth.valid", "count"),
    ("synth.memo_hits", "count"),
    ("synth.runs", "count"),
    ("synth.valid_ratio", "ratio"),
    ("synth.slowest_cell_s", "s"),
    ("analyze.infer_ms", "ms"),
    ("analyze.search_s", "s"),
    ("analyze.lower_us", "us"),
    ("analyze.steps", "count"),
    ("analyze.critical_cycles", "count"),
    ("analyze.sites", "count"),
    ("trace.fence_overhead_pct", "%"),
    ("trace.span_overhead_pct", "%"),
];
