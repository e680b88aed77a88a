//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! This table is the one place a name is spelled. `BENCHMARK.json` at the
//! repository root is its rendering (`perf manifest` prints it, a test
//! fails when the file drifts), the end-to-end record is built from
//! [`END_TO_END`], and the traced run must emit exactly [`per_layer`].

use crate::json::quote;
use crate::workloads::NAMES;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// The name, made of `[A-Za-z0-9_.-]`.
    pub name: String,
    /// The unit.
    pub unit: &'static str,
    /// The direction.
    pub better: Better,
}

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "perf/bench.sh"];

/// The `--seconds` the driver passes: the cap on one run's measuring time.
/// A run is a fixed count of iterations ([`crate::run::ITERATIONS`]), about
/// 15 s of measuring when this host is calm and 27 s in its slowest
/// episodes; the cap sits above both, so that the count ends a run and
/// not the clock.
pub const RUN_SECONDS: u64 = 30;

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        NAMES[0],
        "metadata-only store writes, event-engine waves and the parallel fan-out do all the work; pipeline, netsim TCP and real bytes do none",
    ),
    (
        NAMES[1],
        "the same store and engine driven as eight sub-heaps from a parsed capture plus per-worker packet shards; only this path has parser, slice/merge and recorder",
    ),
    (
        NAMES[2],
        "the paper's own experiments on real bytes: chunk/hash/LZSS/delta pipeline, planner, netsim connections and packet recording dominate; store and engine idle",
    ),
    (
        NAMES[3],
        "reads beside writes: restore, SHA-256 verification, payload reads, session/retry and the faulted client paths under seeded outages, then leavers and eager GC",
    ),
];

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which the metric may worsen before a change counts as
/// a regression.
///
/// The timing bounds sit at the contract's ceiling because this host's
/// speed drifts in episodes longer than a run: ten runs of one build, ten
/// seeds, spread over an interquartile 4–10 % of their median on `wall_s`
/// in a calm quarter of an hour and up to 24 % across an episode (README,
/// "The noise of this host"). A tighter bound would reject the build
/// against itself; the tenth the benchmark was meant to repeat within is
/// not met here, and `perf aa` reports that beside its verdict.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "ops/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.1),
];

use Better::{Higher, Lower};

/// Per-layer metrics that are the same whatever the workload.
const LAYERS: &[(&str, &str, Better)] = &[
    ("workload.generate_text_mb_per_s", "MB/s", Higher),
    ("workload.generate_random_mb_per_s", "MB/s", Higher),
    ("workload.generate_jpeg_mb_per_s", "MB/s", Higher),
    ("workload.batch_small_files_per_s", "files/s", Higher),
    ("workload.mutate_mb_per_s", "MB/s", Higher),
    ("storage.chunker_cdc_mb_per_s", "MB/s", Higher),
    ("storage.hash_sha256_mb_per_s", "MB/s", Higher),
    ("storage.compress_lzss_text_mb_per_s", "MB/s", Higher),
    ("storage.compress_lzss_random_mb_per_s", "MB/s", Higher),
    ("storage.delta_signature_mb_per_s", "MB/s", Higher),
    ("storage.delta_compute_mb_per_s", "MB/s", Higher),
    ("storage.encrypt_mb_per_s", "MB/s", Higher),
    ("storage.pipeline_seq_mb_per_s", "MB/s", Higher),
    ("storage.pipeline_par_mb_per_s", "MB/s", Higher),
    ("storage.pipeline_small_files_per_s", "files/s", Higher),
    ("storage.compress_lzss_decode_mb_per_s", "MB/s", Higher),
    ("storage.restore_batch_mb_per_s", "MB/s", Higher),
    ("storage.store_put_chunk_ops_per_s_1t", "ops/s", Higher),
    ("storage.store_put_chunk_ops_per_s_nt", "ops/s", Higher),
    ("storage.store_commit_manifest_ops_per_s_1t", "ops/s", Higher),
    ("storage.store_commit_manifest_ops_per_s_nt", "ops/s", Higher),
    ("storage.store_aggregate_users_per_s", "users/s", Higher),
    ("storage.store_dedup_hit_share", "share", Higher),
    ("storage.store_drop_users_per_s", "users/s", Higher),
    ("storage.store_rss_bytes_per_user", "B/user", Lower),
    ("storage.store_put_payload_mb_per_s", "MB/s", Higher),
    ("storage.store_read_ops_per_s", "ops/s", Higher),
    ("storage.store_purge_gc_chunks_per_s", "chunks/s", Higher),
    ("netsim.tcp_open_per_s", "1/s", Higher),
    ("netsim.tcp_upload_1mb_per_s", "1/s", Higher),
    ("netsim.tcp_request_10kb_per_s", "1/s", Higher),
    ("netsim.packets_per_mb", "count", Lower),
    ("netsim.tcp_fetch_1mb_per_s", "1/s", Higher),
    ("netsim.tcp_send_faulted_per_s", "1/s", Higher),
    ("netsim.fault_schedule_generate_per_s", "1/s", Higher),
    ("trace.record_pkts_per_s", "pkts/s", Higher),
    ("trace.finish_merge_pkts_per_s_1shard", "pkts/s", Higher),
    ("trace.finish_merge_pkts_per_s_nshard", "pkts/s", Higher),
    ("trace.flow_table_pkts_per_s", "pkts/s", Higher),
    ("trace.series_points_per_s", "points/s", Higher),
    ("trace.hist_record_per_s", "1/s", Higher),
    ("trace.concurrency_peak_intervals_per_s", "intervals/s", Higher),
    ("parallel.run_indexed_wave_us", "us", Lower),
    ("parallel.run_with_contexts_wave_us", "us", Lower),
    ("services.engine_heap_build_events_per_s", "events/s", Higher),
    ("services.engine_next_wave_events_per_s", "events/s", Higher),
    ("services.engine_waves", "count", Lower),
    ("services.engine_mean_wave_len", "count", Higher),
    ("services.scale_events_gen_per_s", "events/s", Higher),
    ("services.scale_run_1w_commits_per_s", "commits/s", Higher),
    ("services.scale_run_nw_commits_per_s", "commits/s", Higher),
    ("services.scale_nw_speedup", "ratio", Higher),
    ("services.scale_traced_commits_per_s", "commits/s", Higher),
    ("services.scale_trace_cost_share", "share", Lower),
    ("services.scale_summary_s", "s", Lower),
    ("services.scale_cost_ratio_25k_to_100k", "ratio", Lower),
    ("services.scale_cost_ratio_100k_to_400k", "ratio", Lower),
    ("services.capture_lower_events_per_s", "events/s", Higher),
    ("services.capture_render_mb_per_s", "MB/s", Higher),
    ("services.capture_parse_mb_per_s", "MB/s", Higher),
    ("services.capture_slice_merge_events_per_s", "events/s", Higher),
    ("services.capture_replay_commits_per_s", "commits/s", Higher),
    ("services.partition_run_commits_per_s", "commits/s", Higher),
    ("services.partition_merge_s", "s", Lower),
    ("services.client_login_per_s", "1/s", Higher),
    ("services.client_sync_bundled_files_per_s", "files/s", Higher),
    ("services.client_sync_per_file_files_per_s", "files/s", Higher),
    ("services.client_sync_1mb_mb_per_s", "MB/s", Higher),
    ("services.planner_plan_batch_files_per_s", "files/s", Higher),
    ("services.client_sync_faulted_none_files_per_s", "files/s", Higher),
    ("services.client_restore_files_per_s", "files/s", Higher),
    ("services.planner_plan_restore_files_per_s", "files/s", Higher),
    ("services.fleet_run_1w_files_per_s", "files/s", Higher),
    ("services.fleet_run_nw_files_per_s", "files/s", Higher),
    ("services.fleet_nw_speedup", "ratio", Higher),
    ("services.schedule_generate_events_per_s", "events/s", Higher),
    ("geo.discover_all_s", "s", Lower),
    ("core.full_suite_s", "s", Lower),
    ("core.report_json_mb_per_s", "MB/s", Higher),
    ("bench.gate_collect_s", "s", Lower),
    ("bench.parse_flat_metrics_per_s", "metrics/s", Higher),
    ("decomp.scale.events_share", "share", Lower),
    ("decomp.scale.engine_share", "share", Lower),
    ("decomp.scale.store_share", "share", Lower),
    ("decomp.scale.parallel_share", "share", Lower),
    ("decomp.scale.summary_share", "share", Lower),
    ("decomp.scale.unattributed_share", "share", Lower),
    ("decomp.replay.parse_share", "share", Lower),
    ("decomp.replay.run_share", "share", Lower),
    ("decomp.replay.merge_share", "share", Lower),
    ("decomp.replay.traced_share", "share", Lower),
    ("decomp.paper.fig4_share", "share", Lower),
    ("decomp.paper.fig5_share", "share", Lower),
    ("decomp.paper.suite_share", "share", Lower),
];

/// Per-workload process metrics `proc.<workload>.<suffix>`.
const PROC: [(&str, &str); 5] = [
    ("user_s", "s"),
    ("sys_s", "s"),
    ("minor_faults", "count"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
];

/// Traced time over untraced time minus one, worst workload.
pub const SPAN_OVERHEAD: &str = "harness.span_overhead_share";

/// The name of a per-workload process metric.
pub fn proc_metric(workload: &str, suffix: &str) -> String {
    format!("proc.{workload}.{suffix}")
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = LAYERS
        .iter()
        .map(|&(name, unit, better)| MetricDef { name: name.to_string(), unit, better })
        .collect();
    for workload in NAMES {
        for (suffix, unit) in PROC {
            defs.push(MetricDef { name: proc_metric(workload, suffix), unit, better: Lower });
        }
    }
    defs.push(MetricDef { name: SPAN_OVERHEAD.to_string(), unit: "share", better: Lower });
    defs
}

/// Whether `name` is made of `[A-Za-z0-9_.-]`, starts with a letter or a
/// digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                    quote(name),
                    quote(unit),
                    quote(better.word())
                )
            })
            .collect(),
    );
    let layers = list(
        per_layer()
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(&d.name),
                    quote(d.unit),
                    quote(d.better.word())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {layers}\n  ]\n}}\n",
        command.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_issue_names_115_per_layer_metrics_and_every_name_is_well_formed() {
        let defs = per_layer();
        assert_eq!(defs.len(), 115);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|e| e.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in &defs {
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.unit);
        }
        assert!(!valid_name("has space") && !valid_name(".dot") && !valid_name("a/b"));
    }

    #[test]
    fn bounds_and_whys_stay_within_the_contract() {
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let setup = END_TO_END.iter().find(|e| e.0 == "setup_s").expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        for e in END_TO_END {
            assert!(e.3 > 0.0 && e.3 <= 0.25 && e.3 <= setup.3, "{} bound {}", e.0, e.3);
        }
    }
}
