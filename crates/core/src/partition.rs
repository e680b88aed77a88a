//! Partitioned fleet-scale suite: the population split across N workers,
//! merged back and checked against the unsliced run.
//!
//! The partition runner ([`cloudsim_services::partition`]) promises that a
//! worker-sharded run is *bit-identical* to the unsliced one: busy-chaining
//! is per-client, store aggregates commute, interval and histogram merges
//! are order-independent. This suite makes that promise observable. The
//! merged run assembles into the exact same [`FleetScaleSuite`] as
//! [`crate::scale::run_fleet_scale`] (the `repro partition --json` dump is
//! byte-identical across `--partitions 1..=8` and against
//! `repro fleet-scale --json`, which the CI partition-determinism leg
//! `cmp`s), while the per-partition rows and the `partition.*` gate
//! metrics report what the split itself cost:
//!
//! * **commit skew** — max/mean per-partition commits, how unevenly the
//!   split landed;
//! * **finish skew** — the spread of per-partition finish instants;
//! * **merge overhead** — per-partition wave totals against the merged
//!   stream's wave count (sub-heaps fragment less, so the ratio is ≥ 1);
//! * **sum-of-parts ratios** — Σ parts / merged for commits, bytes, the
//!   p99 of the elementwise-merged histograms and the load-curve overlap,
//!   all of which the merge invariants pin to exactly 1.0.

use crate::report::{gate_keys, Report};
use crate::scale::{assemble_suite, scale_spec, FleetScaleSuite, LOAD_CURVE_BUCKETS};
use cloudsim_services::capture::FleetCapture;
use cloudsim_services::partition::{replay_partitioned, run_partitioned, PartitionedRun};
use cloudsim_services::scale::ScaleSpec;
use cloudsim_trace::{series, LatencyHistogram, SimTime};
use serde::Serialize;
use std::fmt::Write as _;

/// One partition's share of the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PartitionRow {
    /// The partition's index.
    pub index: usize,
    /// Clients the partition owned.
    pub clients: usize,
    /// Commits the partition performed.
    pub commits: u64,
    /// Waves the partition's sub-heap split into.
    pub waves: usize,
    /// Start of the partition's earliest transfer, in virtual seconds.
    pub first_start_s: f64,
    /// End of the partition's latest transfer, in virtual seconds.
    pub last_end_s: f64,
}

/// The partitioned fleet-scale suite: the merged run (identical to the
/// unsliced [`FleetScaleSuite`]) plus what the split cost.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PartitionSuite {
    /// Partitions the population was split into.
    pub partitions: usize,
    /// The merged run — bit-identical to the unsliced suite, and the only
    /// part `repro partition --json` dumps (so dumps `cmp` equal across
    /// partition counts).
    pub merged: FleetScaleSuite,
    /// Per-partition rows, in partition order.
    pub rows: Vec<PartitionRow>,
    /// Max/mean per-partition commits (1.0 = perfectly even).
    pub commit_skew: f64,
    /// Spread of per-partition finish instants, in virtual seconds.
    pub finish_skew_s: f64,
    /// Σ per-partition waves / merged wave count (≥ 1: sub-heaps fragment
    /// less than the interleaved global stream).
    pub merge_overhead: f64,
    /// Σ per-partition commits / merged commits — exactly 1.0 by the
    /// disjoint-coverage invariant.
    pub commits_sum_ratio: f64,
    /// Σ per-partition logical bytes / merged logical bytes — exactly 1.0.
    pub bytes_sum_ratio: f64,
    /// p99 of the elementwise-merged per-partition histograms over the
    /// merged run's p99 — exactly 1.0 (histogram merge is elementwise).
    pub hist_p99_ratio: f64,
    /// Load-curve overlap between the summed per-partition curves and the
    /// merged curve (Σ min / Σ max over buckets) — exactly 1.0.
    pub curve_overlap: f64,
}

impl PartitionSuite {
    /// Renders the partitioned run's split accounting: one row per
    /// partition plus the skew/overhead figures. The merged population
    /// itself renders through [`FleetScaleSuite::report`] — bit-identical to
    /// the unsliced run, which is the whole point.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients across {} partitions (shared store, per-partition sub-heaps)",
            self.merged.clients, self.partitions,
        );
        let _ = writeln!(
            body,
            "\n{:>4} {:>9} {:>9} {:>7} {:>13} {:>13}",
            "part", "clients", "commits", "waves", "first start s", "last end s"
        );
        for row in &self.rows {
            let _ = writeln!(
                body,
                "{:>4} {:>9} {:>9} {:>7} {:>13.2} {:>13.2}",
                row.index, row.clients, row.commits, row.waves, row.first_start_s, row.last_end_s,
            );
        }
        let _ = writeln!(
            body,
            "\ncommit skew {:.4} (max/mean), finish skew {:.2}s, merge overhead {:.4} (part waves / merged waves)",
            self.commit_skew, self.finish_skew_s, self.merge_overhead,
        );
        let _ = writeln!(
            body,
            "sum-of-parts checks: commits {:.1}, bytes {:.1}, hist p99 {:.1}, load-curve overlap {:.1} (all exactly 1 by the merge invariants)",
            self.commits_sum_ratio, self.bytes_sum_ratio, self.hist_p99_ratio, self.curve_overlap,
        );
        Report {
            title: "Partitioned fleet: worker-sharded clients merged bit-identically".to_string(),
            body,
        }
    }

    /// The suite's gate metrics. The merged run reproduces the
    /// `fleetscale.*` values bit for bit, so the gate pins the split's own
    /// accounting. The sum-of-parts ratios are exactly 1.0 by the merge
    /// invariants — gating them means any future merge bug trips the gate
    /// immediately.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        gate_keys(
            "partition",
            &[
                ("partitions", self.partitions as f64),
                ("commits", self.merged.commits as f64),
                ("commit_skew", self.commit_skew),
                ("finish_skew_s", self.finish_skew_s),
                ("merge_overhead", self.merge_overhead),
                ("commits_sum_ratio", self.commits_sum_ratio),
                ("bytes_sum_ratio", self.bytes_sum_ratio),
                ("hist_p99_ratio", self.hist_p99_ratio),
                ("curve_overlap", self.curve_overlap),
            ],
        )
    }
}

/// Assembles the suite from a finished partitioned run — the same
/// [`assemble_suite`] path as the unsliced suite for the merged half, so
/// every derived field reproduces bit for bit.
fn assemble_partition_suite(
    commits_per_client: usize,
    files_per_commit: usize,
    file_size: u64,
    horizon: cloudsim_trace::SimDuration,
    outcome: &PartitionedRun,
) -> PartitionSuite {
    let merged =
        assemble_suite(commits_per_client, files_per_commit, file_size, horizon, &outcome.run);
    let parts = &outcome.parts;
    let k = parts.len().max(1) as f64;

    let rows: Vec<PartitionRow> = parts
        .iter()
        .map(|p| PartitionRow {
            index: p.index,
            clients: p.clients.len(),
            commits: p.commits,
            waves: p.waves,
            first_start_s: p.first_start().as_secs_f64(),
            last_end_s: p.last_end().as_secs_f64(),
        })
        .collect();

    let max_commits = parts.iter().map(|p| p.commits).max().unwrap_or(0) as f64;
    let mean_commits = outcome.run.commits as f64 / k;
    let commit_skew = if mean_commits > 0.0 { max_commits / mean_commits } else { 1.0 };

    let last_ends: Vec<SimTime> = parts.iter().map(|p| p.last_end()).collect();
    let finish_skew_s = match (last_ends.iter().max(), last_ends.iter().min()) {
        (Some(&max), Some(&min)) => (max - min).as_secs_f64(),
        _ => 0.0,
    };

    let part_waves: usize = parts.iter().map(|p| p.waves).sum();
    let merge_overhead = if outcome.merged_waves > 0 {
        part_waves as f64 / outcome.merged_waves as f64
    } else {
        1.0
    };

    let part_commits: u64 = parts.iter().map(|p| p.commits).sum();
    let commits_sum_ratio = if outcome.run.commits > 0 {
        part_commits as f64 / outcome.run.commits as f64
    } else {
        1.0
    };
    let part_bytes: u64 = parts.iter().map(|p| p.logical_bytes).sum();
    let bytes_sum_ratio = if outcome.run.logical_bytes > 0 {
        part_bytes as f64 / outcome.run.logical_bytes as f64
    } else {
        1.0
    };

    let mut merged_hists = LatencyHistogram::new();
    for part in parts {
        merged_hists.merge(&part.transfer_histogram());
    }
    let whole_p99 = merged.transfer_hist.p99_s;
    let hist_p99_ratio =
        if whole_p99 > 0.0 { merged_hists.summary().p99_s / whole_p99 } else { 1.0 };

    let first = outcome.run.first_start();
    let span_s = outcome.run.virtual_span_secs();
    let mut summed = [0u64; LOAD_CURVE_BUCKETS];
    for part in parts {
        // The merged run's own `(first, span_s)`, so the parts' curves sum
        // elementwise to `ScaleRun::load_curve`'s.
        let curve = series::start_curve(&part.intervals, first, span_s, LOAD_CURVE_BUCKETS);
        for (b, count) in curve.into_iter().enumerate() {
            summed[b] += count;
        }
    }
    let (mut mins, mut maxs) = (0u64, 0u64);
    for (b, &merged_count) in merged.load_curve.iter().enumerate() {
        mins += summed[b].min(merged_count);
        maxs += summed[b].max(merged_count);
    }
    let curve_overlap = if maxs > 0 { mins as f64 / maxs as f64 } else { 1.0 };

    PartitionSuite {
        partitions: parts.len(),
        merged,
        rows,
        commit_skew,
        finish_skew_s,
        merge_overhead,
        commits_sum_ratio,
        bytes_sum_ratio,
        hist_p99_ratio,
        curve_overlap,
    }
}

/// Runs the canonical fleet-scale population split into `partitions`
/// round-robin stripes and assembles the suite. The merged half is
/// bit-identical to [`crate::scale::run_fleet_scale`] on the same
/// `(clients, seed)`, whatever the partition count.
pub fn run_partition_suite(clients: usize, partitions: usize, seed: u64) -> PartitionSuite {
    let spec = scale_spec(clients, seed);
    let outcome = run_partitioned(&spec, partitions);
    assemble_partition_suite(
        spec.commits_per_client,
        spec.files_per_commit,
        spec.file_size,
        ScaleSpec::HORIZON,
        &outcome,
    )
}

/// Replays a capture split into `partitions` contiguous slices and
/// assembles the suite. For a spec-derived capture the merged half is
/// bit-identical to the live partitioned run *and* to the unsliced replay.
pub fn replay_partition_suite(
    capture: &FleetCapture,
    partitions: usize,
) -> Result<PartitionSuite, String> {
    let outcome = replay_partitioned(capture, partitions)?;
    Ok(assemble_partition_suite(
        capture.commits_per_client,
        capture.files_per_commit,
        capture.file_size,
        capture.horizon,
        &outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::scale::run_fleet_scale;
    use cloudsim_services::capture::capture_of_spec;
    use std::sync::OnceLock;

    /// The gate-scale pair — one unsliced run and one 8-way partitioned run
    /// at 10k clients — computed once and shared by the `to_bits`
    /// assertions below (each run is seconds of debug time).
    fn gate_pair() -> &'static (FleetScaleSuite, PartitionSuite) {
        static PAIR: OnceLock<(FleetScaleSuite, PartitionSuite)> = OnceLock::new();
        PAIR.get_or_init(|| {
            (run_fleet_scale(10_000, 0x5CA1E), run_partition_suite(10_000, 8, 0x5CA1E))
        })
    }

    #[test]
    fn partitioned_gate_run_matches_the_unsliced_suite_bit_for_bit() {
        let (whole, split) = gate_pair();
        let merged = &split.merged;
        assert_eq!(merged.clients, whole.clients);
        assert_eq!(merged.commits, whole.commits);
        assert_eq!(merged.files, whole.files);
        assert_eq!(merged.load_curve, whole.load_curve);
        assert_eq!(merged.concurrency_peak, whole.concurrency_peak);
        // Busy-chaining, store aggregates and histogram merge must all
        // reproduce to the bit — the tentpole's three invariants.
        for (a, b) in [
            (merged.logical_mb, whole.logical_mb),
            (merged.physical_mb, whole.physical_mb),
            (merged.dedup_ratio, whole.dedup_ratio),
            (merged.virtual_span_s, whole.virtual_span_s),
            (merged.commits_per_vsec, whole.commits_per_vsec),
            (merged.transfer_hist.p50_s, whole.transfer_hist.p50_s),
            (merged.transfer_hist.p90_s, whole.transfer_hist.p90_s),
            (merged.transfer_hist.p99_s, whole.transfer_hist.p99_s),
            (merged.transfer_hist.p999_s, whole.transfer_hist.p999_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "partitioned {a} != unsliced {b}");
        }
        // The serialised dumps are byte-identical — what CI `cmp`s.
        assert_eq!(Report::to_json(merged), Report::to_json(whole));
        // The sum-of-parts invariants hold exactly, not approximately.
        assert_eq!(split.commits_sum_ratio.to_bits(), 1.0f64.to_bits());
        assert_eq!(split.bytes_sum_ratio.to_bits(), 1.0f64.to_bits());
        assert_eq!(split.hist_p99_ratio.to_bits(), 1.0f64.to_bits());
        assert_eq!(split.curve_overlap.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn partition_rows_account_for_the_whole_population() {
        let (_, split) = gate_pair();
        assert_eq!(split.partitions, 8);
        assert_eq!(split.rows.len(), 8);
        assert_eq!(split.rows.iter().map(|r| r.clients).sum::<usize>(), 10_000);
        assert_eq!(split.rows.iter().map(|r| r.commits).sum::<u64>(), split.merged.commits);
        assert!(split.commit_skew >= 1.0);
        assert!(split.finish_skew_s >= 0.0);
        assert!(split.merge_overhead >= 1.0, "sub-heaps cannot fragment more than the merge");
    }

    #[test]
    fn partition_count_is_invisible_in_the_merged_dump() {
        let whole = run_fleet_scale(400, 0x5CA1E);
        for partitions in [1usize, 3, 8] {
            let split = run_partition_suite(400, partitions, 0x5CA1E);
            assert_eq!(
                Report::to_json(&split.merged),
                Report::to_json(&whole),
                "partitions={partitions}"
            );
        }
    }

    #[test]
    fn sliced_capture_replay_recombines_to_the_live_dump() {
        let spec = scale_spec(300, 0x5CA1E);
        let capture = capture_of_spec(&spec);
        let live = run_fleet_scale(300, 0x5CA1E);
        let replayed = replay_partition_suite(&capture, 5).expect("capture tiles");
        assert_eq!(Report::to_json(&replayed.merged), Report::to_json(&live));
        assert_eq!(replayed.partitions, 5);
        // Contiguous slices cut near-equal ranges: 5 x 60 clients.
        assert!(replayed.rows.iter().all(|r| r.clients == 60));
        assert!(replay_partition_suite(&capture, 301).is_err());
    }
}
