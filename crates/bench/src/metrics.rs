//! The deterministic metric set behind the CI bench-regression gate.
//!
//! Every metric is a pure function of the simulation (no wall-clock, no
//! host parallelism dependence), so the gate compares exactly. Which suites
//! contribute, under which key prefixes and in which order is the suite
//! table's business ([`crate::suites::TABLE`]); how each suite names its
//! values is that suite's (`gate_metrics()` next to its result struct in
//! `crates/core/src`). This module holds the sizes of the gate points and
//! the loop that runs them. `repro bench-json` dumps the result; the
//! `bench_gate` binary compares a fresh dump against the committed
//! `bench_baseline.json`.

use crate::suites::TABLE;

/// Gate repetitions: enough to exercise the repetition loop, small enough to
/// keep the CI gate fast.
pub const GATE_REPETITIONS: usize = 2;

/// The fleet size the gate pins (the acceptance point of the scaling suite).
pub const GATE_FLEET_CLIENTS: usize = 8;

/// The fleet size of the heterogeneous scenario. Slot `i` gets profile
/// `i % 3` and link `i % 4`, so 9 slots cover 9 of the 12 profile×link
/// pairs — every profile appears on three distinct links and every link
/// carries at least two profiles (the full matrix would need lcm(3,4)=12
/// slots; 9 keeps the CI gate fast).
pub const HETERO_CLIENTS: usize = 9;

/// The fleet size of the restore scenario: eight slots cycle through all
/// four link presets, so the four pullers (the last half) land one behind
/// each preset — every link class gets a `restore.*` goodput and TTFB
/// metric.
pub const RESTORE_CLIENTS: usize = 8;

/// The fleet size of the temporal schedule scenario: ten slots cycling
/// through three profiles and four links give ~60 connected rounds, enough
/// activation draws that a 0.7 probability reliably yields both synced and
/// idle rounds for the pinned seed.
pub const SCHEDULE_CLIENTS: usize = 10;

/// The population size of the fleet-scale gate point: four orders of
/// magnitude above the full-fidelity fleet (enough that the shared pool and
/// the concurrency peak are population-scale effects), small enough that
/// the gate collects in seconds. `repro fleet-scale` defaults to 100k.
pub const GATE_SCALE_CLIENTS: usize = 10_000;

/// Partitions of the partition-runner gate point. Eight-way matches the CI
/// partition-determinism leg's widest split; the merged suite is
/// bit-identical to the unsliced `fleetscale.*` run, so only the split's
/// own accounting (skew, merge overhead, sum-of-parts ratios) is gated
/// under `partition.*`.
pub const GATE_PARTITIONS: usize = 8;

/// Collects the gate metrics: every table row's gate point, in table
/// order. Deterministic for a given [`crate::REPRO_SEED`] — rerunning
/// produces bit-identical values.
pub fn collect() -> Vec<(String, f64)> {
    TABLE.iter().filter_map(|suite| suite.gate).flat_map(|gate| gate()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::Suite;
    use std::sync::OnceLock;

    type PerRow = Vec<(&'static Suite, Vec<(String, f64)>)>;

    /// One shared collection run, kept per table row: `collect` simulates
    /// every suite, so the assertions below share a single pass (plus one
    /// more for the determinism check) instead of re-simulating per test.
    fn per_row() -> &'static PerRow {
        static METRICS: OnceLock<PerRow> = OnceLock::new();
        METRICS.get_or_init(|| {
            TABLE.iter().filter_map(|suite| Some((suite, (suite.gate?)()))).collect()
        })
    }

    fn collected() -> Vec<(String, f64)> {
        per_row().iter().flat_map(|(_, metrics)| metrics.iter().cloned()).collect()
    }

    fn value(key: &str) -> f64 {
        collected().iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key} missing")).1
    }

    fn baseline() -> Vec<(String, f64)> {
        crate::gate::parse_flat(include_str!("../../../bench_baseline.json"))
            .expect("committed baseline parses")
    }

    #[test]
    fn metrics_are_deterministic_and_named_uniquely() {
        let a = collected();
        let b = collect();
        assert_eq!(a, b, "gate metrics must be bit-identical across runs");
        let names: std::collections::HashSet<&String> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names.len(), a.len(), "metric names must be unique");
        assert!(a.len() >= 10);
        for (key, value) in a.iter() {
            assert!(value.is_finite(), "{key} must be finite");
            assert!(*value > 0.0, "{key} must be positive, got {value}");
        }
    }

    /// The single-sourcing contract between the table, the collector and
    /// the committed baseline: a row emits keys under its own prefixes and
    /// nobody else's, uses every prefix it declares, and the collected key
    /// list is the baseline's, in order.
    #[test]
    fn every_key_belongs_to_one_row_in_baseline_order() {
        let owns = |suite: &Suite, key: &str| {
            suite.prefixes.iter().filter(|p| key.starts_with(&format!("{p}."))).count()
        };
        for (suite, metrics) in per_row() {
            for (key, _) in metrics {
                assert_eq!(owns(suite, key), 1, "{key} is not under one prefix of {}", suite.name);
                for other in TABLE.iter().filter(|other| other.name != suite.name) {
                    assert_eq!(owns(other, key), 0, "{key} also belongs to {}", other.name);
                }
            }
            for prefix in suite.prefixes {
                assert!(
                    metrics.iter().any(|(key, _)| key.starts_with(&format!("{prefix}."))),
                    "{} declares {prefix} but emits no such key",
                    suite.name
                );
            }
        }
        let keys = |metrics: &[(String, f64)]| -> Vec<String> {
            metrics.iter().map(|(key, _)| key.clone()).collect()
        };
        assert_eq!(keys(&collected()), keys(&baseline()), "collected keys != baseline keys");
    }

    #[test]
    fn partition_gate_point_restates_the_unsliced_run() {
        // The merged commits gate the same value as the unsliced run.
        assert_eq!(value("partition.commits").to_bits(), value("fleetscale.commits").to_bits());
        // The sum-of-parts ratios are exactly 1.0 — the merge invariants.
        for key in
            ["partition.commits_sum_ratio", "partition.bytes_sum_ratio", "partition.hist_p99_ratio"]
        {
            assert_eq!(value(key).to_bits(), 1.0f64.to_bits(), "{key} must be exactly 1.0");
        }
    }

    #[test]
    fn trace_gate_point_captures_the_fleet_scale_population() {
        // One flow (and one SYN) per commit: the capture accounts the same
        // population the fleet-scale gate point drives.
        assert_eq!(value("trace.flows").to_bits(), value("fleetscale.commits").to_bits());
        // The capture's overhead is a thin TCP-header margin over the
        // logical volume.
        let ratio = value("trace.overhead_ratio");
        assert!(ratio > 1.0 && ratio < 1.01, "trace.overhead_ratio {ratio} out of band");
    }

    #[test]
    fn latency_histograms_are_represented_in_the_gate() {
        let metrics = collected();
        for prefix in ["hist.sync", "hist.restore", "hist.backoff", "hist.scale_transfer"] {
            for suffix in [".count", ".p50_s", ".p90_s", ".p99_s"] {
                let key = format!("{prefix}{suffix}");
                assert!(metrics.iter().any(|(k, _)| k == &key), "{key} missing from the gate");
            }
        }
    }

    /// The acceptance proof of the scheduler refactor: a legacy-configured
    /// fleet (zero think time, zero jitter, activation 1.0 — what every
    /// pre-existing suite runs) must reproduce the *committed* baseline
    /// values byte-identically. The baseline file is the one the CI gate
    /// compares against, so any timeline drift fails here first.
    #[test]
    fn legacy_config_reproduces_the_committed_baseline_byte_identically() {
        let baseline = baseline();
        let current = collected();
        let legacy_prefixes = ["fig6.", "fleet8.", "hetero.", "gc.", "restore.", "schedule."];
        let mut compared = 0usize;
        for (key, base) in &baseline {
            if !legacy_prefixes.iter().any(|p| key.starts_with(p)) {
                continue;
            }
            let (_, cur) = current
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} dropped from the collector"));
            assert_eq!(
                cur.to_bits(),
                base.to_bits(),
                "{key}: collected {cur} != committed baseline {base} — the legacy \
                 (lock-step) timeline drifted"
            );
            compared += 1;
        }
        assert!(compared >= 49, "only {compared} legacy metrics compared — baseline truncated?");
    }
}
