//! The deterministic metric set behind the CI bench-regression gate.
//!
//! Every metric is a pure function of the simulation (no wall-clock, no
//! host parallelism dependence), so the gate compares exactly. Which suites
//! contribute, under which key prefixes and in which order is the suite
//! table's business ([`crate::suites::TABLE`]); how each suite names its
//! values is that suite's (`gate_metrics()` next to its result struct in
//! `crates/core/src`). This module holds the sizes of the gate points and
//! the loop that runs them, and the gate itself: a test that renders what
//! [`collect`] returns and compares it with the committed
//! `bench_baseline.json` byte for byte. `repro bench-json` writes the same
//! render, which is how the baseline is refreshed and what CI `diff`s.

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

    const BASELINE: &str = include_str!("../../../bench_baseline.json");

    /// Where two renders part: from the first line that differs, the next
    /// few lines of each side (key and value), or `None` for equal bytes.
    fn first_difference(baseline: &str, current: &str) -> Option<String> {
        if baseline == current {
            return None;
        }
        let (base, cur): (Vec<&str>, Vec<&str>) =
            (baseline.lines().collect(), current.lines().collect());
        let at =
            base.iter().zip(&cur).position(|(b, c)| b != c).unwrap_or(base.len().min(cur.len()));
        let from = |side: &[&str]| match side.get(at..at + 3).unwrap_or(&side[at..]) {
            [] => "(end of file)".to_string(),
            lines => lines.iter().map(|l| l.trim()).collect::<Vec<_>>().join("  "),
        };
        Some(format!("line {}\n  baseline: {}\n  current:  {}", at + 1, from(&base), from(&cur)))
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

    /// The single-sourcing contract between the table and the collector: a
    /// row emits keys under its own prefixes and nobody else's and uses
    /// every prefix it declares. The byte comparison below pins the
    /// collected keys to the baseline's, in order.
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

    /// The gate: the collected metrics, rendered as `repro bench-json`
    /// renders them, are the committed baseline byte for byte — every value
    /// bit for bit, the key set and the key order.
    #[test]
    fn gate_metrics_render_the_committed_baseline_byte_for_byte() {
        let current = crate::gate::render_flat(&collected());
        if let Some(difference) = first_difference(BASELINE, &current) {
            panic!(
                "the gate metrics differ from bench_baseline.json at {difference}\n\
                 refresh it with `repro bench-json bench_baseline.json` only for an \
                 intentional change"
            );
        }
    }

    /// What a failure of the gate prints for the three ways a render can
    /// drift: a value off by one ULP, two keys swapped, a key gone.
    #[test]
    fn a_baseline_difference_names_the_first_differing_keys_with_both_values() {
        let lines: Vec<&str> = BASELINE.lines().collect();
        let edited = |edit: &dyn Fn(&mut Vec<String>)| {
            let mut copy: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            edit(&mut copy);
            first_difference(BASELINE, &(copy.join("\n") + "\n")).expect("the edit shows")
        };
        let (first, second) = (lines[1].trim(), lines[2].trim());
        let (key, value) = first.trim_end_matches(',').split_once(": ").expect("a metric line");
        let value: f64 = value.parse().expect("a number");
        let nudged = f64::from_bits(value.to_bits() + 1);

        let report = edited(&|l| l[1] = format!("  {key}: {nudged},"));
        assert!(report.contains(&format!("baseline: {first}")), "{report}");
        assert!(report.contains(&format!("current:  {key}: {nudged},")), "{report}");
        let report = edited(&|l| l.swap(1, 2));
        assert!(report.contains(&format!("baseline: {first}  {second}")), "{report}");
        assert!(report.contains(&format!("current:  {second}  {first}")), "{report}");
        let report = edited(&|l| drop(l.remove(1)));
        assert!(report.starts_with("line 2\n"), "{report}");
        assert!(report.contains(&format!("current:  {second}")), "{report}");
        assert_eq!(first_difference(BASELINE, BASELINE), None);
    }
}
