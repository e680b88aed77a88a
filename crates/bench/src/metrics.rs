//! The deterministic metric set behind the CI bench-regression gate, and
//! the golden files of the runs that produce it.
//!
//! Every metric is a pure function of the simulation (no wall-clock, no
//! host parallelism dependence), so the gate compares exactly. Which suites
//! contribute, at which arguments, under which key prefixes and in which
//! order is the suite table's business ([`crate::suites::TABLE`]); how each
//! suite names its values is that suite's (`gate_metrics()` next to its
//! result struct in `crates/core/src`). This module holds [`collect`], the
//! loop that runs each gated row once at its gate arguments, and the tests
//! that hold those runs to what is committed: their metrics, rendered as
//! `repro bench-json` renders them, to `bench_baseline.json`, and their
//! text and dumps to `crates/bench/tests/golden/<name>.{txt,json}`, byte
//! for byte. `repro bench-json` writes the same render, which is how the
//! baseline is refreshed and what CI `diff`s.

use crate::suites::TABLE;

/// Collects the gate metrics: every gated row run once at its gate
/// arguments, in table order. Deterministic for a given
/// [`crate::REPRO_SEED`] — rerunning produces bit-identical values.
pub fn collect() -> Vec<(String, f64)> {
    TABLE.iter().filter_map(|suite| suite.gate_run()).flat_map(|run| run.metrics).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{Output, Suite};
    use std::sync::OnceLock;

    type PerRow = Vec<(&'static Suite, Output)>;

    /// One run of each gated row at its gate arguments: `collect`'s runs,
    /// kept per row, so that the metrics, text and dump assertions below
    /// share a single pass instead of re-simulating per test.
    fn per_row() -> &'static PerRow {
        static RUNS: OnceLock<PerRow> = OnceLock::new();
        RUNS.get_or_init(|| TABLE.iter().filter_map(|s| Some((s, s.gate_run()?))).collect())
    }

    fn collected() -> Vec<(String, f64)> {
        per_row().iter().flat_map(|(_, run)| run.metrics.iter().cloned()).collect()
    }

    fn value(key: &str) -> f64 {
        collected().iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key} missing")).1
    }

    const BASELINE: &str = include_str!("../../../bench_baseline.json");

    /// The index of the first line where two texts part (the shorter
    /// text's length if one is a prefix of the other), or `None` for equal
    /// bytes.
    fn first_differing_line(baseline: &str, current: &str) -> Option<usize> {
        if baseline == current {
            return None;
        }
        let shorter = baseline.lines().count().min(current.lines().count());
        Some(baseline.lines().zip(current.lines()).position(|(b, c)| b != c).unwrap_or(shorter))
    }

    /// Where two renders part: from the first line that differs, the next
    /// few lines of each side (key and value), or `None` for equal bytes.
    fn first_difference(baseline: &str, current: &str) -> Option<String> {
        let at = first_differing_line(baseline, current)?;
        let (base, cur): (Vec<&str>, Vec<&str>) =
            (baseline.lines().collect(), current.lines().collect());
        let from = |side: &[&str]| match side.get(at..at + 3).unwrap_or(&side[at..]) {
            [] => "(end of file)".to_string(),
            lines => lines.iter().map(|l| l.trim()).collect::<Vec<_>>().join("  "),
        };
        Some(format!("line {}\n  baseline: {}\n  current:  {}", at + 1, from(&base), from(&cur)))
    }

    const GOLDEN: &str = "crates/bench/tests/golden";

    /// The committed golden file `file`; empty if there is none yet.
    fn golden(file: &str) -> String {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).unwrap_or_default()
    }

    /// Where the golden file `file` differs from what a run printed: the
    /// file, the first differing line of each side, whitespace shown, and
    /// the `repro` command (`args`, output redirected) that rewrites the
    /// file. `None` for equal bytes.
    fn golden_difference(file: &str, current: &str, args: &str) -> Option<String> {
        let golden = golden(file);
        let at = first_differing_line(&golden, current)?;
        let line =
            |text: &str| text.lines().nth(at).map_or("(end of file)".into(), |l| format!("{l:?}"));
        Some(format!(
            "{GOLDEN}/{file} differs at line {}\n  golden:  {}\n  current: {}\n  \
             rewrite it with `cargo run -q --release -p cloudbench-bench --bin repro -- {args} > {GOLDEN}/{file}`",
            at + 1,
            line(&golden),
            line(current)
        ))
    }

    /// The goldens: each gated row's one run prints, byte for byte, what
    /// `repro <name> <gate>` writes to stdout (`<name>.txt`) and, for a row
    /// with a `--json` dump, what `--json -` streams (`<name>.json`).
    /// `partition`'s dump is checked against `fleet-scale`'s golden below.
    #[test]
    fn gate_runs_print_their_golden_files_byte_for_byte() {
        let mut differences = Vec::new();
        for (suite, run) in per_row() {
            let args = format!("{} {}", suite.name, suite.gate.unwrap_or_default());
            let args = args.trim_end();
            let text = golden_difference(&format!("{}.txt", suite.name), &run.render_text(), args);
            differences.extend(text);
            for dump in run.dumps.iter().filter(|_| suite.name != "partition") {
                let file = format!("{}.{}", suite.name, dump.flag.trim_start_matches('-'));
                let rewrite = format!("{args} {} -", dump.flag);
                differences.extend(golden_difference(&file, &dump.payload, &rewrite));
            }
        }
        assert!(differences.is_empty(), "{}", differences.join("\n"));
    }

    /// `partition`'s merged dump is the unsliced run's: the bytes of
    /// `fleet-scale`'s golden dump.
    #[test]
    fn the_partition_dump_is_the_fleet_scale_golden() {
        let (_, run) = per_row().iter().find(|(s, _)| s.name == "partition").expect("gated");
        let dumps: Vec<&str> = run.dumps.iter().map(|d| d.payload.as_str()).collect();
        let golden = golden("fleet-scale.json");
        assert!(dumps == [golden.as_str()], "partition's dump is not {GOLDEN}/fleet-scale.json");
    }

    #[test]
    fn gate_metrics_are_named_uniquely_finite_and_positive() {
        let a = collected();
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
        for (suite, run) in per_row() {
            let metrics = &run.metrics;
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
