//! `bench_gate` — the CI bench-regression gate.
//!
//! Usage:
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--subset] [--markdown PATH]
//! ```
//!
//! Both files are flat `{"metric": number, …}` objects as produced by
//! `repro bench-json`. Every gate metric is deterministic, so the gate
//! compares exactly: each baseline metric must be present in the current
//! run with a bit-identical value, and a current metric with no baseline
//! entry fails too (it would otherwise pass forever by never being
//! compared — every new metric lands together with its baseline entry).
//! Exits 0 on pass, 1 on any difference, 2 on usage errors.
//!
//! `--subset` scopes the comparison to the baseline keys the current file
//! actually contains, instead of failing the absent ones as MISSING. This
//! is the mode for partial dumps: the CI replay-gate leg compares `repro
//! replay --metrics` (fleet-scale keys only) against the full committed
//! baseline, proving the replayed capture reproduces the gated values
//! exactly.
//!
//! `--markdown PATH` additionally *appends* the comparison as a markdown
//! table to PATH — pass `$GITHUB_STEP_SUMMARY` in CI so regressions are
//! readable on the run page without downloading the metrics artifact. The
//! summary is written before the pass/fail exit, so failing runs get one
//! too.
//!
//! Refresh the committed baseline after an intentional simulator change:
//!
//! ```text
//! cargo run --release -p cloudbench-bench --bin repro -- bench-json bench_baseline.json
//! ```

use cloudbench_bench::cli::{bad_input, die_usage, has_flag, load_input, parse_path};
use cloudbench_bench::gate::{compare, compare_subset, parse_flat};

const USAGE: &str = "usage: bench_gate <baseline.json> <current.json> [--subset] [--markdown PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let subset = has_flag(&args, "--subset");
    let markdown_path = parse_path(&args, "--markdown", USAGE);
    // What is neither a flag nor the markdown path is a metric file; any
    // other flag leaves the wrong number of them.
    let files: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--subset" && *a != "--markdown" && Some(*a) != markdown_path)
        .collect();
    let [baseline_path, current_path] = files.as_slice() else {
        die_usage("bench_gate compares exactly two metric files", USAGE);
    };

    let baseline = load_input(baseline_path, parse_flat);
    let current = load_input(current_path, parse_flat);
    let comparison = if subset { compare_subset } else { compare };
    let report = comparison(&baseline, &current);
    print!("{}", report.render());
    if let Some(path) = markdown_path {
        // Append (the CI step summary may already hold earlier sections);
        // written before the exit below so failing runs get a summary too.
        use std::io::Write as _;
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(report.render_markdown().as_bytes()));
        if let Err(e) = result {
            bad_input(&format!("cannot append markdown summary to {path}: {e}"));
        }
    }
    if !report.passed() {
        println!("bench gate: FAIL — refresh bench_baseline.json only for intentional changes");
        let unregistered = report.unregistered();
        if !unregistered.is_empty() {
            println!(
                "{} metric(s) have no baseline entry and would never be compared: {}",
                unregistered.len(),
                unregistered.join(", ")
            );
            println!("register them by refreshing bench_baseline.json in the same change");
        }
        std::process::exit(1);
    }
    println!(
        "bench gate: PASS ({} metrics identical to the baseline{})",
        report.rows.len(),
        if subset { ", subset of the baseline" } else { "" }
    );
}
