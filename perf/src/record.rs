//! The records the harness prints and the result files it writes.

use crate::json::{quote, Value};
use crate::layers::Row;
use crate::manifest::{self, END_TO_END};
use crate::run::RunResult;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// The four end-to-end values of a run, in [`END_TO_END`] order.
pub fn end_to_end_values(result: &RunResult) -> [f64; 4] {
    [result.setup_s(), result.wall_s(), result.ops_per_s(), result.peak_rss_mb]
}

fn metrics_object(entries: impl Iterator<Item = (String, f64, &'static str)>) -> String {
    let body: Vec<String> = entries
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(&name), quote(unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn record(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}")
}

/// The one-line record of an end-to-end run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being every
/// end-to-end metric with all the digits measured.
pub fn end_to_end_record(result: &RunResult) -> String {
    let values = end_to_end_values(result);
    let metrics = metrics_object(
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), value)| (name.to_string(), value, *unit)),
    );
    record(result.correct(), result.attempted, result.failed, &metrics)
}

/// The one-line record of a traced run: every per-layer metric.
pub fn per_layer_record(rows: &BTreeMap<String, Row>, attempted: u64) -> String {
    let metrics = metrics_object(
        manifest::per_layer()
            .into_iter()
            .map(|def| (def.name.clone(), rows[&def.name].value, def.unit)),
    );
    record(true, attempted, 0, &metrics)
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

/// A run as it is stored in a result file: the end-to-end values plus the
/// per-iteration five-number summaries behind the two timings.
pub fn run_json(result: &RunResult) -> String {
    let values = end_to_end_values(result);
    let metrics: Vec<String> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, ..), v)| format!("{}: {v}", quote(name)))
        .collect();
    let samples = |f: fn(&crate::run::Sample) -> f64| {
        result.samples.iter().map(|s| f(s).to_string()).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"ops\": {}, \"digest\": \"{:#018x}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"setup\": {}, \"wall\": {}, \"setup_samples\": [{}], \"wall_samples\": [{}]}}",
        quote(&result.workload),
        result.seed,
        result.ops,
        result.digest,
        result.attempted,
        result.failed,
        metrics.join(", "),
        summary_json(&result.setup()),
        summary_json(&result.wall()),
        samples(|s| s.setup_s),
        samples(|s| s.wall_s),
    )
}

/// The traced run's detail file: each row with its repetition count and
/// spread.
pub fn layers_json(rows: &BTreeMap<String, Row>) -> String {
    let body: Vec<String> = manifest::per_layer()
        .iter()
        .map(|def| {
            let row = rows[&def.name];
            format!(
                "  {}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"spread\": {}}}",
                quote(&def.name),
                row.value,
                quote(def.unit),
                row.n,
                row.spread
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// End-to-end values keyed by workload, then by metric.
pub type RunsByWorkload = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Adds the end-to-end values of stored `runs` to `out`.
pub fn collect_runs(runs: &[Value], out: &mut RunsByWorkload) -> Result<(), String> {
    for run in runs {
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("a run has no \"workload\"")?;
        let metrics =
            run.get("metrics").and_then(Value::as_object).ok_or("a run has no \"metrics\"")?;
        for (name, value) in metrics {
            let v = value.as_f64().ok_or_else(|| format!("metric {name} is not a number"))?;
            out.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(v);
        }
    }
    Ok(())
}

/// The end-to-end values of every run stored in a result file, all its
/// sets together.
pub fn runs_by_workload(file: &Value) -> Result<RunsByWorkload, String> {
    let sets =
        file.get("sets").and_then(Value::as_array).ok_or("result file has no \"sets\" array")?;
    let mut out = RunsByWorkload::new();
    for set in sets {
        let runs =
            set.get("runs").and_then(Value::as_array).ok_or("a set has no \"runs\" array")?;
        collect_runs(runs, &mut out)?;
    }
    Ok(out)
}
