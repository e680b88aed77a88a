//! `BENCHMARK.json`, the manifest in the source and the records the
//! harness emits must name the same things.

use cloudbench_perf::json::{self, Value};
use cloudbench_perf::layers::{self, Sizes};
use cloudbench_perf::manifest::{self, valid_name, END_TO_END, RUN_SECONDS, WORKLOADS};
use cloudbench_perf::record;
use cloudbench_perf::run::{self, RunConfig};
use cloudbench_perf::spans::Spans;
use cloudbench_perf::workloads::{Size, DEFAULT_SEED, NAMES};
use std::collections::BTreeSet;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn names_of(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry.get("name").and_then(Value::as_str).expect("every entry has a name").to_string()
        })
        .collect()
}

fn keys_of(object: &Value) -> BTreeSet<String> {
    object.as_object().expect("an object").keys().cloned().collect()
}

#[test]
fn the_committed_file_is_what_perf_manifest_prints() {
    assert_eq!(
        committed(),
        manifest::benchmark_json(),
        "BENCHMARK.json drifted from perf/src/manifest.rs: regenerate it with `perf manifest`"
    );
}

#[test]
fn the_committed_file_keeps_the_contract() {
    let file = json::parse(&committed()).expect("BENCHMARK.json parses");
    let expected: BTreeSet<String> =
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
            .map(String::from)
            .into();
    assert_eq!(keys_of(&file), expected, "exactly these keys");

    let paths: Vec<&str> =
        file.get("paths").unwrap().as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["perf"]);
    let command: Vec<&str> =
        file.get("command").unwrap().as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(command, ["bash", "perf/bench.sh"], "the command names nothing outside `paths`");
    assert_eq!(file.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS as f64));
    assert!((1..=60).contains(&RUN_SECONDS));

    assert_eq!(names_of(file.get("workloads").unwrap()), NAMES);
    for entry in file.get("workloads").unwrap().as_array().unwrap() {
        assert_eq!(keys_of(entry), ["name", "why"].map(String::from).into());
    }
    let end_to_end = file.get("end_to_end").unwrap();
    assert_eq!(names_of(end_to_end), END_TO_END.map(|e| e.0));
    for entry in end_to_end.as_array().unwrap() {
        assert_eq!(keys_of(entry), ["name", "unit", "better", "bound"].map(String::from).into());
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = file.get("per_layer").unwrap();
    assert_eq!(per_layer.as_array().unwrap().len(), 115);
    for entry in per_layer.as_array().unwrap() {
        assert_eq!(keys_of(entry), ["name", "unit", "better"].map(String::from).into());
        assert!(matches!(entry.get("better").unwrap().as_str(), Some("lower" | "higher")));
    }
    let mut all = names_of(per_layer);
    all.extend(names_of(end_to_end));
    all.extend(NAMES.map(String::from));
    for name in &all {
        assert!(valid_name(name), "{name} leaves [A-Za-z0-9_.-]");
    }
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
    assert!(committed().len() <= 64 * 1024);
    assert_eq!(WORKLOADS.map(|w| w.0), NAMES);
}

#[test]
fn the_issue_s_metric_groups_are_all_present() {
    let names: BTreeSet<String> = manifest::per_layer().into_iter().map(|d| d.name).collect();
    // One name from every group ISSUE 12 lists, plus the generated rows.
    for name in [
        "workload.mutate_mb_per_s",
        "storage.pipeline_small_files_per_s",
        "storage.restore_batch_mb_per_s",
        "storage.store_rss_bytes_per_user",
        "storage.store_purge_gc_chunks_per_s",
        "netsim.packets_per_mb",
        "netsim.fault_schedule_generate_per_s",
        "trace.finish_merge_pkts_per_s_nshard",
        "trace.concurrency_peak_intervals_per_s",
        "parallel.run_with_contexts_wave_us",
        "services.engine_mean_wave_len",
        "services.scale_cost_ratio_100k_to_400k",
        "services.partition_merge_s",
        "services.client_sync_faulted_none_files_per_s",
        "services.schedule_generate_events_per_s",
        "geo.discover_all_s",
        "core.full_suite_s",
        "bench.parse_flat_metrics_per_s",
        "decomp.scale.unattributed_share",
        "decomp.replay.traced_share",
        "decomp.paper.suite_share",
        "proc.scale_commit.user_s",
        "proc.fleet_restore_faults.alloc_bytes_per_op",
        "harness.span_overhead_share",
    ] {
        assert!(names.contains(name), "{name} is missing from the manifest");
    }
    let groups: BTreeSet<&str> = names.iter().map(|n| n.split('.').next().unwrap()).collect();
    let expected = [
        "workload", "storage", "netsim", "trace", "parallel", "services", "geo", "core", "bench",
        "decomp", "proc", "harness",
    ];
    assert_eq!(groups, expected.into());
}

#[test]
fn the_end_to_end_record_has_exactly_the_contract_s_keys() {
    let config = RunConfig {
        workload: "paper_sync".to_string(),
        seed: DEFAULT_SEED,
        size: Size::Quick,
        warmup: 1,
        iterations: 2,
        cap_seconds: f64::INFINITY,
    };
    let result = run::run(&config, &Spans::off()).expect("a known workload");
    let line = record::end_to_end_record(&result);
    assert!(!line.contains('\n'));
    let rec = json::parse(&line).expect("the record parses");
    assert_eq!(
        keys_of(&rec),
        ["correct", "attempted", "failed", "metrics"].map(String::from).into()
    );
    assert_eq!(rec.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(rec.get("failed").unwrap().as_f64(), Some(0.0));
    assert!(rec.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let metrics = rec.get("metrics").unwrap();
    assert_eq!(keys_of(metrics), END_TO_END.map(|e| e.0.to_string()).into());
    for (name, unit, ..) in END_TO_END {
        let metric = metrics.get(name).unwrap();
        assert_eq!(keys_of(metric), ["value", "unit"].map(String::from).into());
        assert_eq!(metric.get("unit").unwrap().as_str(), Some(unit));
        assert!(metric.get("value").unwrap().as_f64().unwrap() > 0.0, "{name} must never be 0");
    }
}

#[test]
fn the_traced_record_has_exactly_the_manifest_s_per_layer_names() {
    let spans = Spans::on();
    let layers =
        layers::run(&spans, Sizes::quick(), DEFAULT_SEED).expect("the quick traced run succeeds");
    let rec = json::parse(&record::per_layer_record(&layers.rows, layers.attempted))
        .expect("the record parses");
    assert_eq!(
        keys_of(&rec),
        ["correct", "attempted", "failed", "metrics"].map(String::from).into()
    );
    let expected: BTreeSet<String> = manifest::per_layer().into_iter().map(|d| d.name).collect();
    assert_eq!(keys_of(rec.get("metrics").unwrap()), expected);
    for (name, row) in &layers.rows {
        assert!(row.value.is_finite(), "{name} is {}", row.value);
    }
    // Exact counts repeat bit for bit.
    assert_eq!(layers.rows["storage.store_dedup_hit_share"].value, 0.4975);
    assert!(layers.rows["decomp.scale.unattributed_share"].value <= 0.5);
    // The spans behind the rows were kept in memory and nest properly.
    let records = spans.records();
    assert!(records.iter().any(|r| r.name == "services.run_scale" && r.parent.is_some()));
    assert!(records.iter().all(|r| r.end_ns >= r.start_ns));
}
