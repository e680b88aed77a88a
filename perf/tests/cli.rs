//! The `perf` command line, driven as a user or the benchmark driver
//! drives it: built binaries, fresh processes, files on disk.

use cloudbench_perf::json::{self, Value};
use cloudbench_perf::manifest;
use std::path::PathBuf;
use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().expect("the perf binary runs")
}

/// A scratch directory of this test's own under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the scratch directory can be created");
    dir
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8");
    json::parse(stdout.lines().last().expect("something was printed"))
        .expect("the last line is JSON")
}

#[test]
fn run_with_the_driver_s_flags_prints_the_record_last() {
    let out = scratch("driver_flags");
    let output = perf(&[
        "run",
        "--out",
        out.to_str().unwrap(),
        "--quick",
        "--workload",
        "fleet_restore_faults",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let rec = last_line(&output);
    assert_eq!(rec.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(rec.get("metrics").unwrap().as_object().unwrap().len(), 4);
    let stored = std::fs::read_to_string(out.join("fleet_restore_faults.run.json"))
        .expect("the run is stored");
    let stored = json::parse(&stored).expect("the stored run parses");
    assert_eq!(stored.get("seed").unwrap().as_f64(), Some(7.0));
    assert_eq!(stored.get("wall").unwrap().get("n").unwrap().as_f64(), Some(2.0));
}

#[test]
fn run_without_a_workload_prints_every_metric_by_name_with_its_unit() {
    let out = scratch("run_all");
    let output = perf(&["run", "--quick", "--out", out.to_str().unwrap()]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    for line in [
        "scale_commit.wall_s ",
        "replay_trace.setup_s ",
        "paper_sync.ops_per_s ",
        "fleet_restore_faults.peak_rss_mb ",
        "digests verified",
    ] {
        assert!(
            stdout.lines().any(|l| l.starts_with(line)),
            "no line starting with {line:?} in:\n{stdout}"
        );
    }
    assert!(
        stdout.lines().any(|l| l.ends_with(" ops/s")) && stdout.lines().any(|l| l.ends_with(" MB"))
    );
    assert_eq!(stdout.lines().count(), 4 * 4 + 1);
}

#[test]
fn the_traced_run_writes_its_files_and_counts_allocations() {
    let out = scratch("layers");
    // `--trace 1` on `run` is the driver's way in; it must hand over to
    // the binary that counts allocations.
    let output = perf(&[
        "run",
        "--quick",
        "--out",
        out.to_str().unwrap(),
        "--workload",
        "scale_commit",
        "--seed",
        "12",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let rec = last_line(&output);
    let metrics = rec.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(metrics.len(), manifest::per_layer().len());
    let allocs = metrics["proc.scale_commit.allocs_per_op"].get("value").unwrap().as_f64().unwrap();
    assert!(allocs > 1.0, "allocations were not counted: {allocs}");

    let csv = std::fs::read_to_string(out.join("ops.csv")).expect("ops.csv is written");
    assert_eq!(
        csv.lines().next(),
        Some("Experiment,Task,Iteration,Operation,Size,ElapsedMicroseconds")
    );
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 6));
    assert!(csv.lines().any(|l| l.starts_with("layers,0,1,storage.hash_sha256_mb_per_s,")));
    assert!(csv.lines().any(|l| l.starts_with("paper_sync,0,0,paper.fig4,")));
    let spans = std::fs::read_to_string(out.join("spans.jsonl")).expect("spans.jsonl is written");
    for line in spans.lines() {
        let span = json::parse(line).expect("every span is a JSON object");
        assert!(span.get("end_ns").unwrap().as_f64() >= span.get("start_ns").unwrap().as_f64());
    }
    let detail = std::fs::read_to_string(out.join("layers.json")).expect("layers.json is written");
    assert_eq!(
        json::parse(&detail).unwrap().as_object().unwrap().len(),
        manifest::per_layer().len()
    );
}

#[test]
fn manifest_compare_and_bad_flags() {
    let printed = perf(&["manifest"]);
    assert!(printed.status.success());
    assert_eq!(String::from_utf8(printed.stdout).unwrap(), manifest::benchmark_json());

    let dir = scratch("compare");
    let file = |name: &str, walls: [f64; 3]| {
        let runs: Vec<String> = walls
            .iter()
            .map(|w| format!("{{\"workload\": \"scale_commit\", \"metrics\": {{\"wall_s\": {w}, \"peak_rss_mb\": 100}}}}"))
            .collect();
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!("{{\"sets\": [{{\"label\": \"A\", \"runs\": [{}]}}]}}", runs.join(", ")),
        )
        .unwrap();
        path
    };
    let (a, slow) = (file("a.json", [1.0, 1.01, 0.99]), file("slow.json", [1.3, 1.31, 1.29]));
    let same = perf(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(same.status.success());
    assert!(String::from_utf8(same.stdout).unwrap().contains("same"));
    let worse = perf(&["compare", a.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(worse.status.code(), Some(1), "a regression beyond the bound is exit code 1");
    assert!(String::from_utf8(worse.stdout).unwrap().contains("worse"));

    for bad in [
        &["run", "--wrokload", "x"][..],
        &["run", "--workload", "nope", "--quick"],
        &["run", "--seed", "twelve", "--workload", "paper_sync"],
        &["run", "--trace", "2"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let output = perf(bad);
        assert_eq!(output.status.code(), Some(2), "{bad:?}");
        assert!(output.stdout.is_empty(), "{bad:?} printed a result");
    }
}

#[test]
fn aa_runs_two_interleaved_sets_and_writes_both_with_host_facts() {
    let dir = scratch("aa");
    let out = dir.join("aa.json");
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["aa", "--quick", "--runs", "2", "--out", out.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .expect("the perf binary runs");
    // Quick populations are far too small for the bounds to mean
    // anything: the verdict may go either way, the bookkeeping may not.
    assert!(
        matches!(output.status.code(), Some(0 | 1)),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let file =
        json::parse(&std::fs::read_to_string(&out).expect("the result file is written")).unwrap();
    let sets = file.get("sets").unwrap().as_array().unwrap();
    assert_eq!(sets.len(), 2);
    for set in sets {
        assert_eq!(set.get("runs").unwrap().as_array().unwrap().len(), 2 * 4);
    }
    assert!(file.get("host").unwrap().get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    assert!(file.get("host").unwrap().get("cpu").unwrap().as_str().is_some());
    assert_eq!(file.get("aa").unwrap().as_array().unwrap().len(), 4 * 4);
    assert!(String::from_utf8(output.stdout).unwrap().contains("disagreement"));
}
