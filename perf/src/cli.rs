//! The command line shared by the `perf` and `perf-layers` binaries.

use crate::compare::{self, Verdict};
use crate::json::{self, quote, Value};
use crate::layers::{self, Sizes};
use crate::manifest::{self, END_TO_END, RUN_SECONDS};
use crate::record;
use crate::run::{self, RunConfig, ITERATIONS, WARMUP};
use crate::spans::{self, Spans};
use crate::workloads::{Size, DEFAULT_SEED, NAMES};
use crate::{alloc, host};
use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perf <command> [flags]
  run      [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
           one workload: 2 warm-up + 16 timed iterations (--seconds only caps them), then
           its end-to-end record as the last line;
           no workload: each of the four in a fresh process, every metric by name with unit;
           --trace 1: the traced run (same as `layers`)
  layers   [--seed N] [--quick] [--out DIR]
           per-layer numbers from harness-side spans; writes spans.jsonl, ops.csv, layers.json
  manifest print BENCHMARK.json as this build defines it
  compare  A.json B.json
           delta table per workload and metric between two result files
  aa       [--runs N] [--quick] [--out FILE]
           two interleaved sets of runs of this build, judged against the bounds";

/// Flags of one invocation: `--name value` pairs, bare switches and
/// positional arguments.
struct Flags {
    values: BTreeMap<String, String>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags { values: BTreeMap::new(), quick: false, positional: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) if known.contains(&name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.insert(name.to_string(), value.clone());
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("--{name}: \"{text}\" is not a valid number"))
            }
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.values.get("out").map_or("perf/out", String::as_str))
    }

    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

/// Runs the command line; the process exit code.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "run" => cmd_run(rest),
        "layers" => cmd_layers(rest),
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        "compare" => cmd_compare(rest),
        "aa" => cmd_aa(rest),
        _ => Err(format!("unknown command \"{command}\"\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

const RUN_FLAGS: [&str; 5] = ["workload", "seed", "seconds", "trace", "out"];

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &RUN_FLAGS)?;
    match flags.number("trace", 0u8)? {
        0 => {}
        1 => return cmd_layers(args),
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    }
    let Some(workload) = flags.values.get("workload") else {
        return run_all(args);
    };
    // The iteration counts are fixed; `--seconds` only caps a run on a
    // host far slower than the one the populations were sized on.
    let (warmup, iterations) = if flags.quick { (1, 2) } else { (WARMUP, ITERATIONS) };
    let config = RunConfig {
        workload: workload.clone(),
        seed: flags.number("seed", DEFAULT_SEED)?,
        size: flags.size(),
        warmup,
        iterations,
        cap_seconds: flags.number("seconds", RUN_SECONDS as f64)?,
    };
    let result = run::run(&config, &Spans::off())?;
    if result.samples.len() < iterations {
        eprintln!(
            "perf: --seconds cut the run short at {} of {iterations} timed iterations; \
             its wall_s is a minimum over fewer draws and reads high",
            result.samples.len()
        );
    }

    let (setup, wall) = (result.setup(), result.wall());
    eprintln!(
        "{}: seed {} · {} ops/iteration · {} + {} iterations · digest {:#018x} · {} of {} ops failed",
        result.workload, result.seed, result.ops, config.warmup, wall.n, result.digest, result.failed, result.attempted
    );
    for (name, value, s) in
        [("setup_s", result.setup_s(), setup), ("wall_s", result.wall_s(), wall)]
    {
        eprintln!(
            "  {name:<12} {value:.6} s  (n {}: min {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6})",
            s.n, s.min, s.q1, s.median, s.q3, s.max
        );
    }
    eprintln!("  {:<12} {:.3} ops/s", "ops_per_s", result.ops_per_s());
    eprintln!("  {:<12} {:.3} MB", "peak_rss_mb", result.peak_rss_mb);
    write_file(
        &flags.out_dir().join(format!("{}.run.json", result.workload)),
        &record::run_json(&result),
    )?;
    println!("{}", record::end_to_end_record(&result));
    Ok(result.correct())
}

/// Runs `perf run --workload W <args>` in a fresh process and returns the
/// stored run (the child's `<out>/<W>.run.json`).
fn run_child(workload: &str, args: &[String], out: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload, "--out"])
        .arg(out)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("the run of {workload} failed ({status})"));
    }
    let path = out.join(format!("{workload}.run.json"));
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// `perf run` without a workload: each of the four in a fresh process,
/// then every end-to-end metric by name with its unit.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &RUN_FLAGS)?;
    let out = flags.out_dir();
    let passthrough: Vec<String> = strip_flag(args, "out");
    let mut correct = true;
    for workload in NAMES {
        let run = run_child(workload, &passthrough, &out)?;
        let metrics = run.get("metrics").ok_or("a stored run has no metrics")?;
        for (name, unit, _, _) in END_TO_END {
            let value =
                metrics.get(name).and_then(Value::as_f64).ok_or("a stored run lacks a metric")?;
            println!("{workload}.{name} {value} {unit}");
        }
        correct &= run.get("failed").and_then(Value::as_f64) == Some(0.0);
    }
    println!("digests {}", if correct { "verified" } else { "MISMATCH" });
    Ok(correct)
}

/// `args` without `--name value`.
fn strip_flag(args: &[String], name: &str) -> Vec<String> {
    let flag = format!("--{name}");
    let mut kept = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if *arg == flag {
            it.next();
        } else {
            kept.push(arg.clone());
        }
    }
    kept
}

fn cmd_layers(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &RUN_FLAGS)?;
    if !alloc::installed() {
        // Allocation counts need the counting allocator, which only the
        // sibling binary installs: hand the whole command over to it.
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let sibling = exe.with_file_name("perf-layers");
        let status = Command::new(&sibling)
            .arg("layers")
            .args(args)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", sibling.display()))?;
        return Ok(status.success());
    }
    let sizes = if flags.quick { Sizes::quick() } else { Sizes::full() };
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let spans = Spans::on();
    let outcome = layers::run(&spans, sizes, seed);

    let out = flags.out_dir();
    fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let records = spans.records();
    let create = |name: &str| {
        let path = out.join(name);
        fs::File::create(&path).map(BufWriter::new).map_err(|e| format!("{}: {e}", path.display()))
    };
    spans::write_jsonl(&records, &mut create("spans.jsonl")?)
        .map_err(|e| format!("spans.jsonl: {e}"))?;
    spans::write_ops_csv(&records, &mut create("ops.csv")?).map_err(|e| format!("ops.csv: {e}"))?;
    let layers = outcome?;
    write_file(&out.join("layers.json"), &record::layers_json(&layers.rows))?;

    for def in manifest::per_layer() {
        let row = layers.rows[&def.name];
        eprintln!(
            "{:<46} {:>16.4} {:<12} n {:<2} spread {:.3}",
            def.name, row.value, def.unit, row.n, row.spread
        );
    }
    eprintln!("{} spans -> {}", records.len(), out.display());
    println!("{}", record::per_layer_record(&layers.rows, layers.attempted));
    Ok(true)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    let [a, b] = &flags.positional[..] else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| -> Result<_, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        record::runs_by_workload(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

/// The revision of the working tree the harness was run from, or
/// "unknown" outside a git checkout.
fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The run-to-run range, as a share of the median, within which a metric
/// was asked to repeat inside one set of `perf aa` runs.
const RANGE: f64 = 0.10;
/// The same for `setup_s`.
const SETUP_RANGE: f64 = 0.15;

fn cmd_aa(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["runs", "out"])?;
    let runs: usize = flags.number("runs", 4)?;
    let scratch = PathBuf::from("perf/out/aa");
    let child_args: Vec<String> = flags.quick.then(|| "--quick".to_string()).into_iter().collect();

    // Interleaved: run i of set A, then run i of set B, workload by
    // workload, so that both sets see the same drift of the host.
    let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for i in 0..runs {
        for workload in NAMES {
            for (label, set) in ["A", "B"].iter().zip(sets.iter_mut()) {
                eprintln!("aa: run {} of {runs}, set {label}, {workload}", i + 1);
                set.push(run_child(workload, &child_args, &scratch)?);
            }
        }
    }

    let (mut a, mut b) = (record::RunsByWorkload::new(), record::RunsByWorkload::new());
    record::collect_runs(&sets[0], &mut a)?;
    record::collect_runs(&sets[1], &mut b)?;
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));

    // Two judgements per row. `pass` is the benchmark driver's acceptance
    // rule: the two sets' medians agree within the bound, and within each
    // set the interquartile spread stays within the bound too (the driver
    // exempts `setup_s` from the second; the row then says so). `repeats`
    // is the stricter criterion this benchmark was asked to meet: within
    // each set every run lies within a tenth of the median (`setup_s`:
    // 0.15). It is reported, never waived, and does not decide the exit
    // code: on a host whose speed drifts it fails where `pass` holds.
    let mut pass = true;
    let mut drifting = 0;
    let mut judged = Vec::new();
    for r in &rows {
        let agree = r.worse_by.abs() <= r.bound;
        let spread = r.a.iqr_share().max(r.b.iqr_share());
        let exempt = r.metric == "setup_s" && spread > r.bound;
        let row_pass = agree && (spread <= r.bound || exempt);
        let range = r.a.range_share().max(r.b.range_share());
        let repeats = range <= if r.metric == "setup_s" { SETUP_RANGE } else { RANGE };
        pass &= row_pass;
        drifting += usize::from(!repeats);
        println!(
            "{:<22} {:<12} disagreement {:>6.2}%  spread {:>6.2}%  range {:>6.2}%  bound {:>5.1}%  {:<21} {}",
            r.workload,
            r.metric,
            r.worse_by.abs() * 100.0,
            spread * 100.0,
            range * 100.0,
            r.bound * 100.0,
            match (row_pass, exempt) {
                (true, true) => "pass (spread exempt)",
                (true, false) => "pass",
                (false, _) => "FAIL",
            },
            if repeats { "repeats" } else { "DRIFTS" }
        );
        judged.push(format!(
            "{{\"workload\": {}, \"metric\": {}, \"median_a\": {}, \"median_b\": {}, \"disagreement\": {}, \"spread_a\": {}, \"spread_b\": {}, \"range_a\": {}, \"range_b\": {}, \"bound\": {}, \"pass\": {row_pass}, \"repeats\": {repeats}}}",
            quote(&r.workload), quote(r.metric), r.a.median, r.b.median, r.worse_by.abs(),
            r.a.iqr_share(), r.b.iqr_share(), r.a.range_share(), r.b.range_share(), r.bound,
        ));
    }
    let failed_ops: f64 = sets.iter().flatten().filter_map(|run| run.get("failed")?.as_f64()).sum();
    pass &= failed_ops == 0.0;
    println!(
        "aa: {} by the driver's rule (medians agree, spreads within the bounds)",
        if pass { "pass" } else { "FAIL" }
    );
    println!(
        "aa: run-to-run range within {RANGE} ({SETUP_RANGE} for setup_s): {}",
        if drifting == 0 {
            "met".to_string()
        } else {
            format!("NOT met on {drifting} of {} rows", rows.len())
        }
    );

    if let Some(path) = flags.values.get("out") {
        let set_json = |label: &str, set: &[Value]| {
            let runs: Vec<String> = set.iter().map(Value::render).collect();
            format!(
                "    {{\"label\": {}, \"runs\": [\n      {}\n    ]}}",
                quote(label),
                runs.join(",\n      ")
            )
        };
        let text = format!(
            "{{\n  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"revision\": {}}},\n  \"config\": {{\"warmup\": {}, \"iterations\": {}, \"cap_seconds\": {RUN_SECONDS}, \"runs_per_set\": {runs}, \"quick\": {}}},\n  \"sets\": [\n{},\n{}\n  ],\n  \"aa\": [\n    {}\n  ],\n  \"pass\": {pass},\n  \"repeats\": {}\n}}\n",
            cloudsim_parallel::available_workers(),
            quote(&host::cpu_model()),
            quote(&revision()),
            if flags.quick { 1 } else { WARMUP },
            if flags.quick { 2 } else { ITERATIONS },
            flags.quick,
            set_json("A", &sets[0]),
            set_json("B", &sets[1]),
            judged.join(",\n    "),
            drifting == 0,
        );
        write_file(Path::new(path), &text)?;
    }
    Ok(pass)
}
