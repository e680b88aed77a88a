//! The suite table: the one place that knows which suites exist.
//!
//! A suite is its module in `crates/core/src` (result struct, runner,
//! `report()` and `gate_metrics()`), its `pub mod` line, and one row of
//! [`TABLE`]. Everything that needs "the list of suites" is a loop over
//! that table: `repro <target>` looks the row up by name, `repro all` runs
//! the rows marked `in_all`, [`usage`] prints their names and flags,
//! [`crate::metrics::collect`] concatenates their gate metrics, and
//! `repro suites` prints [`render_table`], which CI's per-suite determinism
//! legs and the `refresh-baseline` coverage check shell over. A new row is
//! picked up by all of them with no further edit. The tests in
//! [`crate::metrics`] fail any drift between the rows' declared prefixes
//! and the keys they emit, and between the rendered keys and values and
//! the committed baseline.

use cloudbench::architecture::discover_architecture;
use cloudbench::benchmarks::{run_performance_cell, run_performance_suite};
use cloudbench::capability::{
    compression_series, delta_encoding_series, syn_series, CapabilityMatrix,
};
use cloudbench::faults::run_faults;
use cloudbench::fleet::{fleet_gate_metrics, run_fleet_scaling, FLEET_SIZES};
use cloudbench::hetero::run_hetero;
use cloudbench::idle::idle_traffic_series;
use cloudbench::partition::{replay_partition_suite, run_partition_suite};
use cloudbench::report::{Fig6Metric, Report};
use cloudbench::restore::run_restore;
use cloudbench::scale::{replay_fleet_scale, run_fleet_scale, scale_spec};
use cloudbench::schedule::run_schedule;
use cloudbench::testbed::Testbed;
use cloudbench::trace_overhead::run_trace_overhead;
use cloudbench::{FileKind, Provider, ServiceProfile};
use cloudsim_geo::ResolverFleet;
use cloudsim_services::capture::{render_capture, ReplayMix};
use cloudsim_services::AccessLink;
use cloudsim_workload::BatchSpec;

use crate::cli::{bad_input, die_usage, load_capture, parse_clients, parse_count, parse_path};
use crate::metrics::{
    GATE_FLEET_CLIENTS, GATE_PARTITIONS, GATE_REPETITIONS, GATE_SCALE_CLIENTS, HETERO_CLIENTS,
    RESTORE_CLIENTS, SCHEDULE_CLIENTS,
};
use crate::{BENCH_REPETITIONS, REPRO_SEED};

/// One payload a target can write besides its text: `flag PATH` on the
/// command line selects it, `-` streams it to stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Dump {
    /// The path-valued flag that asks for this payload (`--json`, …).
    pub flag: &'static str,
    /// The rendered payload.
    pub payload: String,
    /// What the payload is, for the "wrote … to PATH" note.
    pub what: &'static str,
}

/// What one run of a target produced: its text sections, in print order,
/// and the payloads its flags can select, in write order.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The rendered report sections.
    pub reports: Vec<Report>,
    /// The selectable payloads.
    pub dumps: Vec<Dump>,
}

impl Output {
    fn text(reports: Vec<Report>) -> Output {
        Output { reports, dumps: Vec::new() }
    }

    fn dump(mut self, flag: &'static str, payload: String, what: &'static str) -> Output {
        self.dumps.push(Dump { flag, payload, what });
        self
    }

    /// One report section plus the suite's `--json` dump.
    fn json(report: Report, json: String, what: &'static str) -> Output {
        Output::text(vec![report]).dump("--json", json, what)
    }
}

/// Runs a target at its command-line size, given the command line.
pub type Run = fn(&[String]) -> Output;

/// Runs a suite at its gate size and names its gate metrics.
pub type Gate = fn() -> Vec<(String, f64)>;

/// One row of the suite table.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The `repro` target name.
    pub name: &'static str,
    /// The flags the target reads, as the usage text shows them: the one
    /// declaration `repro` checks a command line against.
    pub flags: &'static str,
    /// The gate-key prefixes the row owns: every key its `gate` emits
    /// starts with `<prefix>.` for exactly one of them. A dotted prefix
    /// (`hist.sync`) is a slice of a namespace several rows share.
    pub prefixes: &'static [&'static str],
    /// Whether `repro all` runs the row.
    pub in_all: bool,
    /// The `repro` arguments whose stdout the CI determinism leg `cmp`s
    /// across two fresh runs, or `None` for rows gated through
    /// `bench-json` alone. Targets must write nothing host-dependent to
    /// stdout — rows whose *text* prints wall-clock time dump `--json -`.
    pub determinism_target: Option<&'static str>,
    /// The target itself.
    pub run: Run,
    /// The suite's gate point, for rows that own prefixes.
    pub gate: Option<Gate>,
}

impl Suite {
    /// The shape of the paper's own targets: text only, part of `all`,
    /// gating nothing.
    const fn figure(name: &'static str, run: Run) -> Suite {
        Suite {
            name,
            flags: "",
            prefixes: &[],
            in_all: true,
            determinism_target: None,
            run,
            gate: None,
        }
    }
}

/// The one flag `repro all` declares; `fig6` and its panels read it too.
pub const REPS: &str = "[--reps N]";
const JSON: &str = "[--json PATH]";

/// Every `repro` target, in `all` / gate-collection order.
pub static TABLE: &[Suite] = &[
    Suite::figure("table1", |_| {
        Output::text(vec![Report::table1(&CapabilityMatrix::detect_all(&testbed()))])
    }),
    Suite::figure("fig1", |_| {
        Output::text(vec![Report::figure1(&idle_traffic_series(&testbed()))])
    }),
    Suite::figure("fig2", fig2),
    Suite { in_all: false, ..Suite::figure("arch", fig2) },
    Suite::figure("fig3", fig3),
    Suite::figure("fig4", fig4),
    Suite::figure("fig5", fig5),
    Suite {
        flags: REPS,
        prefixes: &["fig6"],
        gate: Some(fig6_gate),
        ..Suite::figure("fig6", |args| {
            fig6(args, &[Fig6Metric::Startup, Fig6Metric::Completion, Fig6Metric::Overhead])
        })
    },
    Suite {
        flags: REPS,
        in_all: false,
        ..Suite::figure("fig6a", |args| fig6(args, &[Fig6Metric::Startup]))
    },
    Suite {
        flags: REPS,
        in_all: false,
        ..Suite::figure("fig6b", |args| fig6(args, &[Fig6Metric::Completion]))
    },
    Suite {
        flags: REPS,
        in_all: false,
        ..Suite::figure("fig6c", |args| fig6(args, &[Fig6Metric::Overhead]))
    },
    Suite {
        prefixes: &["fleet8", "hist.sync"],
        gate: Some(|| {
            fleet_gate_metrics(&ServiceProfile::dropbox(), GATE_FLEET_CLIENTS, REPRO_SEED)
        }),
        ..Suite::figure("fleet", |_| {
            let suite = run_fleet_scaling(&ServiceProfile::dropbox(), &FLEET_SIZES, REPRO_SEED);
            Output::text(vec![suite.report()])
        })
    },
    Suite {
        prefixes: &["hetero", "gc"],
        gate: Some(|| run_hetero(HETERO_CLIENTS, REPRO_SEED).gate_metrics()),
        ..Suite::figure("hetero", |_| {
            Output::text(vec![run_hetero(HETERO_CLIENTS, REPRO_SEED).report()])
        })
    },
    Suite {
        name: "restore",
        flags: JSON,
        prefixes: &["restore", "hist.restore"],
        in_all: true,
        determinism_target: Some("restore"),
        run: |_| {
            let suite = run_restore(RESTORE_CLIENTS, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the restore suite")
        },
        gate: Some(|| run_restore(RESTORE_CLIENTS, REPRO_SEED).gate_metrics()),
    },
    Suite {
        name: "schedule",
        flags: JSON,
        prefixes: &["schedule"],
        in_all: true,
        determinism_target: Some("schedule"),
        run: |_| {
            let suite = run_schedule(SCHEDULE_CLIENTS, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the schedule suite")
        },
        gate: Some(|| run_schedule(SCHEDULE_CLIENTS, REPRO_SEED).gate_metrics()),
    },
    Suite {
        name: "faults",
        flags: JSON,
        prefixes: &["faults", "hist.backoff"],
        in_all: true,
        determinism_target: Some("faults"),
        run: |_| {
            let suite = run_faults(REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the faults suite")
        },
        gate: Some(|| run_faults(REPRO_SEED).gate_metrics()),
    },
    Suite {
        name: "fleet-scale",
        flags: "[--clients N] [--json PATH] [--capture PATH]",
        prefixes: &["fleetscale", "hist.scale_transfer"],
        in_all: false,
        determinism_target: Some("fleet-scale --clients 10000 --json -"),
        run: fleet_scale,
        gate: Some(|| run_fleet_scale(GATE_SCALE_CLIENTS, REPRO_SEED).gate_metrics()),
    },
    Suite {
        name: "replay",
        flags: "--capture PATH [--link PRESET | --profile SERVICE] [--json PATH]",
        prefixes: &[],
        in_all: false,
        determinism_target: None,
        run: replay,
        gate: None,
    },
    Suite {
        name: "partition",
        flags: "[--clients N] [--partitions K] [--capture PATH] [--json PATH]",
        prefixes: &["partition"],
        in_all: false,
        determinism_target: Some("partition --clients 10000 --partitions 8 --json -"),
        run: partition,
        gate: Some(|| {
            run_partition_suite(GATE_SCALE_CLIENTS, GATE_PARTITIONS, REPRO_SEED).gate_metrics()
        }),
    },
    Suite {
        name: "trace",
        flags: "[--clients N] [--json PATH]",
        prefixes: &["trace"],
        in_all: false,
        determinism_target: Some("trace --clients 10000 --json -"),
        run: |args| {
            let clients = parse_clients(args, &usage());
            if let Err(err) = scale_spec(clients, REPRO_SEED).check_traceable() {
                die_usage(&err, &usage());
            }
            let suite = run_trace_overhead(clients, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the trace-overhead suite")
        },
        gate: Some(|| run_trace_overhead(GATE_SCALE_CLIENTS, REPRO_SEED).gate_metrics()),
    },
];

/// Finds a row by its `repro` target name.
pub fn by_name(name: &str) -> Option<&'static Suite> {
    TABLE.iter().find(|s| s.name == name)
}

/// The gated top-level prefixes with their determinism targets (`-` for
/// none), in table order. A namespace several rows share slices of
/// (`hist.*`) is listed once, last, without a target: each slice is
/// already replayed by the row that owns it.
pub fn listing() -> Vec<(&'static str, &'static str)> {
    let mut lines = Vec::new();
    let mut shared: Vec<&str> = Vec::new();
    for suite in TABLE {
        for prefix in suite.prefixes {
            match prefix.split_once('.') {
                None => lines.push((*prefix, suite.determinism_target.unwrap_or("-"))),
                Some((head, _)) if !shared.contains(&head) => shared.push(head),
                Some(_) => {}
            }
        }
    }
    lines.extend(shared.into_iter().map(|head| (head, "-")));
    lines
}

/// The `repro suites` listing: one `prefix<TAB>target` line per entry of
/// [`listing`]. Tab-separated so shell consumers can `cut -f1` /
/// `read -r prefix target` without quoting trouble.
pub fn render_table() -> String {
    listing().iter().map(|(prefix, target)| format!("{prefix}\t{target}\n")).collect()
}

/// The gated prefixes joined for usage/error text.
pub fn prefix_list() -> String {
    listing().iter().map(|(prefix, _)| *prefix).collect::<Vec<_>>().join("|")
}

/// `repro`'s usage text: one line per target with the flags it reads, the
/// three table-level commands, and the gated prefixes.
pub fn usage() -> String {
    let targets: Vec<String> = TABLE
        .iter()
        .map(|s| format!("repro {} {}", s.name, s.flags).trim_end().to_string())
        .collect();
    format!(
        "usage: repro [all] {REPS}\n       {}\n       repro suites\n       repro bench-json [PATH]\n\
         gated suites (see `repro suites`): {}",
        targets.join("\n       "),
        prefix_list()
    )
}

/// The testbed of one target call: a target builds it once, so its series
/// share one size memo (Google Drive's Fig. 5 counts are Dropbox's).
fn testbed() -> Testbed {
    Testbed::new(REPRO_SEED)
}

fn fig2(_: &[String]) -> Output {
    let fleet = ResolverFleet::paper_scale();
    let reports: Vec<_> =
        Provider::ALL.iter().map(|p| discover_architecture(*p, &fleet, REPRO_SEED)).collect();
    Output::text(vec![Report::figure2(&reports.iter().collect::<Vec<_>>())])
}

/// One `(service name, series)` pair per profile: what Fig. 3–5 render.
fn per_service<T>(
    profiles: &[ServiceProfile],
    series: impl Fn(&ServiceProfile) -> T,
) -> Vec<(String, T)> {
    profiles.iter().map(|p| (p.name().to_string(), series(p))).collect()
}

fn fig3(_: &[String]) -> Output {
    let testbed = testbed();
    let profiles = [ServiceProfile::google_drive(), ServiceProfile::cloud_drive()];
    let series = per_service(&profiles, |p| syn_series(&testbed, p));
    Output::text(vec![Report::figure3(&series)])
}

fn fig4(_: &[String]) -> Output {
    let testbed = testbed();
    let panel = |case: &str, sizes: &[u64], random_offset: bool| {
        let series = per_service(&ServiceProfile::all(), |p| {
            delta_encoding_series(&testbed, p, sizes, random_offset)
        });
        Report::figure4(&series, case)
    };
    Output::text(vec![
        panel("append", &[100_000, 500_000, 1_000_000, 1_500_000, 2_000_000], false),
        panel(
            "random offset",
            &[1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000],
            true,
        ),
    ])
}

fn fig5(_: &[String]) -> Output {
    let testbed = testbed();
    let sizes = [100_000, 500_000, 1_000_000, 1_500_000, 2_000_000];
    let panel = |kind: FileKind, label: &str| {
        let series =
            per_service(&ServiceProfile::all(), |p| compression_series(&testbed, p, kind, &sizes));
        Report::figure5(&series, label)
    };
    Output::text(vec![
        panel(FileKind::Text, "random readable text"),
        panel(FileKind::RandomBinary, "random bytes"),
        panel(FileKind::FakeJpeg, "fake JPEGs"),
    ])
}

fn fig6(args: &[String], panels: &[Fig6Metric]) -> Output {
    let reps = parse_count(args, "--reps", BENCH_REPETITIONS, &usage());
    let suite = run_performance_suite(&testbed(), reps);
    Output::text(panels.iter().map(|panel| Report::figure6(&suite, *panel)).collect())
}

/// Fig. 6's gate point — the many-small-files and single-large-file cells
/// that separate the services most sharply.
fn fig6_gate() -> Vec<(String, f64)> {
    let small_files = BatchSpec::new(100, 10_000, FileKind::RandomBinary);
    let one_megabyte = BatchSpec::new(1, 1_000_000, FileKind::RandomBinary);
    let cells: [(&str, ServiceProfile, &BatchSpec); 5] = [
        ("dropbox", ServiceProfile::dropbox(), &small_files),
        ("google_drive", ServiceProfile::google_drive(), &small_files),
        ("cloud_drive", ServiceProfile::cloud_drive(), &small_files),
        ("dropbox", ServiceProfile::dropbox(), &one_megabyte),
        ("skydrive", ServiceProfile::skydrive(), &one_megabyte),
    ];
    let testbed = testbed();
    let mut metrics = Vec::new();
    for (name, profile, spec) in &cells {
        let row = run_performance_cell(&testbed, profile, spec, GATE_REPETITIONS);
        let label = spec.label();
        metrics.push((format!("fig6.completion_s.{name}.{label}"), row.completion_secs.mean));
        metrics.push((format!("fig6.overhead.{name}.{label}"), row.overhead.mean));
    }
    metrics
}

/// `--capture PATH` additionally records the workload as a versioned JSONL
/// capture for `replay` / `partition --capture`.
fn fleet_scale(args: &[String]) -> Output {
    let clients = parse_clients(args, &usage());
    let capture = parse_path(args, "--capture", &usage()).is_some();
    let suite = run_fleet_scale(clients, REPRO_SEED);
    let out = Output::json(suite.report(), Report::to_json(&suite), "the fleet-scale suite");
    if !capture {
        return out;
    }
    let rendered = render_capture(&scale_spec(clients, REPRO_SEED));
    out.dump("--capture", rendered, "the fleet-scale workload capture")
}

/// Re-drives a capture through the event heap. Same mix by default
/// (bit-identical metrics); `--link` / `--profile` remap every client for
/// the paper-style A/B comparison.
fn replay(args: &[String]) -> Output {
    let usage = usage();
    let Some(path) = parse_path(args, "--capture", &usage) else {
        die_usage(
            "repro replay needs --capture PATH \
             (record one with `repro fleet-scale --capture PATH`)",
            &usage,
        );
    };
    let capture = load_capture(path);
    let slug = |p: &ServiceProfile| p.name().to_lowercase().replace(' ', "_");
    let mix = match (parse_path(args, "--link", &usage), parse_path(args, "--profile", &usage)) {
        (Some(_), Some(_)) => die_usage("--link and --profile are mutually exclusive", &usage),
        (Some(name), None) => ReplayMix::Link(AccessLink::by_name(name).unwrap_or_else(|| {
            let valid: Vec<&str> = AccessLink::all().iter().map(|l| l.name).collect();
            die_usage(
                &format!("unknown link preset '{name}' (valid: {})", valid.join(", ")),
                &usage,
            )
        })),
        (None, Some(name)) => {
            let profiles = ServiceProfile::all();
            match profiles.iter().find(|p| slug(p) == name.to_lowercase()) {
                Some(profile) => ReplayMix::Profile(profile.clone()),
                None => die_usage(
                    &format!(
                        "unknown service profile '{name}' (valid: {})",
                        profiles.iter().map(slug).collect::<Vec<_>>().join(", ")
                    ),
                    &usage,
                ),
            }
        }
        (None, None) => ReplayMix::Original,
    };
    let suite = replay_fleet_scale(&capture, &mix)
        .unwrap_or_else(|e| bad_input(&format!("replay failed: {e}")));
    Output::json(suite.report(), Report::to_json(&suite), "the replayed fleet-scale suite")
}

/// `--partitions K` disjoint client sets (round-robin stripes over a live
/// population, contiguous capture slices with `--capture PATH`). The JSON
/// dump carries only the *merged* suite — bit-identical across partition
/// counts and against `repro fleet-scale --json`, which is what the CI
/// partition-determinism leg `cmp`s; the text adds the split accounting.
fn partition(args: &[String]) -> Output {
    let usage = usage();
    let partitions = parse_count(args, "--partitions", 4, &usage);
    let suite = match parse_path(args, "--capture", &usage) {
        Some(path) => replay_partition_suite(&load_capture(path), partitions)
            .unwrap_or_else(|e| bad_input(&format!("partitioned replay failed: {e}"))),
        None => {
            let clients = parse_clients(args, &usage);
            if partitions > clients {
                die_usage(
                    &format!("cannot cut {clients} clients into {partitions} non-empty partitions"),
                    &usage,
                );
            }
            run_partition_suite(clients, partitions, REPRO_SEED)
        }
    };
    Output::text(vec![suite.report(), suite.merged.report()]).dump(
        "--json",
        Report::to_json(&suite.merged),
        "the merged partitioned suite",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_are_unique_and_resolvable() {
        let names: std::collections::HashSet<&str> = TABLE.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), TABLE.len(), "duplicate target name");
        for suite in TABLE {
            assert_eq!(by_name(suite.name).map(|s| s.name), Some(suite.name));
            assert!(!["all", "suites", "bench-json"].contains(&suite.name), "{}", suite.name);
            // A row names prefixes exactly when it has gate metrics to
            // emit under them.
            assert_eq!(suite.prefixes.is_empty(), suite.gate.is_none(), "{}", suite.name);
        }
        assert!(by_name("nonexistent").is_none());
        // No prefix is owned twice, and none shadows another row's.
        let prefixes: Vec<&str> = TABLE.iter().flat_map(|s| s.prefixes.iter().copied()).collect();
        for (i, a) in prefixes.iter().enumerate() {
            for b in &prefixes[i + 1..] {
                assert!(
                    !format!("{a}.").starts_with(&format!("{b}."))
                        && !format!("{b}.").starts_with(&format!("{a}.")),
                    "prefixes {a} and {b} overlap"
                );
            }
        }
    }

    #[test]
    fn table_renders_one_tab_separated_line_per_suite() {
        let table = render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), listing().len());
        for (line, (prefix, target)) in lines.iter().zip(listing()) {
            assert_eq!(line.split_once('\t'), Some((prefix, target)));
            assert!(!target.is_empty());
        }
        // Every undotted prefix is listed with its row's target; the shared
        // `hist` namespace comes once, last, without one.
        for suite in TABLE {
            for prefix in suite.prefixes.iter().filter(|p| !p.contains('.')) {
                let target = suite.determinism_target.unwrap_or("-");
                assert!(listing().contains(&(*prefix, target)), "{prefix} not listed");
            }
        }
        assert_eq!(listing().last(), Some(&("hist", "-")));
        assert_eq!(listing().iter().filter(|(p, _)| *p == "hist").count(), 1);
    }

    #[test]
    fn determinism_targets_dump_machine_comparable_output() {
        // `cmp`-able means nothing host-dependent on stdout: a target may
        // dump its text only if that text never prints wall-clock time.
        for suite in TABLE {
            let Some(target) = suite.determinism_target else { continue };
            assert!(target.starts_with(suite.name), "{target} does not run {}", suite.name);
            if target.ends_with("--json -") {
                continue;
            }
            let args: Vec<String> = target.split(' ').map(str::to_string).collect();
            for report in (suite.run)(&args).reports {
                assert!(
                    !report.body.contains("wall"),
                    "{}: the text prints wall-clock time, so `{target}` must dump --json -",
                    suite.name
                );
            }
        }
        // The three population runners do print it.
        for name in ["fleet-scale", "partition", "trace"] {
            let target = by_name(name).and_then(|s| s.determinism_target).expect("has target");
            assert!(target.ends_with("--json -"), "{name}: {target}");
        }
    }

    #[test]
    fn prefix_list_names_every_suite() {
        let list = prefix_list();
        for prefix in TABLE.iter().flat_map(|s| s.prefixes.iter()) {
            let head = prefix.split('.').next().expect("non-empty prefix");
            assert!(list.split('|').any(|p| p == head), "{head} missing from {list}");
        }
    }

    #[test]
    fn usage_names_every_target_with_its_flags() {
        let usage = usage();
        assert!(usage.starts_with("usage: repro [all] [--reps N]\n"), "got: {usage}");
        for suite in TABLE {
            let line = format!("       repro {} {}", suite.name, suite.flags);
            assert!(usage.lines().any(|l| l == line.trim_end()), "{line} missing from: {usage}");
        }
        for needle in ["repro suites", "repro bench-json [PATH]", &prefix_list()] {
            assert!(usage.contains(needle), "{needle} missing from: {usage}");
        }
    }
}
