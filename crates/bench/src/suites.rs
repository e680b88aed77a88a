//! The suite table: the one place that knows which suites exist.
//!
//! A suite is its module in `crates/core/src` (result struct, runner,
//! `report()` and `gate_metrics()`), its `pub mod` line, and one row of
//! [`TABLE`]. Everything that needs "the list of suites" is a loop over
//! that table: `repro <target>` looks the row up by name, `repro all` runs
//! the rows marked `in_all`, [`usage`] prints their names and flags,
//! [`crate::metrics::collect`] runs each gated row once at its gate
//! arguments, and `repro suites` prints [`render_table`], the gated rows
//! and their arguments, which CI's `refresh-baseline` job loops over. A
//! new row is picked up by all of them with no further edit. The tests in
//! [`crate::metrics`] hold that one run to the committed baseline (its
//! metrics) and golden files (its text and dumps), and fail any drift
//! between a row's declared prefixes and the keys it emits.

use cloudbench::architecture::discover_architecture;
use cloudbench::benchmarks::run_performance_suite;
use cloudbench::capability::{
    compression_series, delta_encoding_series, syn_series, CapabilityMatrix,
};
use cloudbench::faults::run_faults;
use cloudbench::fleet::{run_fleet_scaling, FLEET_SIZES};
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

use crate::cli::{bad_input, die_usage, load_capture, parse_clients, parse_count, parse_path};
use crate::{BENCH_REPETITIONS, REPRO_SEED};

/// The fleet size of the heterogeneous scenario. Slot `i` gets profile
/// `i % 3` and link `i % 4`, so 9 slots cover 9 of the 12 profile×link
/// pairs — every profile appears on three distinct links and every link
/// carries at least two profiles (the full matrix would need lcm(3,4)=12
/// slots; 9 keeps the gate fast).
const HETERO_CLIENTS: usize = 9;

/// The fleet size of the restore scenario: eight slots cycle through all
/// four link presets, so the four pullers (the last half) land one behind
/// each preset — every link class gets a `restore.*` goodput and TTFB
/// metric.
const RESTORE_CLIENTS: usize = 8;

/// The fleet size of the temporal schedule scenario: ten slots cycling
/// through three profiles and four links give ~60 connected rounds, enough
/// activation draws that a 0.7 probability reliably yields both synced and
/// idle rounds for the pinned seed.
const SCHEDULE_CLIENTS: usize = 10;

/// One payload a target can write besides its text: `flag PATH` on the
/// command line selects it, `-` streams it to stdout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dump {
    /// The path-valued flag that asks for this payload (`--json`, …).
    pub(crate) flag: &'static str,
    /// The rendered payload.
    pub(crate) payload: String,
    /// What the payload is, for the "wrote … to PATH" note.
    pub(crate) what: &'static str,
}

/// What one run of a target produced: its text sections, in print order,
/// the payloads its flags can select, in write order, and the gate
/// metrics of the suite it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The rendered report sections.
    pub(crate) reports: Vec<Report>,
    /// The selectable payloads.
    pub(crate) dumps: Vec<Dump>,
    /// The run's gate metrics, under its row's prefixes (collected only
    /// from a gated row's run at its gate arguments).
    pub(crate) metrics: Vec<(String, f64)>,
}

impl Output {
    fn text(reports: Vec<Report>) -> Output {
        Output { reports, dumps: Vec::new(), metrics: Vec::new() }
    }

    fn dump(mut self, flag: &'static str, payload: String, what: &'static str) -> Output {
        self.dumps.push(Dump { flag, payload, what });
        self
    }

    fn gate(self, metrics: Vec<(String, f64)>) -> Output {
        Output { metrics, ..self }
    }

    /// One report section plus the suite's `--json` dump.
    fn json(report: Report, json: String, what: &'static str) -> Output {
        Output::text(vec![report]).dump("--json", json, what)
    }

    /// The report sections as `repro` prints them: each a `==== title
    /// ====` line, its body, and a newline.
    pub fn render_text(&self) -> String {
        self.reports.iter().map(|r| format!("==== {} ====\n{}\n", r.title, r.body)).collect()
    }
}

/// Runs a target, given its command line (the target name first).
pub type Run = fn(&[String]) -> Output;

/// One row of the suite table.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The `repro` target name.
    pub name: &'static str,
    /// The flags the target reads, as the usage text shows them: the one
    /// declaration `repro` checks a command line against.
    pub flags: &'static str,
    /// The gate-key prefixes the row owns: every key its run returns
    /// starts with `<prefix>.` for exactly one of them. A dotted prefix
    /// (`hist.sync`) is a slice of a namespace several rows share.
    pub(crate) prefixes: &'static [&'static str],
    /// Whether `repro all` runs the row.
    pub in_all: bool,
    /// The target itself.
    pub run: Run,
    /// The arguments of the row's gate point, for rows that own prefixes:
    /// `repro <name> <gate>` is the run whose metrics the baseline holds
    /// and whose text and dumps the golden files hold.
    pub(crate) gate: Option<&'static str>,
}

impl Suite {
    /// The shape of the paper's own targets, which other rows start from:
    /// no flags, part of `all`, gating nothing.
    const fn figure(name: &'static str, run: Run) -> Suite {
        Suite { name, flags: "", prefixes: &[], in_all: true, run, gate: None }
    }

    /// Runs the row at its gate point, as `repro <name> <gate>` does: its
    /// text, dumps and gate metrics; `None` for a row that gates nothing.
    /// Panics on a metric under none of the row's prefixes, which the
    /// baseline could not attribute to the row.
    pub(crate) fn gate_run(&self) -> Option<Output> {
        let args = format!("{} {}", self.name, self.gate?);
        let run = (self.run)(&args.split_whitespace().map(String::from).collect::<Vec<_>>());
        for (key, _) in &run.metrics {
            let owned = self.prefixes.iter().any(|p| key.starts_with(&format!("{p}.")));
            assert!(owned, "{}: {key} is under none of the row's prefixes", self.name);
        }
        Some(run)
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
        gate: Some("--reps 2"),
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
        gate: Some(""),
        ..Suite::figure("fleet", |_| {
            let suite = run_fleet_scaling(&ServiceProfile::dropbox(), &FLEET_SIZES, REPRO_SEED);
            Output::text(vec![suite.report()]).gate(suite.gate_metrics())
        })
    },
    Suite {
        prefixes: &["hetero", "gc"],
        gate: Some(""),
        ..Suite::figure("hetero", |_| {
            let suite = run_hetero(HETERO_CLIENTS, REPRO_SEED);
            Output::text(vec![suite.report()]).gate(suite.gate_metrics())
        })
    },
    Suite {
        flags: JSON,
        prefixes: &["restore", "hist.restore"],
        gate: Some(""),
        ..Suite::figure("restore", |_| {
            let suite = run_restore(RESTORE_CLIENTS, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the restore suite")
                .gate(suite.gate_metrics())
        })
    },
    Suite {
        flags: JSON,
        prefixes: &["schedule"],
        gate: Some(""),
        ..Suite::figure("schedule", |_| {
            let suite = run_schedule(SCHEDULE_CLIENTS, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the schedule suite")
                .gate(suite.gate_metrics())
        })
    },
    Suite {
        flags: JSON,
        prefixes: &["faults", "hist.backoff"],
        gate: Some(""),
        ..Suite::figure("faults", |_| {
            let suite = run_faults(REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the faults suite")
                .gate(suite.gate_metrics())
        })
    },
    Suite {
        flags: "[--clients N] [--json PATH] [--capture PATH]",
        prefixes: &["fleetscale", "hist.scale_transfer"],
        in_all: false,
        gate: Some("--clients 10000"),
        ..Suite::figure("fleet-scale", fleet_scale)
    },
    Suite {
        flags: "--capture PATH [--link PRESET | --profile SERVICE] [--json PATH]",
        in_all: false,
        ..Suite::figure("replay", replay)
    },
    Suite {
        flags: "[--clients N] [--partitions K] [--capture PATH] [--json PATH]",
        prefixes: &["partition"],
        in_all: false,
        gate: Some("--clients 10000 --partitions 8"),
        ..Suite::figure("partition", partition)
    },
    Suite {
        flags: "[--clients N] [--json PATH]",
        prefixes: &["trace"],
        in_all: false,
        gate: Some("--clients 10000"),
        ..Suite::figure("trace", |args| {
            let clients = parse_clients(args, &usage());
            if let Err(err) = scale_spec(clients, REPRO_SEED).check_traceable() {
                die_usage(&err, &usage());
            }
            let suite = run_trace_overhead(clients, REPRO_SEED);
            Output::json(suite.report(), Report::to_json(&suite), "the trace-overhead suite")
                .gate(suite.gate_metrics())
        })
    },
];

/// Finds a row by its `repro` target name.
pub fn by_name(name: &str) -> Option<&'static Suite> {
    TABLE.iter().find(|s| s.name == name)
}

/// The `repro suites` listing: one `name<TAB>gate arguments` line per
/// gated row, in table order. Tab-separated so shell consumers can
/// `read -r name args` without quoting trouble.
pub fn render_table() -> String {
    TABLE.iter().filter_map(|s| Some(format!("{}\t{}\n", s.name, s.gate?))).collect()
}

/// `repro`'s usage text: one line per target with the flags it reads, and
/// the three table-level commands.
pub fn usage() -> String {
    let targets: Vec<String> = TABLE
        .iter()
        .map(|s| format!("repro {} {}", s.name, s.flags).trim_end().to_string())
        .collect();
    format!(
        "usage: repro [all] {REPS}\n       {}\n       repro suites\n       repro bench-json [PATH]",
        targets.join("\n       ")
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
    let reports = panels.iter().map(|panel| Report::figure6(&suite, *panel)).collect();
    Output::text(reports).gate(suite.gate_metrics())
}

/// `--capture PATH` additionally records the workload as a versioned JSONL
/// capture for `replay` / `partition --capture`.
fn fleet_scale(args: &[String]) -> Output {
    let clients = parse_clients(args, &usage());
    let capture = parse_path(args, "--capture", &usage()).is_some();
    let suite = run_fleet_scale(clients, REPRO_SEED);
    let out = Output::json(suite.report(), Report::to_json(&suite), "the fleet-scale suite")
        .gate(suite.gate_metrics());
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
    Output::text(vec![suite.report(), suite.merged.report()])
        .dump("--json", Report::to_json(&suite.merged), "the merged partitioned suite")
        .gate(suite.gate_metrics())
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
        let gated: Vec<&Suite> = TABLE.iter().filter(|s| s.gate.is_some()).collect();
        assert_eq!(table.lines().count(), gated.len());
        for (line, suite) in table.lines().zip(gated) {
            assert_eq!(line.split_once('\t'), Some((suite.name, suite.gate.unwrap_or_default())));
        }
    }

    /// `repro suites` is the list of prefix-owning rows: every prefix is
    /// owned by a row it names, and every row it names owns prefixes.
    #[test]
    fn prefix_list_names_every_suite() {
        let table = render_table();
        let listed: Vec<&str> = table.lines().filter_map(|l| l.split('\t').next()).collect();
        for suite in TABLE {
            for prefix in suite.prefixes {
                assert!(listed.contains(&suite.name), "{prefix}'s row missing from {table}");
            }
        }
        for name in listed {
            let owns = by_name(name).is_some_and(|s| !s.prefixes.is_empty());
            assert!(owns, "{name} is listed but owns no prefix");
        }
    }

    /// A gate point is a command line `repro` accepts: every flag of a
    /// row's gate arguments is one the row declares, each with a value.
    #[test]
    fn gate_arguments_are_flags_the_row_declares() {
        for suite in TABLE {
            let args: Vec<&str> = suite.gate.unwrap_or_default().split_whitespace().collect();
            for pair in args.chunks(2) {
                let (flag, value) = (pair[0], pair.get(1).copied().unwrap_or_default());
                assert!(suite.flags.contains(&format!("[{flag} ")), "{}: {flag}", suite.name);
                assert!(!value.is_empty() && !value.starts_with("--"), "{}: {flag}", suite.name);
            }
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
        for needle in ["repro suites", "repro bench-json [PATH]"] {
            assert!(usage.contains(needle), "{needle} missing from: {usage}");
        }
    }
}
