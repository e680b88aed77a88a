//! The `repro` binary's shared argument-parsing surface.
//!
//! Every subcommand used to hand-roll its own flag handling, which let the
//! conventions drift: one flag silently fell back to its default on a parse
//! error while the next printed usage and exited. This module is the single
//! surface all subcommands go through — `--json [PATH|-]` resolves the same
//! way everywhere, counted flags (`--clients N`, `--partitions K`,
//! `--reps N`) reject missing/malformed/zero values with the usage text on
//! stderr and exit code [`USAGE_EXIT`], path-valued flags reject a
//! dangling flag the same way, and [`check_flags`] rejects a flag the
//! target does not declare or whose value is another flag. It lives in the
//! library crate (rather than in `repro.rs`) so the contract is
//! unit-testable and any future binary inherits the same conventions.

use cloudbench::report::Report;
use cloudsim_services::capture::{parse_capture, FleetCapture};
use cloudsim_services::scale::ScaleSpec;

use crate::suites::Output;

/// The exit code for a CLI-surface error (unknown target, bad flag value,
/// unreadable or unusable input file), as distinct from a failure to write
/// an output (exit 1).
pub const USAGE_EXIT: i32 = 2;

/// The value following `--flag`, if present and not itself a `--flag`.
pub fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let value = args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    value.map(String::as_str).filter(|v| !v.starts_with("--"))
}

/// True when `--flag` itself appears, whether or not a value follows.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Prints `message` plus the usage text to stderr and exits with
/// [`USAGE_EXIT`] — the one error path every malformed invocation funnels
/// through.
pub fn die_usage(message: &str, usage: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{usage}");
    std::process::exit(USAGE_EXIT);
}

/// Prints `message` to stderr and exits with [`USAGE_EXIT`]: the input file
/// named on the command line cannot be used. No usage text — the invocation
/// was well-formed, the file was not.
pub fn bad_input(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(USAGE_EXIT);
}

/// Reads and parses the capture at `path`, or dies through [`bad_input`]
/// naming the file and the reason.
pub fn load_capture(path: &str) -> FleetCapture {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| parse_capture(&text).map_err(|e| format!("cannot parse {path}: {e}")))
        .unwrap_or_else(|e| bad_input(&e))
}

/// Checks a command line against the flags its target declares (`flags`,
/// as the usage text shows them): every `--word` must be one of them, with
/// a value that is not itself a flag. Dies with usage otherwise, before
/// anything runs, so a misspelt flag never runs the defaults and a flag
/// never becomes a file name.
pub fn check_flags(args: &[String], flags: &str, usage: &str) {
    let declared: Vec<&str> = flags
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    for flag in args.iter().filter(|a| a.starts_with("--")) {
        if !declared.contains(&flag.as_str()) {
            die_usage(&format!("unknown flag '{flag}'"), usage);
        }
        parse_path(args, flag, usage);
    }
}

/// Resolves a counted flag (`--clients N`, `--partitions K`, `--reps N`):
/// absent means `default`; present demands a positive integer value and
/// dies with usage otherwise. A silent fallback here would turn a typo
/// like `--clients 10k` into a full 100 000-client run.
pub fn parse_count(args: &[String], flag: &str, default: usize, usage: &str) -> usize {
    if !has_flag(args, flag) {
        return default;
    }
    match arg_value(args, flag) {
        Some(v) => v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            die_usage(&format!("{flag} needs a positive integer, got '{v}'"), usage)
        }),
        None => die_usage(&format!("{flag} needs a value"), usage),
    }
}

/// The shared `--clients` flag: every population-scale subcommand defaults
/// to the paper-scale 100 000 clients. A population past
/// [`ScaleSpec::MAX_CLIENTS`] cannot be indexed by the store's `u32` user
/// ids; it dies with usage here rather than panicking (or exhausting
/// memory) inside the run.
pub fn parse_clients(args: &[String], usage: &str) -> usize {
    let clients = parse_count(args, "--clients", 100_000, usage);
    if clients > ScaleSpec::MAX_CLIENTS {
        let most = ScaleSpec::MAX_CLIENTS;
        die_usage(&format!("--clients must be at most {most}, got {clients}"), usage);
    }
    clients
}

/// Resolves a string-valued flag (`--json`, `--capture`, `--link`,
/// `--profile`): absent is `None`; present without a value dies with usage
/// instead of being silently ignored.
pub fn parse_path<'a>(args: &'a [String], flag: &str, usage: &str) -> Option<&'a str> {
    if !has_flag(args, flag) {
        return None;
    }
    match arg_value(args, flag) {
        Some(v) => Some(v),
        None => die_usage(&format!("{flag} needs a value"), usage),
    }
}

/// Prints a rendered report section.
pub fn print_report(report: &Report) {
    println!("==== {} ====", report.title);
    println!("{}", report.body);
}

/// Writes `payload` to `path`, with `-` streaming it to stdout.
pub fn write_payload(path: &str, payload: &str, what: &str) {
    if path == "-" {
        print!("{payload}");
    } else {
        std::fs::write(path, payload).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {what} to {path}");
    }
}

/// Prints what a target produced: its report sections, then every payload
/// whose flag is on the command line. `--json -` replaces the text with the
/// JSON stream (the report of some suites carries wall-clock time, the JSON
/// never does — CI `cmp`s the stream); any other path gets the payload
/// alongside the text.
pub fn emit(output: &Output, args: &[String], usage: &str) {
    let selected: Vec<_> = output
        .dumps
        .iter()
        .filter_map(|dump| parse_path(args, dump.flag, usage).map(|path| (path, dump)))
        .collect();
    if !selected.iter().any(|(path, dump)| dump.flag == "--json" && *path == "-") {
        output.reports.iter().for_each(print_report);
    }
    for (path, dump) in selected {
        write_payload(path, &dump.payload, dump.what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_value_finds_the_following_token() {
        let a = args(&["fleet-scale", "--clients", "500", "--json", "-"]);
        assert_eq!(arg_value(&a, "--clients"), Some("500"));
        assert_eq!(arg_value(&a, "--json"), Some("-"));
        assert_eq!(arg_value(&a, "--capture"), None);
        // A dangling flag has no value; presence is tracked separately.
        let dangling = args(&["partition", "--json"]);
        assert_eq!(arg_value(&dangling, "--json"), None);
        assert!(has_flag(&dangling, "--json"));
        assert!(!has_flag(&dangling, "--clients"));
        // Nor has a flag followed by another flag.
        let swallowing = args(&["fleet-scale", "--json", "--capture", "x.jsonl"]);
        assert_eq!(arg_value(&swallowing, "--json"), None);
        assert_eq!(arg_value(&swallowing, "--capture"), Some("x.jsonl"));
    }

    #[test]
    fn counted_flags_fall_back_only_when_absent() {
        let a = args(&["fleet-scale"]);
        assert_eq!(parse_count(&a, "--clients", 100_000, "usage"), 100_000);
        assert_eq!(parse_clients(&a, "usage"), 100_000);
        let b = args(&["fleet-scale", "--clients", "42"]);
        assert_eq!(parse_clients(&b, "usage"), 42);
        // Malformed/zero/dangling values die with usage at exit 2 — pinned
        // end to end by the `repro_cli` integration tests, since
        // `die_usage` terminates the process.
    }

    #[test]
    fn path_flags_resolve_like_value_flags() {
        let a = args(&["replay", "--capture", "cap.jsonl"]);
        assert_eq!(parse_path(&a, "--capture", "usage"), Some("cap.jsonl"));
        assert_eq!(parse_path(&a, "--json", "usage"), None);
    }
}
