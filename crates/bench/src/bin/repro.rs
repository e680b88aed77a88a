//! `repro` — regenerate every table and figure of the paper, and run the
//! beyond-paper suites.
//!
//! `repro <target> [flags]` runs one row of the suite table
//! ([`cloudbench_bench::suites::TABLE`]); the usage text printed on any
//! malformed invocation lists every target with the flags it reads, so
//! neither is repeated here. Three commands act on the table itself:
//!
//! * `repro all` (the default) runs every row marked `in_all`, text only.
//!   `fleet-scale`, `partition` and `trace` are left out: at their default
//!   population they run for minutes, not seconds.
//! * `repro suites` prints each gated row's name and gate arguments, one
//!   tab-separated line each: `repro <name> <arguments>` prints what the
//!   row's golden files under `crates/bench/tests/golden` hold.
//! * `repro bench-json [PATH]` runs each gated row once at its gate
//!   arguments and dumps the metrics as flat JSON (to PATH, default
//!   stdout): what `bench_baseline.json` holds, byte for byte.
//!
//! Every flag goes through the shared [`cloudbench_bench::cli`] surface:
//! a target accepts only the flags its row declares, each with a value
//! that is not itself a flag; a path-valued flag (`--json`, `--capture`)
//! takes `-` for stdout, and `--json -` streams the JSON *instead of* the
//! text report; counted flags reject missing/malformed/zero values with the
//! usage text and exit code 2.
//!
//! Every byte on stdout depends only on the command line. Host time has
//! one reader, `main`: a target, or `all`, ends with one stderr line,
//! `repro <target>: <seconds> s`, timing the whole invocation.
//! Absolute values differ from the 2013 testbed; a ledger of the
//! paper-vs-measured comparison for every target is ROADMAP item 8.

use cloudbench_bench::cli::{check_flags, die_usage, emit, parse_count, write_payload};
use cloudbench_bench::gate::render_flat;
use cloudbench_bench::metrics::collect;
use cloudbench_bench::suites::{by_name, render_table, usage, REPS, TABLE};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(|s| s.as_str()).unwrap_or("all");
    let usage = usage();
    let row = by_name(target);
    let flags = match target {
        "all" => REPS,
        "suites" | "bench-json" => "",
        name => {
            row.map_or_else(|| die_usage(&format!("unknown target '{name}'"), &usage), |s| s.flags)
        }
    };
    check_flags(&args, flags, &usage);

    let started = Instant::now();
    match target {
        "all" => {
            parse_count(&args, "--reps", 1, &usage);
            for suite in TABLE.iter().filter(|s| s.in_all) {
                print!("{}", (suite.run)(&args).render_text());
            }
        }
        "suites" => print!("{}", render_table()),
        "bench-json" => {
            let metrics = collect();
            let what = format!("{} metrics", metrics.len());
            write_payload(args.get(1).map_or("-", String::as_str), &render_flat(&metrics), &what);
        }
        _ => {
            let suite = row.expect("an unknown target died above");
            emit(&(suite.run)(&args), &args, &usage);
        }
    }
    if !matches!(target, "suites" | "bench-json") {
        eprintln!("repro {target}: {:.2} s", started.elapsed().as_secs_f64());
    }
}
