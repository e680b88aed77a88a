//! End-to-end tests of the `repro` binary's CLI surface: the suites
//! listing, the unknown-subcommand error path, a gated row's golden files
//! as the binary writes them, and the capture → replay round trip the CI
//! replay-fidelity leg `cmp`s.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch directory under the target-adjacent temp root.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn suites_prints_the_shared_table() {
    let out = repro(&["suites"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), cloudbench_bench::suites::render_table());
    // The listing is a contract with the workflow scripts: one
    // `name<TAB>gate arguments` line per gated row. Its bytes are pinned,
    // so a table edit that reorders, renames or re-sizes a row shows here.
    assert_eq!(
        stdout(&out),
        "fig6\t--reps 2\nfleet\t\nhetero\t\nrestore\t\nschedule\t\nfaults\t\n\
         fleet-scale\t--clients 10000\npartition\t--clients 10000 --partitions 8\n\
         trace\t--clients 10000\n"
    );
}

#[test]
fn unknown_subcommand_exits_nonzero_and_lists_the_valid_targets() {
    let out = repro(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown target 'frobnicate'"), "got: {err}");
    // The error must teach the valid surface (derived from the shared
    // table, never hardcoded stale).
    for needle in ["usage: repro", "fleet-scale", "replay", "suites", "bench-json"] {
        assert!(err.contains(needle), "{needle} missing from: {err}");
    }
    // Every table row is a target the error names.
    for suite in cloudbench_bench::suites::TABLE {
        assert!(err.contains(suite.name), "{} missing from: {err}", suite.name);
    }
}

/// The binary prints the goldens: `repro restore --json FILE` writes the
/// text golden to stdout and the JSON golden to FILE, so the in-process
/// render the gate test compares is what `repro` writes.
#[test]
fn restore_writes_its_golden_text_and_dump() {
    let dir = scratch("golden");
    let json = dir.join("restore.json");
    let out = repro(&["restore", "--json", json.to_str().expect("utf8")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let read = |path: &str| std::fs::read_to_string(path).expect("a written file");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/restore");
    assert_eq!(stdout(&out), read(&format!("{golden}.txt")), "stdout is not the text golden");
    assert_eq!(read(json.to_str().expect("utf8")), read(&format!("{golden}.json")));
}

/// The shared-CLI contract: counted flags reject malformed, zero and
/// dangling values with the usage text at exit 2 on every subcommand,
/// instead of silently falling back to their defaults (a typo like
/// `--clients 10k` used to launch a 100 000-client run).
#[test]
fn malformed_counted_flags_die_with_usage_everywhere() {
    for args in [
        ["fleet-scale", "--clients", "10k"].as_slice(),
        ["fleet-scale", "--clients", "0"].as_slice(),
        ["fleet-scale", "--clients"].as_slice(),
        ["partition", "--clients", "abc"].as_slice(),
        ["trace", "--clients", "-5"].as_slice(),
        // More clients than the store's u32 user ids can index: an error
        // naming the flag, not a wrapped id, a panic or an abort.
        ["fleet-scale", "--clients", "4294967296"].as_slice(),
        ["partition", "--clients", "268435456"].as_slice(),
        ["trace", "--clients", "18446744073709551615"].as_slice(),
        ["fig6", "--reps", "zero"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = stderr(&out);
        assert!(err.contains("usage: repro"), "{args:?}: usage missing from {err}");
        assert!(err.contains(args[1]), "{args:?}: offending flag missing from {err}");
    }
}

/// A target accepts only the flags its row declares, each with a value that
/// is not another flag: a misspelt flag used to run the 100 000-client
/// default, and `--json --capture x` wrote the suite to a file named
/// `--capture`. Each case exits 2 with the usage text, before anything runs
/// or is written.
#[test]
fn undeclared_and_valueless_flags_exit_2_and_write_nothing() {
    let dir = scratch("flags");
    let run = |args: &[&str]| {
        let repro = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).current_dir(&dir).output();
        repro.expect("repro spawns")
    };
    let out = run(&["fleet-scale", "--clients", "40", "--capture", "c.jsonl"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    for (args, flag) in [
        (["fleet-scale", "--clinets", "500", "--json", "-"].as_slice(), "--clinets"),
        (
            ["fleet-scale", "--clients", "500", "--json", "--capture", "x.jsonl"].as_slice(),
            "--json",
        ),
        (["table1", "--clients", "5"].as_slice(), "--clients"),
        (["replay", "--capture", "c.jsonl", "--metrics", "m.json"].as_slice(), "--metrics"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("usage: repro") && err.contains(flag), "{args:?}: got: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} printed: {}", stdout(&out));
    }
    let written: Vec<String> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written, ["c.jsonl"], "only the recorded capture may be in the directory");
}

/// The trace subcommand prints the same bytes on every run, text and JSON
/// dump alike, in a fresh process each time; the run's host time goes to
/// stderr alone.
#[test]
fn trace_repeats_its_text_and_its_dump_byte_for_byte() {
    let text: (&[&str], &[&str]) = (&[], &["Trace overhead", "packets/vsec"]);
    let dump: (&[&str], &[&str]) = (&["--json", "-"], &["\"packets\"", "\"overhead_ratio\""]);
    for (extra, shown) in [text, dump] {
        let args = [&["trace", "--clients", "300"][..], extra].concat();
        let a = repro(&args);
        assert!(a.status.success(), "stderr: {}", stderr(&a));
        assert_eq!(a.stdout, repro(&args).stdout, "{args:?} printed different bytes");
        assert!(stderr(&a).starts_with("repro trace: "), "got: {}", stderr(&a));
        for want in shown {
            assert!(stdout(&a).contains(want), "{want} missing from: {}", stdout(&a));
        }
    }
}

/// A traced population records client `i` from `10.(i>>16).(i>>8).i`, so
/// past 2^24 clients two clients would share an address: `repro trace`
/// exits 2 naming the limit, before anything runs, where the run used to
/// alias them without a word.
#[test]
fn trace_refuses_a_population_its_addresses_would_alias() {
    let out = repro(&["trace", "--clients", "16777217", "--json", "-"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("at most 16777216 clients: clients is 16777217"), "got: {err}");
    assert!(err.contains("usage: repro"), "usage missing from {err}");
    assert!(stdout(&out).is_empty(), "printed: {}", stdout(&out));
}

#[test]
fn replay_without_a_capture_fails_with_guidance() {
    let out = repro(&["replay"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--capture"), "got: {}", stderr(&out));
}

#[test]
fn replay_rejects_a_malformed_capture_file() {
    let dir = scratch("malformed");
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "{\"format\":\"not-a-capture\",\"version\":1}\n").expect("write");
    let out = repro(&["replay", "--capture", path.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot parse"), "got: {}", stderr(&out));
}

#[test]
fn replay_rejects_unknown_remap_names() {
    let dir = scratch("remap");
    let capture = dir.join("cap.jsonl");
    let out =
        repro(&["fleet-scale", "--clients", "40", "--capture", capture.to_str().expect("utf8")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let cap = capture.to_str().expect("utf8");
    let out = repro(&["replay", "--capture", cap, "--link", "carrier-pigeon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown link preset"), "got: {}", stderr(&out));

    let out = repro(&["replay", "--capture", cap, "--profile", "nopebox"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown service profile"), "got: {}", stderr(&out));

    let out = repro(&["replay", "--capture", cap, "--link", "adsl", "--profile", "dropbox"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("mutually exclusive"), "got: {err}");
    // The rejection teaches the valid surface, matching the
    // unknown-subcommand behaviour.
    assert!(err.contains("usage: repro"), "usage text missing from: {err}");
}

/// A capture that parses but cannot be replayed is a bad input file like
/// one that does not parse: `replay` and `partition --capture` both name
/// the reason and exit 2.
#[test]
fn unreplayable_captures_exit_2_on_both_subcommands() {
    let dir = scratch("boguslink");
    let capture = dir.join("cap.jsonl");
    let cap = capture.to_str().expect("utf8");
    let out = repro(&["fleet-scale", "--clients", "40", "--capture", cap]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&capture).expect("capture written");
    assert!(text.contains("\"adsl\""), "the capture names its links: {text}");
    std::fs::write(&capture, text.replace("\"adsl\"", "\"carrier-pigeon\"")).expect("rewrite");

    for args in [
        ["replay", "--capture", cap].as_slice(),
        ["partition", "--capture", cap, "--partitions", "2"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("replay failed"), "{args:?}: got: {err}");
        assert!(err.contains("carrier-pigeon"), "{args:?}: got: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} printed a report: {}", stdout(&out));
    }
}

/// Two captures whose numbers parse but whose run would wrap: an event
/// instant at the end of the virtual clock, and 2^60-byte files whose
/// events carry the matching bytes. Both exit 2 from `replay` and
/// `partition --capture`, name the offending field and write nothing.
#[test]
fn captures_that_would_wrap_exit_2_and_write_nothing() {
    let dir = scratch("wrap");
    let capture = dir.join("cap.jsonl");
    let cap = capture.to_str().expect("utf8");
    let out = repro(&["fleet-scale", "--clients", "40", "--capture", cap]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&capture).expect("capture written");
    assert!(text.contains("\"file_size\":65536") && text.contains("\"bytes\":262144"), "{text}");

    let (body, last) = text.trim_end().rsplit_once('\n').expect("header and events");
    let rest = last.split_once(',').expect("an event line").1;
    let late = format!("{body}\n{{\"t_us\":18446744073709551000,{rest}\n");
    let huge = text
        .replace("\"file_size\":65536", "\"file_size\":1152921504606846976")
        .replace("\"bytes\":262144", "\"bytes\":4611686018427387904");
    let json = dir.join("out.json");
    let json_path = json.to_str().expect("utf8");
    for (name, content, field) in [("late", late, "t_us"), ("huge", huge, "file_size")] {
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, content).expect("write capture");
        let path = path.to_str().expect("utf8");
        for args in [
            ["replay", "--capture", path, "--json", json_path].as_slice(),
            ["partition", "--capture", path, "--partitions", "2", "--json", json_path].as_slice(),
        ] {
            let out = repro(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains(field), "{args:?}: the error names no {field}: {err}");
            assert!(stdout(&out).is_empty(), "{args:?} printed a report: {}", stdout(&out));
            assert!(!json.exists(), "{args:?} wrote {json_path}");
        }
    }
}

/// The CI partition-determinism leg, end to end: the merged JSON dump is
/// byte-identical across partition counts, across capture-sliced vs. live
/// runs, and against the unsliced `fleet-scale` dump.
#[test]
fn partition_dumps_are_byte_identical_across_worker_counts() {
    let dir = scratch("partition");
    let capture = dir.join("cap.jsonl");
    let unsliced = dir.join("fleet.json");
    let out = repro(&[
        "fleet-scale",
        "--clients",
        "120",
        "--json",
        unsliced.to_str().expect("utf8"),
        "--capture",
        capture.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let reference = std::fs::read_to_string(&unsliced).expect("unsliced dump");

    for partitions in ["1", "5"] {
        let out =
            repro(&["partition", "--clients", "120", "--partitions", partitions, "--json", "-"]);
        assert!(out.status.success(), "k={partitions} stderr: {}", stderr(&out));
        assert_eq!(
            stdout(&out),
            reference,
            "k={partitions}: the merged dump must match the unsliced fleet-scale dump"
        );
    }

    // Sliced-capture recombine: contiguous slices replayed per partition
    // merge back to the same dump.
    let out = repro(&[
        "partition",
        "--capture",
        capture.to_str().expect("utf8"),
        "--partitions",
        "3",
        "--json",
        "-",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), reference, "sliced-capture recombine must match");

    // The text report carries the split accounting alongside the merged
    // population table.
    let out = repro(&["partition", "--clients", "120", "--partitions", "4"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Partitioned fleet"), "got: {text}");
    assert!(text.contains("Fleet scale"), "got: {text}");
    assert!(text.contains("commit skew"), "got: {text}");
}

#[test]
fn partition_rejects_degenerate_splits_with_usage() {
    let out = repro(&["partition", "--clients", "100", "--partitions", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--partitions"), "got: {err}");
    assert!(err.contains("usage: repro"), "usage text missing from: {err}");

    let out = repro(&["partition", "--clients", "3", "--partitions", "8"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("non-empty partitions"), "got: {err}");
    assert!(err.contains("usage: repro"), "usage text missing from: {err}");
}

/// The CI replay-fidelity leg, end to end: record a capture alongside the
/// live run's JSON dump, replay it same-mix, and require the two dumps to
/// be byte-identical.
#[test]
fn capture_replay_round_trip_is_byte_identical() {
    let dir = scratch("roundtrip");
    let capture = dir.join("cap.jsonl");
    let original = dir.join("orig.json");
    let out = repro(&[
        "fleet-scale",
        "--clients",
        "150",
        "--json",
        original.to_str().expect("utf8"),
        "--capture",
        capture.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let replayed = dir.join("replayed.json");
    let out = repro(&[
        "replay",
        "--capture",
        capture.to_str().expect("utf8"),
        "--json",
        replayed.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let a = std::fs::read_to_string(&original).expect("original dump");
    let b = std::fs::read_to_string(&replayed).expect("replayed dump");
    assert_eq!(a, b, "same-mix replay must reproduce the suite dump byte for byte");

    // A cross-mix replay of the same capture keeps the workload but moves
    // the timing: the dump must differ from the original.
    let out = repro(&[
        "replay",
        "--capture",
        capture.to_str().expect("utf8"),
        "--link",
        "3g",
        "--json",
        "-",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_ne!(stdout(&out), a, "an all-3g remap cannot reproduce the original timing");
}
