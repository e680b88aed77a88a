//! The four workloads at quick size, in process: digests, cross-checks
//! and the failure accounting.

use cloudbench_perf::run::{self, RunConfig, Verdict};
use cloudbench_perf::spans::Spans;
use cloudbench_perf::workloads::{self, expected_digest, Check, Size, DEFAULT_SEED, NAMES};

fn quick(workload: &str, seed: u64) -> run::RunResult {
    let config = RunConfig {
        workload: workload.to_string(),
        seed,
        size: Size::Quick,
        warmup: 1,
        iterations: 2,
        cap_seconds: f64::INFINITY,
    };
    run::run(&config, &Spans::off()).expect("a known workload")
}

#[test]
fn every_workload_reproduces_its_committed_digest_on_the_default_seed() {
    for name in NAMES {
        let result = quick(name, DEFAULT_SEED);
        assert_eq!(
            Some(result.digest),
            expected_digest(name, Size::Quick, DEFAULT_SEED),
            "{name}: digest {:#018x} — a simulated output changed; if that is intended, refresh EXPECTED",
            result.digest
        );
        assert!(result.correct(), "{name}: {} of {} ops failed", result.failed, result.attempted);
        assert_eq!(result.samples.len(), 2);
        assert_eq!(result.attempted, result.ops * 3, "warm-up iterations are judged too");
        assert!(result.ops_per_s() > 0.0 && result.peak_rss_mb > 0.0);
        assert!(result.setup().median > 0.0 && result.wall().median > 0.0);
    }
}

#[test]
fn another_seed_changes_the_digest_and_still_passes_every_internal_equality() {
    // For `replay_trace` this is the three-way cross-check (partitioned
    // merge == unsliced replay == traced run) on a second seed.
    for name in NAMES {
        let other = quick(name, 0xBEEF);
        assert!(
            other.correct(),
            "{name}: {} of {} ops failed on seed 0xBEEF",
            other.failed,
            other.attempted
        );
        assert_ne!(Some(other.digest), expected_digest(name, Size::Quick, DEFAULT_SEED), "{name}");
        assert_eq!(
            expected_digest(name, Size::Quick, 0xBEEF),
            None,
            "no digest is committed for other seeds"
        );
    }
}

#[test]
fn the_iteration_count_is_fixed_and_the_time_cap_only_ever_cuts_it_short() {
    let config = |cap_seconds| RunConfig {
        workload: "scale_commit".to_string(),
        seed: DEFAULT_SEED,
        size: Size::Quick,
        warmup: 0,
        iterations: run::MIN_ITERATIONS + 3,
        cap_seconds,
    };
    let run = |cap| run::run(&config(cap), &Spans::off()).expect("a known workload").samples.len();
    // However fast the iterations are, a generous cap adds none ...
    assert_eq!(run(f64::INFINITY), run::MIN_ITERATIONS + 3);
    assert_eq!(run(3600.0), run::MIN_ITERATIONS + 3);
    // ... and a cap that has already run out leaves the minimum.
    assert_eq!(run(0.0), run::MIN_ITERATIONS);
}

#[test]
fn a_digest_mismatch_fails_every_operation_of_its_iteration() {
    let mut verdict = Verdict::new("scale_commit", Size::Quick, 7);
    verdict.judge(100, &Check { digest: 1, failed_ops: 0 });
    verdict.judge(100, &Check { digest: 1, failed_ops: 3 });
    assert_eq!((verdict.attempted, verdict.failed), (200, 3));
    verdict.judge(100, &Check { digest: 2, failed_ops: 0 });
    assert_eq!(
        (verdict.attempted, verdict.failed),
        (300, 103),
        "iteration 2 disagrees with iteration 0"
    );
    assert_eq!(verdict.digest(), 1);

    // On the default seed the committed digest binds from the first
    // iteration on.
    let mut verdict = Verdict::new("scale_commit", Size::Quick, DEFAULT_SEED);
    verdict.judge(100, &Check { digest: 1, failed_ops: 0 });
    assert_eq!(verdict.failed, 100);
    let committed = expected_digest("scale_commit", Size::Quick, DEFAULT_SEED).unwrap();
    let mut verdict = Verdict::new("scale_commit", Size::Quick, DEFAULT_SEED);
    verdict.judge(100, &Check { digest: committed, failed_ops: 0 });
    assert_eq!(verdict.failed, 0);
}

#[test]
fn unknown_workloads_are_an_error_not_a_panic() {
    let config = RunConfig {
        workload: "nope".to_string(),
        seed: 1,
        size: Size::Quick,
        warmup: 0,
        iterations: 1,
        cap_seconds: f64::INFINITY,
    };
    let err = run::run(&config, &Spans::off()).unwrap_err();
    assert!(err.contains("nope") && err.contains("scale_commit"), "{err}");
    assert!(workloads::build("nope", Size::Quick, 1).is_none());
}

#[test]
fn a_traced_iteration_records_the_phase_spans_the_decomposition_reads() {
    let spans = Spans::on();
    let config = RunConfig {
        workload: "replay_trace".to_string(),
        seed: DEFAULT_SEED,
        size: Size::Quick,
        warmup: 0,
        iterations: 1,
        cap_seconds: f64::INFINITY,
    };
    let result = run::run(&config, &spans).expect("a known workload");
    assert!(result.correct());
    let names: Vec<String> = spans.records().into_iter().map(|r| r.name).collect();
    for expected in [
        "replay_trace",
        "iteration",
        "reset",
        "services.capture_render",
        "run",
        "services.capture_parse",
        "services.replay_partitioned",
        "services.run_scale_traced",
        "trace.flow_table",
        "check",
    ] {
        assert!(names.iter().any(|n| n == expected), "no span called {expected} in {names:?}");
    }
}
