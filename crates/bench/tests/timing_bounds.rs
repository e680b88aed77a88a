//! A host-time bound on the concurrent fleet, kept as an ignored release
//! test because a debug build or a loaded host says nothing about it: the
//! concurrent 8-client Dropbox fleet runs within 1.15× of its sequential
//! replay.
//!
//! Each side is the best of 3 wall times, and the 15 % grace absorbs
//! scheduler noise: on a shared or single-core host parity is the honest
//! bound. The test first asserts that both sides end in the same state,
//! then prints both times and their ratio. The fleet's real speed-up is
//! `perf/`'s `services.fleet_nw_speedup` row.
//!
//! Run with:
//! `cargo test --release -p cloudbench-bench --test timing_bounds -- --ignored --nocapture`

use cloudbench::fleet::fleet_spec;
use cloudbench_bench::REPRO_SEED;
use cloudsim_services::fleet::run_fleet;
use cloudsim_services::ServiceProfile;
use cloudsim_storage::ObjectStore;
use std::time::{Duration, Instant};

/// The grace factor of the bound.
const GRACE: f64 = 1.15;

/// Best-of-N wall time of a closure (the minimum filters scheduler noise).
fn best_of<F: FnMut()>(n: usize, mut f: F) -> Duration {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("n > 0")
}

/// Prints both times and the ratio, then asserts `fast` within [`GRACE`]
/// of `slow`.
fn assert_within_grace(what: &str, fast: (&str, Duration), slow: (&str, Duration)) {
    let (f, s) = (fast.1.as_secs_f64(), slow.1.as_secs_f64());
    println!(
        "{what}: {} {:.1} ms vs {} {:.1} ms ({:.2}x)",
        fast.0,
        f * 1e3,
        slow.0,
        s * 1e3,
        s / f.max(1e-9)
    );
    assert!(
        f <= s * GRACE,
        "{what}: {} ({:?}) slower than {} ({:?})",
        fast.0,
        fast.1,
        slow.0,
        slow.1
    );
}

#[test]
#[ignore = "host-time bound; run in release with --ignored"]
fn the_concurrent_fleet_keeps_up_with_its_sequential_replay() {
    let spec = fleet_spec(&ServiceProfile::dropbox(), 8, REPRO_SEED);
    let concurrent = run_fleet(&spec, ObjectStore::new(), spec.clients());
    let sequential = run_fleet(&spec, ObjectStore::new(), 1);
    assert_eq!(concurrent.clients, sequential.clients, "concurrent fleet diverged");
    assert_eq!(concurrent.aggregate(), sequential.aggregate(), "aggregate store stats diverged");
    for summary in &concurrent.clients {
        assert_eq!(
            concurrent.store.stats(&summary.user),
            sequential.store.stats(&summary.user),
            "per-user stats diverged for {}",
            summary.user
        );
    }

    let concurrent_t = best_of(3, || {
        run_fleet(&spec, ObjectStore::new(), spec.clients());
    });
    let sequential_t = best_of(3, || {
        run_fleet(&spec, ObjectStore::new(), 1);
    });
    assert_within_grace(
        "fleet 8 clients",
        ("concurrent", concurrent_t),
        ("sequential replay", sequential_t),
    );
}
