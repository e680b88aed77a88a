//! Two host-time bounds on the concurrent paths, kept as ignored release
//! tests because a debug build or a loaded host says nothing about them:
//!
//! 1. the concurrent 8-client Dropbox fleet runs within 1.15× of its
//!    sequential replay;
//! 2. the default 16-shard store runs within 1.15× of one lock under an
//!    8-thread commit storm.
//!
//! Each side is the best of 3 wall times, and the 15 % grace absorbs
//! scheduler noise: on a shared or single-core host parity is the honest
//! bound. Each test first asserts that both sides end in the same state,
//! then prints both times and their ratio. The fleet's real speed-up is
//! `perf/`'s `services.fleet_nw_speedup` row.
//!
//! Run with:
//! `cargo test --release -p cloudbench-bench --test timing_bounds -- --ignored --nocapture`

use cloudbench::fleet::fleet_spec;
use cloudbench_bench::REPRO_SEED;
use cloudsim_services::fleet::run_fleet;
use cloudsim_services::ServiceProfile;
use cloudsim_storage::{sha256, ObjectStore, StoredChunk};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The grace factor of both bounds.
const GRACE: f64 = 1.15;

/// Held for a whole test: the harness runs tests on parallel threads, and
/// each bound times the cores the other would be using.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

/// A raw commit storm: `threads` users, each putting `puts` 4 KiB chunks,
/// every third of them shared across all users. It isolates store-lock
/// contention from the simulation work around it.
fn commit_storm(store: &ObjectStore, threads: usize, puts: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = store.clone();
            scope.spawn(move || {
                let user = format!("storm-user-{t}");
                for i in 0..puts {
                    let key =
                        if i % 3 == 0 { format!("shared-{i}") } else { format!("{user}-{i}") };
                    let hash = sha256(key.as_bytes());
                    store.put_chunk(&user, StoredChunk { hash, stored_len: 4096, plain_len: 4096 });
                }
            });
        }
    });
}

#[test]
#[ignore = "host-time bound; run in release with --ignored"]
fn the_sharded_store_keeps_up_with_one_lock_under_a_storm() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (threads, puts) = (8, 4000);
    let (sharded, single) = (ObjectStore::new(), ObjectStore::with_shards(1));
    commit_storm(&sharded, threads, puts);
    commit_storm(&single, threads, puts);
    assert_eq!(sharded.aggregate(), single.aggregate(), "shard count changed store semantics");

    let sharded_t = best_of(3, || commit_storm(&ObjectStore::new(), threads, puts));
    let single_t = best_of(3, || commit_storm(&ObjectStore::with_shards(1), threads, puts));
    assert_within_grace(
        &format!("commit storm {threads}x{puts}"),
        ("sharded", sharded_t),
        ("single-lock", single_t),
    );
}
