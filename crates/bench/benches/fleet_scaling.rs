//! Fleet scaling: concurrent multi-client sync into one sharded store.
//!
//! Two acceptance invariants ride along with the measurements (asserted on
//! every run, including the CI smoke run):
//!
//! 1. **Determinism** — a concurrent 8-client fleet produces bit-identical
//!    per-client outcomes and aggregate store statistics to a sequential
//!    replay of the same clients.
//! 2. **Throughput** — at 8+ clients, the concurrent fleet against the
//!    sharded store is at least as fast (wall-clock, 15% grace for
//!    scheduler noise) as the sequential replay, and a raw multi-threaded
//!    commit storm against the sharded store is at least as fast as against
//!    the single-lock (1-shard) layout. On shared CI runners or single-core
//!    hosts parity is the honest bound; the fleet's real speedup is
//!    `perf/`'s `services.fleet_nw_speedup` row.
//!
//! Run with: `cargo bench -p cloudbench-bench --bench fleet_scaling`

use cloudbench::fleet::fleet_spec;
use cloudbench_bench::REPRO_SEED;
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::ServiceProfile;
use cloudsim_storage::{sha256, ObjectStore, StoredChunk};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};

/// Best-of-N wall time of a closure (minimum filters scheduler noise).
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

/// A raw commit storm: `threads` users, each committing `puts` small chunks
/// (with heavy cross-user overlap) plus one manifest per 16 chunks. This
/// isolates store-lock contention from the simulation work around it.
fn commit_storm(store: &ObjectStore, threads: usize, puts: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = store.clone();
            scope.spawn(move || {
                let user = format!("storm-user-{t}");
                for i in 0..puts {
                    // Every third chunk is shared across all users.
                    let key =
                        if i % 3 == 0 { format!("shared-{i}") } else { format!("{user}-{i}") };
                    let hash = sha256(key.as_bytes());
                    store.put_chunk(&user, StoredChunk { hash, stored_len: 4096, plain_len: 4096 });
                }
            });
        }
    });
}

fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));

    for clients in [1usize, 2, 8, 32] {
        let spec = fleet_spec(&ServiceProfile::dropbox(), clients, REPRO_SEED);
        group.throughput(Throughput::Bytes(spec.total_logical_bytes()));
        group.bench_with_input(
            BenchmarkId::new("concurrent", clients),
            &spec,
            |b, spec: &FleetSpec| b.iter(|| run_fleet(spec, ObjectStore::new(), spec.clients())),
        );
    }
    group.finish();
}

fn acceptance(c: &mut Criterion) {
    // --- Invariant 1: concurrent == sequential replay, bit for bit. ---
    let spec = fleet_spec(&ServiceProfile::dropbox(), 8, REPRO_SEED);
    let concurrent = run_fleet(&spec, ObjectStore::new(), spec.clients());
    let sequential = run_fleet(&spec, ObjectStore::new(), 1);
    assert_eq!(
        concurrent.clients, sequential.clients,
        "concurrent fleet diverged from sequential replay"
    );
    assert_eq!(concurrent.aggregate(), sequential.aggregate(), "aggregate store stats diverged");
    for summary in &concurrent.clients {
        assert_eq!(
            concurrent.store.stats(&summary.user),
            sequential.store.stats(&summary.user),
            "per-user stats diverged for {}",
            summary.user
        );
    }

    // --- Invariant 2a: concurrent fleet >= sequential-replay throughput. ---
    // Minimum of three runs each; 15% grace absorbs scheduler noise on
    // small or noisy-neighbor CI runners.
    let concurrent_t = best_of(3, || {
        run_fleet(&spec, ObjectStore::new(), spec.clients());
    });
    let sequential_t = best_of(3, || {
        run_fleet(&spec, ObjectStore::new(), 1);
    });
    println!(
        "fleet 8 clients: concurrent {:.1} ms vs sequential replay {:.1} ms ({:.2}x)",
        concurrent_t.as_secs_f64() * 1e3,
        sequential_t.as_secs_f64() * 1e3,
        sequential_t.as_secs_f64() / concurrent_t.as_secs_f64().max(1e-9),
    );
    assert!(
        concurrent_t.as_secs_f64() <= sequential_t.as_secs_f64() * 1.15,
        "concurrent fleet ({concurrent_t:?}) slower than sequential replay ({sequential_t:?})"
    );

    // --- Invariant 2b: sharded store >= single-lock store under a storm. ---
    let threads = 8;
    let puts = 4000;
    let sharded_t = best_of(3, || {
        commit_storm(&ObjectStore::new(), threads, puts);
    });
    let single_t = best_of(3, || {
        commit_storm(&ObjectStore::with_shards(1), threads, puts);
    });
    println!(
        "commit storm {threads}x{puts}: sharded {:.1} ms vs single-lock {:.1} ms ({:.2}x)",
        sharded_t.as_secs_f64() * 1e3,
        single_t.as_secs_f64() * 1e3,
        single_t.as_secs_f64() / sharded_t.as_secs_f64().max(1e-9),
    );
    assert!(
        sharded_t.as_secs_f64() <= single_t.as_secs_f64() * 1.15,
        "sharded store ({sharded_t:?}) slower than single-lock ({single_t:?})"
    );
    // The storm's final state is shard-count independent.
    let a = ObjectStore::new();
    let b = ObjectStore::with_shards(1);
    commit_storm(&a, threads, 512);
    commit_storm(&b, threads, 512);
    assert_eq!(a.aggregate(), b.aggregate(), "shard count changed store semantics");

    // Keep the numbers visible in the bench listing too.
    let mut group = c.benchmark_group("fleet_acceptance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements((threads * puts) as u64));
    group.bench_with_input(BenchmarkId::new("commit_storm", "sharded"), &(), |b, ()| {
        b.iter(|| commit_storm(&ObjectStore::new(), threads, puts))
    });
    group.bench_with_input(BenchmarkId::new("commit_storm", "single_lock"), &(), |b, ()| {
        b.iter(|| commit_storm(&ObjectStore::with_shards(1), threads, puts))
    });
    group.finish();
}

criterion_group!(benches, scaling, acceptance);
criterion_main!(benches);
