//! Trace overhead: what switching the packet capture on costs.
//!
//! The traced fleet-scale run appends every commit's packets into one
//! preallocated shard while it walks the timeline; the `workers` argument
//! of both runs is accepted and ignored.
//!
//! One acceptance invariant rides along with the measurements (asserted on
//! every run, including the CI smoke run): **pure observer** — the traced
//! run produces bit-identical simulation data (commits, volume, timeline,
//! store state) to the traceless run of the same spec, and the capture is
//! bit-identical whatever worker count is passed.
//!
//! The wall-clock ratio of the traced to the traceless run (best of 3 at
//! the gate population) is printed, not asserted: host time is `perf/`'s
//! to judge, which reports the same ratio less one as
//! `services.scale_trace_cost_share`.
//!
//! Run with: `cargo bench -p cloudbench-bench --bench trace_overhead`

use cloudbench::scale::scale_spec;
use cloudbench_bench::metrics::GATE_SCALE_CLIENTS;
use cloudbench_bench::REPRO_SEED;
use cloudsim_services::scale::{run_scale, run_scale_traced};
use cloudsim_storage::{GcPolicy, ObjectStore};
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

fn overhead(c: &mut Criterion) {
    let spec = scale_spec(GATE_SCALE_CLIENTS, REPRO_SEED);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fresh = || ObjectStore::with_policy(GcPolicy::MarkSweep);

    // --- Invariant 1: capture is a pure observer. ---
    let baseline = run_scale(&spec, fresh(), workers);
    let (traced, capture) = run_scale_traced(&spec, fresh(), workers);
    assert_eq!(traced.commits, baseline.commits, "tracing changed the commit count");
    assert_eq!(traced.logical_bytes, baseline.logical_bytes, "tracing changed the volume");
    assert_eq!(traced.intervals, baseline.intervals, "tracing changed the timeline");
    assert_eq!(traced.aggregate(), baseline.aggregate(), "tracing changed the store state");
    // The capture is worker-count independent: one worker reproduces it bit
    // for bit.
    let (_, single) = run_scale_traced(&spec, fresh(), 1);
    assert_eq!(
        capture.view().packets(),
        single.view().packets(),
        "the capture depends on the worker count"
    );
    assert_eq!(capture.view().len() as u64, traced.commits * 5, "packets per commit drifted");

    // --- What tracing costs in wall time: printed, not asserted. ---
    let traceless_t = best_of(3, || {
        run_scale(&spec, fresh(), workers);
    });
    let traced_t = best_of(3, || {
        run_scale_traced(&spec, fresh(), workers);
    });
    let ratio = traced_t.as_secs_f64() / traceless_t.as_secs_f64().max(1e-9);
    println!(
        "fleet-scale {} clients: traced {:.1} ms vs traceless {:.1} ms ({ratio:.2}x)",
        GATE_SCALE_CLIENTS,
        traced_t.as_secs_f64() * 1e3,
        traceless_t.as_secs_f64() * 1e3,
    );

    // Keep both sides visible in the bench listing.
    let mut group = c.benchmark_group("trace_overhead");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(baseline.commits));
    group.bench_with_input(BenchmarkId::new("fleet_scale", "traceless"), &spec, |b, spec| {
        b.iter(|| run_scale(spec, fresh(), workers))
    });
    group.bench_with_input(BenchmarkId::new("fleet_scale", "traced"), &spec, |b, spec| {
        b.iter(|| run_scale_traced(spec, fresh(), workers))
    });
    group.finish();
}

criterion_group!(benches, overhead);
criterion_main!(benches);
