//! The four end-to-end workloads under the span recorder: `decomp.*`,
//! `proc.*`, `services.scale_summary_s` and `harness.span_overhead_share`.

use super::services::{drain_waves, events_of};
use super::{hash_from_lanes, Bench};
use crate::manifest::{proc_metric, SPAN_OVERHEAD};
use crate::run::{iterate, Sample, Verdict};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::{self, replay_trace, scale_commit, Size, NAMES};
use cloudbench::scale::scale_spec;
use cloudsim_services::capture::{capture_of_spec, CaptureEvent, FleetCapture};
use cloudsim_services::engine::EventHeap;
use cloudsim_services::partition::{capture_partitions, merge_partitions, run_partition};
use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::{ContentHash, FileManifest, GcPolicy, ObjectStore, StoredChunk};
use cloudsim_workload::seed::derive_seed;
use std::hint::black_box;
use std::time::Instant;

/// Traced/untraced iteration pairs behind `harness.span_overhead_share`.
const OVERHEAD_PAIRS: usize = 30;

/// One workload's traced iterations.
struct Traced {
    samples: Vec<Sample>,
    ops: u64,
    /// Index of the first span this workload recorded.
    first_span: usize,
}

impl Traced {
    fn wall(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
    }
}

/// Runs `name` with spans on: one warm-up, then the timed iterations.
fn trace_workload(b: &Bench, name: &str, verdict: &mut Verdict) -> Traced {
    let mut workload = workloads::build(name, b.sizes.size, b.seed).expect("a known workload name");
    let first_span = b.spans.mark();
    let samples = b.spans.scope(name, || {
        let (_, check) = b.spans.scope("warmup", || iterate(workload.as_mut(), b.spans));
        verdict.judge(workload.ops(), &check);
        (0..b.sizes.iterations)
            .map(|_| {
                let (sample, check) =
                    b.spans.scope("iteration", || iterate(workload.as_mut(), b.spans));
                verdict.judge(workload.ops(), &check);
                sample
            })
            .collect()
    });
    Traced { samples, ops: workload.ops(), first_span }
}

/// Traced over untraced timed-section time, minus one, for `name`.
///
/// Measured on the quick population, in adjacent pairs of one iteration
/// with spans on and one with spans off, as the median of the pairs'
/// ratios. An iteration records the same spans whatever its population, so
/// on the quick one — two orders of magnitude less work under the same
/// spans — the share reads far *larger* than on the full one: what is
/// reported bounds the full-size share from above. (At full size the
/// instrument's cost, microseconds, cannot be told from this host's
/// iteration-to-iteration noise, percents, in any affordable number of
/// iterations.)
fn span_overhead(b: &Bench, name: &str) -> f64 {
    let mut workload = workloads::build(name, Size::Quick, b.seed).expect("a known workload name");
    let (on, off) = (Spans::on(), Spans::off());
    iterate(workload.as_mut(), &off);
    let ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            // Alternate which side goes first, so drift favours neither.
            let order = if pair % 2 == 0 { [&on, &off] } else { [&off, &on] };
            let walls = order.map(|spans| iterate(workload.as_mut(), spans).0.wall_s);
            if pair % 2 == 0 {
                walls[0] / walls[1]
            } else {
                walls[1] / walls[0]
            }
        })
        .collect();
    median(&ratios) - 1.0
}

/// Median seconds of the spans called `name` recorded from `first` on.
fn span_median(spans: &Spans, first: usize, name: &str) -> f64 {
    median(&spans.durations(first, name))
}

pub fn run(b: &mut Bench) -> Result<u64, String> {
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut traced_runs = Vec::new();
    for name in NAMES {
        // Each workload keeps its own verdict: digests are per workload.
        let mut verdict = Verdict::new(name, b.sizes.size, b.seed);
        let traced = trace_workload(b, name, &mut verdict);
        attempted += verdict.attempted;
        if verdict.failed > 0 {
            failures.push(format!(
                "{name}: {} of {} operations failed",
                verdict.failed, verdict.attempted
            ));
        }
        let ops = traced.ops as f64;
        for (suffix, per, f) in [
            ("user_s", 1.0, (|s: &Sample| s.usage.user_s) as fn(&Sample) -> f64),
            ("sys_s", 1.0, |s| s.usage.sys_s),
            ("minor_faults", 1.0, |s| s.usage.minor_faults as f64),
            ("allocs_per_op", ops, |s| s.allocs as f64),
            ("alloc_bytes_per_op", ops, |s| s.alloc_bytes as f64),
        ] {
            let s = Summary::of(&traced.samples.iter().map(f).collect::<Vec<_>>())
                .expect("iterations ran");
            b.set_summary(&proc_metric(name, suffix), s.median / per, s.n, s.iqr_share());
        }
        traced_runs.push(traced);
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let overheads: Vec<f64> = NAMES.iter().map(|name| span_overhead(b, name)).collect();
    b.set_summary(
        SPAN_OVERHEAD,
        overheads.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        OVERHEAD_PAIRS,
        0.0,
    );

    let [scale, replay, paper, _fleet] = &traced_runs[..] else {
        unreachable!("four workloads ran")
    };
    decompose_scale(b, scale)?;
    decompose_replay(b, replay)?;
    let wall = paper.wall();
    for (row, span) in [
        ("decomp.paper.suite_share", "paper.suite"),
        ("decomp.paper.fig5_share", "paper.fig5"),
        ("decomp.paper.fig4_share", "paper.fig4"),
    ] {
        b.set(row, span_median(b.spans, paper.first_span, span) / wall);
    }
    Ok(attempted)
}

/// The content hash the scale runner derives from a content seed: four
/// chained `derive_seed` lanes. Re-derived here because the store replay
/// has to present the store with the keys the runner presents; the replay
/// is checked against the runner's own aggregate, so a drift fails loudly.
fn synth_hash(content_seed: u64) -> ContentHash {
    hash_from_lanes(|lane| derive_seed(content_seed, lane, 0, 0))
}

/// One commit's store calls: the user, hashes and paths the scale runner
/// presents, and nothing else.
fn commit_to_store(spec: &ScaleSpec, store: &ObjectStore, ev: &CaptureEvent) {
    let user = spec.user(ev.client);
    let shared = spec.shared_files_per_commit();
    for (f, &seed) in ev.content_seeds.iter().enumerate() {
        let hash = synth_hash(seed);
        store.put_chunk(
            &user,
            StoredChunk { hash, stored_len: spec.file_size, plain_len: spec.file_size },
        );
        let label = if f < shared { "shared" } else { "private" };
        store.commit_manifest(
            &user,
            FileManifest {
                path: format!("{label}/c{:03}_f{f:03}", ev.round),
                size: spec.file_size,
                chunks: vec![hash],
                version: 0,
            },
        );
    }
}

/// Replays a capture's commits into a fresh store in the run's own shape:
/// wave by wave (`lengths`, over the capture's events, which are in heap
/// pop order), each wave fanned out over `workers` threads. Hands the store
/// back so that its drop — a reset-phase cost — stays outside the caller's
/// clock.
fn replay_store_calls(
    spec: &ScaleSpec,
    capture: &FleetCapture,
    lengths: &[usize],
    workers: usize,
) -> ObjectStore {
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let mut rest = &capture.events[..];
    for &len in lengths {
        let (wave, later) = rest.split_at(len);
        cloudsim_parallel::run_indexed(
            workers.clamp(1, len),
            len,
            || (),
            |(), k| commit_to_store(spec, &store, &wave[k]),
        );
        rest = later;
    }
    store
}

/// The result and the seconds of one call of `work`, under a span `name`.
fn timed<R>(b: &Bench, name: &str, work: impl FnOnce() -> R) -> (R, f64) {
    b.spans.scope(name, || {
        let t0 = Instant::now();
        let result = work();
        (result, t0.elapsed().as_secs_f64())
    })
}

/// `decomp.scale.*`: each layer's share of `scale_commit`'s timed section,
/// isolated by replaying the same events and keys through that layer's
/// public calls alone. The store's calls are replayed in the run's own
/// shape (the same waves on the same number of threads), and the cost of
/// those waves with no work in them — the parallel share — is taken off,
/// so what a wave's threads spend waiting for each other counts towards
/// the store, whose calls they wait in. What is left unattributed is the
/// runner's own bookkeeping: state records, intervals, result vectors.
///
/// Every repetition times the whole section and then each layer alone,
/// back to back, and a share is the median of the repetitions' ratios:
/// this host's speed drifts by a third between one minute and the next,
/// and parts timed minutes after the whole once summed to 1.5 of it.
fn decompose_scale(b: &mut Bench, traced: &Traced) -> Result<(), String> {
    let spec = scale_spec(scale_commit::clients(b.sizes.size), b.seed);
    let workers = cloudsim_parallel::available_workers();
    let capture = capture_of_spec(&spec);

    // Per repetition: events, engine, store, parallel, as shares of the whole.
    let mut ratios: Vec<[f64; 4]> = Vec::new();
    for _ in 0..b.sizes.iterations {
        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        let (run, whole) = timed(b, "decomp.scale.whole", || {
            let run = run_scale(&spec, store, workers);
            black_box(scale_commit::summarise(&run));
            run
        });
        let reference = run.aggregate();
        drop(run);
        let (_, events) = timed(b, "decomp.scale.events", || drop(black_box(spec.events())));
        let heap = EventHeap::from_events(events_of(&spec));
        let (lengths, engine) = timed(b, "decomp.scale.engine", || drain_waves(heap));
        let (_, parallel) = timed(b, "decomp.scale.parallel", || {
            for &len in &lengths {
                black_box(cloudsim_parallel::run_indexed(
                    workers.clamp(1, len),
                    len,
                    || (),
                    |(), k| k,
                ));
            }
        });
        let (replayed, store_waves) = timed(b, "decomp.scale.store", || {
            replay_store_calls(&spec, &capture, &lengths, workers)
        });
        if replayed.aggregate() != reference {
            return Err(
                "the isolated store replay no longer presents the scale runner's keys".to_string()
            );
        }
        ratios.push([events, engine, store_waves - parallel, parallel].map(|secs| secs / whole));
    }
    // The summaries ran inside the traced iterations themselves.
    let summary = span_median(b.spans, traced.first_span, "services.scale_summary");
    b.set("services.scale_summary_s", summary);
    let mut attributed = summary / traced.wall();
    b.set("decomp.scale.summary_share", attributed);
    for (layer, row) in [
        "decomp.scale.events_share",
        "decomp.scale.engine_share",
        "decomp.scale.store_share",
        "decomp.scale.parallel_share",
    ]
    .into_iter()
    .enumerate()
    {
        let s = Summary::of(&ratios.iter().map(|r| r[layer]).collect::<Vec<_>>())
            .expect("iterations ran");
        b.set_summary(row, s.median, s.n, s.iqr_share());
        attributed += s.median;
    }
    b.set("decomp.scale.unattributed_share", 1.0 - attributed);
    Ok(())
}

/// `decomp.replay.*`: direct phase spans of `replay_trace`, with the k-way
/// merge isolated out of the partitioned replay.
fn decompose_replay(b: &mut Bench, traced: &Traced) -> Result<(), String> {
    let wall = traced.wall();
    let first = traced.first_span;
    let spec = scale_spec(replay_trace::clients(b.sizes.size), b.seed);
    let capture = capture_of_spec(&spec);
    let files = (spec.clients * spec.commits_per_client * spec.files_per_commit) as u64;
    let merge_secs: Vec<f64> = (0..b.sizes.iterations)
        .map(|_| -> Result<f64, String> {
            let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
            let parts = capture_partitions(&capture, replay_trace::PARTITIONS)?
                .iter()
                .map(|p| run_partition(p, &store, 1))
                .collect::<Result<Vec<_>, _>>()?;
            b.spans.scope("decomp.replay.merge", || {
                let t0 = Instant::now();
                merge_partitions(0, spec.clients, files, &parts, store, t0)?;
                Ok(t0.elapsed().as_secs_f64())
            })
        })
        .collect::<Result<_, _>>()?;
    let merge = median(&merge_secs);
    let of = |name: &str| span_median(b.spans, first, name);
    b.set("decomp.replay.parse_share", of("services.capture_parse") / wall);
    b.set("decomp.replay.run_share", (of("services.replay_partitioned") - merge) / wall);
    b.set("decomp.replay.merge_share", merge / wall);
    b.set(
        "decomp.replay.traced_share",
        (of("services.run_scale_traced") + of("trace.flow_table")) / wall,
    );
    Ok(())
}
