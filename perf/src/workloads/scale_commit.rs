//! `scale_commit`: the lightweight fleet-scale runner and its summaries.
//!
//! Metadata-only store writes, the event engine's waves and the parallel
//! fan-out do all the work here; the chunk/hash/compress pipeline, the
//! netsim TCP model and real bytes do none. This is the workload ROADMAP
//! item 3 (make the fleet-scale path fast) is argued against.

use super::{Check, Size, Workload};
use crate::digest::Digest;
use crate::spans::Spans;
use cloudbench::scale::{scale_spec, LOAD_CURVE_BUCKETS};
use cloudsim_services::scale::{run_scale, ScaleRun, ScaleSpec};
use cloudsim_storage::{AggregateStats, GcPolicy, ObjectStore};
use cloudsim_trace::HistogramSummary;

/// Clients of one iteration; each performs two commits of four files.
pub fn clients(size: Size) -> usize {
    match size {
        Size::Full => 60_000,
        Size::Quick => 400,
    }
}

/// The suite-level summaries of a scale run — the values
/// `cloudbench::scale` assembles its report from, computed through the same
/// public calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSummary {
    /// Server-side totals.
    pub aggregate: AggregateStats,
    /// Quantiles of the per-commit transfer durations.
    pub transfers: HistogramSummary,
    /// Commits bucketed over the active span.
    pub load_curve: Vec<u64>,
    /// Most transfers in flight at one virtual instant.
    pub concurrency_peak: usize,
    /// Commits per virtual second.
    pub commits_per_vsec: f64,
}

/// Computes the suite summaries of `run`.
pub fn summarise(run: &ScaleRun) -> ScaleSummary {
    ScaleSummary {
        aggregate: run.aggregate(),
        transfers: run.transfer_histogram().summary(),
        load_curve: run.load_curve(LOAD_CURVE_BUCKETS),
        concurrency_peak: run.concurrency_peak(),
        commits_per_vsec: run.commits_per_vsec(),
    }
}

/// Folds a store's aggregate into `digest`.
pub fn digest_aggregate(digest: &mut Digest, a: &AggregateStats) {
    for v in [
        a.users as u64,
        a.files as u64,
        a.logical_bytes,
        a.unique_chunks,
        a.physical_bytes,
        a.referenced_bytes,
        a.server_dedup_hits,
        a.chunk_puts,
        a.manifest_deletes,
        a.reclaimed_bytes,
        a.freed_chunks,
    ] {
        digest.u64(v);
    }
}

/// Digest over everything simulated in a scale run and its summaries. The
/// same function digests the partitioned replay and the traced run of
/// `replay_trace`, which is what makes its three-way cross-check one
/// comparison of three numbers.
pub fn scale_digest(run: &ScaleRun, summary: &ScaleSummary) -> u64 {
    let mut d = Digest::new();
    d.u64(run.clients as u64).u64(run.commits).u64(run.files).u64(run.logical_bytes);
    for &(start, end) in &run.intervals {
        d.u64(start.as_micros()).u64(end.as_micros());
    }
    digest_aggregate(&mut d, &summary.aggregate);
    let t = &summary.transfers;
    d.u64(t.count).f64(t.p50_s).f64(t.p90_s).f64(t.p99_s).f64(t.p999_s);
    for &bucket in &summary.load_curve {
        d.u64(bucket);
    }
    d.u64(summary.concurrency_peak as u64).f64(summary.commits_per_vsec);
    d.value()
}

/// Commits of a run that cannot have completed: anything short of the
/// spec's total, and every commit whose transfer interval runs backwards.
pub fn failed_commits(spec: &ScaleSpec, run: &ScaleRun) -> u64 {
    let planned = (spec.clients * spec.commits_per_client) as u64;
    let backwards = run.intervals.iter().filter(|(start, end)| end < start).count() as u64;
    planned.saturating_sub(run.commits.min(run.intervals.len() as u64)) + backwards
}

/// The `scale_commit` workload.
pub struct ScaleCommit {
    size: Size,
    seed: u64,
    workers: usize,
    inputs: Option<(ScaleSpec, ObjectStore)>,
    outputs: Option<(ScaleSpec, ScaleRun, ScaleSummary)>,
}

impl ScaleCommit {
    /// The workload at `size`, all inputs derived from `seed`.
    pub fn new(size: Size, seed: u64) -> ScaleCommit {
        ScaleCommit {
            size,
            seed,
            workers: cloudsim_parallel::available_workers(),
            inputs: None,
            outputs: None,
        }
    }
}

impl Workload for ScaleCommit {
    fn ops(&self) -> u64 {
        (clients(self.size) * 2) as u64
    }

    fn reset(&mut self, spans: &Spans) {
        // Dropping the previous run drops its store: at 40k clients that
        // is a hundred thousand small tables, and it is part of what a
        // caller looping over runs pays.
        spans.scope("storage.store_drop", || self.outputs = None);
        let spec = scale_spec(clients(self.size), self.seed);
        self.inputs = Some((spec, ObjectStore::with_policy(GcPolicy::MarkSweep)));
    }

    fn run(&mut self, spans: &Spans) {
        let (spec, store) = self.inputs.take().expect("reset before run");
        // `run_scale` derives the event heap itself, so the timed section
        // includes `spec.events()` — the part the runner's own `elapsed`
        // leaves out.
        let run =
            spans.sized("services.run_scale", self.ops(), || run_scale(&spec, store, self.workers));
        let summary = spans.scope("services.scale_summary", || summarise(&run));
        self.outputs = Some((spec, run, summary));
    }

    fn check(&self) -> Check {
        let (spec, run, summary) = self.outputs.as_ref().expect("run before check");
        Check { digest: scale_digest(run, summary), failed_ops: failed_commits(spec, run) }
    }
}
