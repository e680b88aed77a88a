//! `replay_trace`: the same store and engine as `scale_commit`, used
//! differently, plus the layers only this path has.
//!
//! A rendered capture is parsed, cut into eight slices that replay as
//! eight sub-heaps on one shared store and are k-way merged; then the same
//! population runs once more with per-worker packet shards that are merged
//! into one trace and folded into a flow table. A store or engine gain
//! should show here too; a change to the capture parser, the slice/merge
//! or the recorder shows *only* here.

use super::scale_commit::{failed_commits, scale_digest, summarise, ScaleSummary};
use super::{Check, Size, Workload};
use crate::spans::Spans;
use cloudbench::scale::scale_spec;
use cloudsim_services::capture::{parse_capture, render_capture, replay, ReplayMix};
use cloudsim_services::partition::replay_partitioned;
use cloudsim_services::scale::{run_scale_traced, ScaleRun, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};

/// Slices the capture is cut into.
pub const PARTITIONS: usize = 8;

/// Clients of one iteration; each commits twice in the partitioned replay
/// and twice again in the traced run.
pub fn clients(size: Size) -> usize {
    match size {
        Size::Full => 30_000,
        Size::Quick => 320,
    }
}

struct Outputs {
    spec: ScaleSpec,
    merged: Option<(ScaleRun, ScaleSummary)>,
    traced: ScaleRun,
    packets: usize,
    flows: usize,
}

/// The `replay_trace` workload.
pub struct ReplayTrace {
    size: Size,
    seed: u64,
    workers: usize,
    inputs: Option<(ScaleSpec, String, ObjectStore)>,
    outputs: Option<Outputs>,
    /// Digest of the unsliced replay of the same capture (`None` when it
    /// failed). Computed once, in [`ReplayTrace::new`], and only the digest
    /// is kept: the inputs never change, and a third replay standing beside
    /// an iteration's outputs would set the process's `VmHWM` — the
    /// `peak_rss_mb` metric — instead of the timed section.
    unsliced: Option<u64>,
}

impl ReplayTrace {
    /// The workload at `size`, all inputs derived from `seed`.
    pub fn new(size: Size, seed: u64) -> ReplayTrace {
        let workers = cloudsim_parallel::available_workers();
        let unsliced = parse_capture(&render_capture(&scale_spec(clients(size), seed)))
            .and_then(|capture| replay(&capture, &ReplayMix::Original, workers))
            .ok()
            .map(|run| scale_digest(&run, &summarise(&run)));
        ReplayTrace { size, seed, workers, inputs: None, outputs: None, unsliced }
    }
}

impl Workload for ReplayTrace {
    fn ops(&self) -> u64 {
        (clients(self.size) * 2 * 2) as u64
    }

    fn reset(&mut self, spans: &Spans) {
        self.outputs = None;
        let spec = scale_spec(clients(self.size), self.seed);
        let text = spans.scope("services.capture_render", || render_capture(&spec));
        self.inputs = Some((spec, text, ObjectStore::with_policy(GcPolicy::MarkSweep)));
    }

    fn run(&mut self, spans: &Spans) {
        let (spec, text, store) = self.inputs.take().expect("reset before run");
        let merged = spans
            .sized("services.capture_parse", text.len() as u64, || parse_capture(&text))
            .and_then(|capture| {
                spans.scope("services.replay_partitioned", || {
                    replay_partitioned(&capture, PARTITIONS)
                })
            })
            .ok()
            .map(|partitioned| {
                let summary = spans.scope("services.scale_summary", || summarise(&partitioned.run));
                (partitioned.run, summary)
            });
        let (traced, trace) = spans
            .scope("services.run_scale_traced", || run_scale_traced(&spec, store, self.workers));
        let view = trace.view();
        let packets = view.len();
        let flows = spans.sized("trace.flow_table", packets as u64, || view.flow_table().len());
        self.outputs = Some(Outputs { spec, merged, traced, packets, flows });
    }

    fn check(&self) -> Check {
        let out = self.outputs.as_ref().expect("run before check");
        let traced_digest = scale_digest(&out.traced, &summarise(&out.traced));
        let merged_digest = out.merged.as_ref().map(|(run, summary)| scale_digest(run, summary));
        let commits = out.traced.commits as usize;
        let per_commit = 1 + out.spec.files_per_commit;
        // Merged == unsliced == traced, and the capture holds one flow per
        // commit with a SYN and one packet per file. Any disagreement
        // means an output is wrong without saying which, so every op of
        // the iteration counts as failed.
        let agree = merged_digest == Some(traced_digest)
            && self.unsliced == Some(traced_digest)
            && out.packets == commits * per_commit
            && out.flows == commits;
        let failed = match &out.merged {
            Some((run, _)) if agree => {
                failed_commits(&out.spec, run) + failed_commits(&out.spec, &out.traced)
            }
            _ => self.ops(),
        };
        let mut digest = crate::digest::Digest::new();
        digest.u64(traced_digest).u64(out.packets as u64).u64(out.flows as u64);
        Check { digest: digest.value(), failed_ops: failed }
    }
}
