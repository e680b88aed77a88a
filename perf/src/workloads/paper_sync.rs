//! `paper_sync`: the paper's own experiments on real bytes.
//!
//! The chunk/hash/LZSS/delta pipeline, the upload planner, per-file versus
//! bundled connections in netsim and packet recording dominate; the shared
//! store's sharding and the event engine are idle. File generation sits in
//! the reset phase, as the paper's testing application generates its files
//! before the client under test starts to sync them.

use super::{Check, Size, Workload};
use crate::digest::Digest;
use crate::spans::Spans;
use cloudbench::testbed::{ExperimentRun, Testbed};
use cloudsim_services::{ServiceProfile, SyncOutcome};
use cloudsim_trace::{analysis, SimDuration};
use cloudsim_workload::{generate, BatchSpec, FileKind, GeneratedFile, Mutation};

/// Bytes appended or inserted by a Fig. 4 modification.
const FIG4_CHANGE: usize = 100_000;

/// What one iteration syncs, per service.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The §2.3 suite's batches.
    pub suite: Vec<BatchSpec>,
    /// File sizes of the Fig. 5 compression series (one file per size and
    /// per content kind: text, random, fake JPEG).
    pub fig5_sizes: Vec<usize>,
    /// Base file sizes of the Fig. 4 delta series (each synced, modified at
    /// the end and at a random offset, and synced again).
    pub fig4_sizes: Vec<usize>,
}

/// The shape at `size`. Full keeps the paper's eight §2.3 batches as they
/// are and trims the Fig. 4/5 file sizes (the paper goes to 2 MB and 10 MB)
/// so that one iteration stays near a second.
pub fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            suite: BatchSpec::paper_experiments(),
            fig5_sizes: vec![100_000, 500_000, 1_000_000],
            fig4_sizes: vec![200_000, 500_000],
        },
        Size::Quick => Shape {
            suite: vec![
                BatchSpec::new(1, 20_000, FileKind::RandomBinary),
                BatchSpec::new(5, 2_000, FileKind::Text),
            ],
            fig5_sizes: vec![10_000],
            fig4_sizes: vec![150_000],
        },
    }
}

const FIG5_KINDS: [FileKind; 3] = [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg];

/// One Fig. 4 case: a base file and its modified revision.
struct DeltaCase {
    base: GeneratedFile,
    modified: GeneratedFile,
}

struct Corpora {
    testbed: Testbed,
    profiles: Vec<ServiceProfile>,
    suite: Vec<Vec<GeneratedFile>>,
    fig5: Vec<Vec<GeneratedFile>>,
    fig4: Vec<DeltaCase>,
}

/// Generates every corpus of one iteration from `seed`, through the
/// `cloudsim_workload` public calls.
fn generate_corpora(shape: &Shape, seed: u64, spans: &Spans) -> Corpora {
    let testbed = Testbed::new(seed);
    let suite = spans.scope("workload.generate_suite", || {
        shape
            .suite
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.generate(testbed.derived_seed(0x5017E, i as u64)))
            .collect()
    });
    let fig5 = spans.scope("workload.generate_fig5", || {
        let mut corpora = Vec::new();
        for kind in FIG5_KINDS {
            for &size in &shape.fig5_sizes {
                let content = generate(kind, size, testbed.derived_seed(0xF150, size as u64));
                let path = format!("fig5/file_{size}.{}", kind.extension());
                corpora.push(vec![GeneratedFile { path, content }]);
            }
        }
        corpora
    });
    let fig4 = spans.scope("workload.generate_fig4", || {
        let mut cases = Vec::new();
        for &size in &shape.fig4_sizes {
            let base =
                generate(FileKind::RandomBinary, size, testbed.derived_seed(0xF160, size as u64));
            for mutation in
                [Mutation::Append { len: FIG4_CHANGE }, Mutation::InsertRandom { len: FIG4_CHANGE }]
            {
                let path = "fig4/file.bin".to_string();
                let modified = mutation.apply(&base, testbed.derived_seed(0xF161, size as u64));
                cases.push(DeltaCase {
                    base: GeneratedFile { path: path.clone(), content: base.clone() },
                    modified: GeneratedFile { path, content: modified },
                });
            }
        }
        cases
    });
    Corpora { testbed, profiles: ServiceProfile::all(), suite, fig5, fig4 }
}

/// The simulated results of one iteration, in execution order.
#[derive(Default)]
struct Results {
    /// One run per (service, corpus) of the suite and of Fig. 5.
    runs: Vec<(usize, ExperimentRun)>,
    /// Per (service, Fig. 4 case): both sync outcomes and the payload the
    /// second sync uploaded.
    deltas: Vec<(SyncOutcome, SyncOutcome, u64)>,
}

/// The `paper_sync` workload.
pub struct PaperSync {
    shape: Shape,
    seed: u64,
    inputs: Option<Corpora>,
    outputs: Option<Results>,
}

impl PaperSync {
    /// The workload at `size`, all inputs derived from `seed`.
    pub fn new(size: Size, seed: u64) -> PaperSync {
        PaperSync { shape: shape(size), seed, inputs: None, outputs: None }
    }
}

impl Workload for PaperSync {
    fn ops(&self) -> u64 {
        let suite: usize = self.shape.suite.iter().map(|s| s.file_count).sum();
        let fig5 = FIG5_KINDS.len() * self.shape.fig5_sizes.len();
        let fig4 = self.shape.fig4_sizes.len() * 2 * 2;
        (ServiceProfile::all().len() * (suite + fig5 + fig4)) as u64
    }

    fn reset(&mut self, spans: &Spans) {
        self.outputs = None;
        self.inputs = None;
        self.inputs = Some(generate_corpora(&self.shape, self.seed, spans));
    }

    fn run(&mut self, spans: &Spans) {
        let corpora = self.inputs.as_ref().expect("reset before run");
        let testbed = &corpora.testbed;
        let mut results = Results::default();
        for (phase, sets) in [("paper.suite", &corpora.suite), ("paper.fig5", &corpora.fig5)] {
            spans.scope(phase, || {
                for profile in &corpora.profiles {
                    for (rep, files) in sets.iter().enumerate() {
                        let run = testbed.run_sync_files(profile, files, rep as u64);
                        results.runs.push((files.len(), run));
                    }
                }
            });
        }
        spans.scope("paper.fig4", || {
            for profile in &corpora.profiles {
                for (rep, case) in corpora.fig4.iter().enumerate() {
                    // Base then modified on one client, so a service with
                    // delta encoding has the previous revision to diff against.
                    let (delta, _packets) =
                        testbed.run_scripted(profile, rep as u64, |sim, client, t0| {
                            let first = client.sync_batch(
                                sim,
                                std::slice::from_ref(&case.base),
                                t0 + SimDuration::from_secs(5),
                            );
                            let before = analysis::uploaded_payload(&sim.packets());
                            let second = client.sync_batch(
                                sim,
                                std::slice::from_ref(&case.modified),
                                first.completed_at + SimDuration::from_secs(30),
                            );
                            (first, second, analysis::uploaded_payload(&sim.packets()) - before)
                        });
                    results.deltas.push(delta);
                }
            }
        });
        self.outputs = Some(results);
    }

    fn check(&self) -> Check {
        let results = self.outputs.as_ref().expect("run before check");
        let mut d = Digest::new();
        let mut failed = 0u64;
        let mut outcome = |d: &mut Digest, o: &SyncOutcome, files: usize| {
            d.u64(o.modification_time.as_micros())
                .u64(o.sync_started_at.as_micros())
                .u64(o.completed_at.as_micros())
                .u64(o.files as u64)
                .u64(o.logical_bytes)
                .u64(o.uploaded_payload);
            // A sync completes when it took every file and finished after
            // it started.
            if o.files != files || o.completed_at < o.sync_started_at {
                failed += files as u64;
            }
        };
        for (files, run) in &results.runs {
            outcome(&mut d, &run.outcome, *files);
            d.u64(run.packets.len() as u64)
                .u64(run.benchmark_bytes)
                .u64(run.uploaded_payload())
                .f64(run.overhead())
                .u64(run.startup_delay().map_or(u64::MAX, SimDuration::as_micros))
                .u64(run.completion_time().map_or(u64::MAX, SimDuration::as_micros));
        }
        for (first, second, uploaded) in &results.deltas {
            outcome(&mut d, first, 1);
            outcome(&mut d, second, 1);
            d.u64(*uploaded);
        }
        Check { digest: d.value(), failed_ops: failed }
    }
}
