//! The measuring loop shared by the end-to-end run and the traced run.

use crate::alloc;
use crate::host::{self, ProcUsage};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{self, Check, Size, Workload};
use std::time::Instant;

/// Warm-up iterations of a full-size run: run and checked, never timed
/// into a metric. Two, because the first iteration grows the heap and the
/// second is the first to run in a heap that already has its final shape.
pub const WARMUP: usize = 2;

/// Timed iterations of a full-size run, the same for every workload. The
/// count is a constant, never derived from a timer: `wall_s` is the
/// minimum over the timed iterations, and the expected minimum of N draws
/// falls as N grows, so parent and change have to draw the same number.
pub const ITERATIONS: usize = 16;

/// Timed iterations a run makes even when its time cap has run out: fewer
/// are not worth a statistic.
pub const MIN_ITERATIONS: usize = 5;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Full or quick populations.
    pub size: Size,
    /// Untimed leading iterations.
    pub warmup: usize,
    /// Timed iterations.
    pub iterations: usize,
    /// Measuring time (reset phases plus timed sections) after which no
    /// further iteration starts, once [`MIN_ITERATIONS`] are in. It only
    /// keeps a run on a host several times slower than expected inside the
    /// driver's time limit; a run it cuts short says so on stderr and in
    /// its stored `n`. Infinite for no cap.
    pub cap_seconds: f64,
}

/// One timed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds in the reset phase.
    pub setup_s: f64,
    /// Seconds in the timed section.
    pub wall_s: f64,
    /// CPU time and faults of the timed section, all threads.
    pub usage: ProcUsage,
    /// Heap allocations of the timed section (0 without the counting
    /// allocator).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
}

/// A finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: String,
    /// The seed it ran with.
    pub seed: u64,
    /// Operations per iteration.
    pub ops: u64,
    /// Every timed iteration, in order.
    pub samples: Vec<Sample>,
    /// Digest of the iterations' simulated outputs (that of iteration 0).
    pub digest: u64,
    /// Operations attempted over every iteration, warm-up included.
    pub attempted: u64,
    /// Operations that failed, a digest mismatch failing its whole
    /// iteration.
    pub failed: u64,
    /// `VmHWM` of this process when the run ended, in MB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// Summary of the reset-phase times.
    pub fn setup(&self) -> Summary {
        Summary::of(&self.samples.iter().map(|s| s.setup_s).collect::<Vec<_>>())
            .expect("a run has at least one timed iteration")
    }

    /// Summary of the timed-section times.
    pub fn wall(&self) -> Summary {
        Summary::of(&self.samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
            .expect("a run has at least one timed iteration")
    }

    /// `setup_s`: the median reset phase.
    pub fn setup_s(&self) -> f64 {
        self.setup().median
    }

    /// `wall_s`: the *fastest* timed section (best of N).
    ///
    /// Every iteration is the same work, and what this host adds to an
    /// iteration — a slower clock, a busy sibling core, a neighbour's
    /// cache traffic — only ever adds time. Over forty runs the median
    /// iteration spread over an interquartile 4–32 % of itself from run to
    /// run, the fastest one over 3–24 % (README, "The noise of this
    /// host"); with bounds that may not exceed 0.25, only the second is an
    /// instrument.
    pub fn wall_s(&self) -> f64 {
        self.wall().min
    }

    /// `ops_per_s`: the workload's fixed op count per iteration over
    /// `wall_s`.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s()
    }

    /// Whether every operation of every iteration succeeded and every
    /// digest agreed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs `config` to completion on the calling thread, recording spans into
/// `spans` (which may be off).
pub fn run(config: &RunConfig, spans: &Spans) -> Result<RunResult, String> {
    let mut workload =
        workloads::build(&config.workload, config.size, config.seed).ok_or_else(|| {
            format!(
                "unknown workload \"{}\" (known: {})",
                config.workload,
                workloads::NAMES.join(", ")
            )
        })?;
    Ok(spans.scope(&config.workload, || measure(config, workload.as_mut(), spans)))
}

/// One iteration: reset, the timed section, the check.
pub fn iterate(workload: &mut dyn Workload, spans: &Spans) -> (Sample, Check) {
    let t0 = Instant::now();
    spans.scope("reset", || workload.reset(spans));
    let setup = t0.elapsed();
    // The readings bracket the clock from outside, so reading `/proc`
    // costs the timed section nothing.
    let usage0 = host::proc_usage();
    let alloc0 = alloc::snapshot();
    let t1 = Instant::now();
    spans.scope("run", || workload.run(spans));
    let wall = t1.elapsed();
    let alloc1 = alloc::snapshot();
    let usage = host::proc_usage().since(&usage0);
    let sample = Sample {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        usage,
        allocs: alloc1.0 - alloc0.0,
        alloc_bytes: alloc1.1 - alloc0.1,
    };
    (sample, spans.scope("check", || workload.check()))
}

/// Judges iterations as they finish: every digest must equal the first
/// one's, and the committed one when there is one for the seed.
#[derive(Debug)]
pub struct Verdict {
    committed: Option<u64>,
    reference: Option<u64>,
    /// Operations attempted by the iterations judged so far.
    pub attempted: u64,
    /// Operations failed; a digest mismatch fails its whole iteration.
    pub failed: u64,
}

impl Verdict {
    /// A verdict for runs of workload `name` at `size` with `seed`.
    pub fn new(name: &str, size: Size, seed: u64) -> Verdict {
        let committed = workloads::expected_digest(name, size, seed);
        Verdict { committed, reference: None, attempted: 0, failed: 0 }
    }

    /// Counts one iteration's operations.
    pub fn judge(&mut self, ops: u64, check: &Check) {
        let reference = *self.reference.get_or_insert(check.digest);
        let agrees = check.digest == reference && self.committed.is_none_or(|d| d == check.digest);
        self.attempted += ops;
        self.failed += if agrees { check.failed_ops.min(ops) } else { ops };
    }

    /// The digest of the first iteration judged.
    pub fn digest(&self) -> u64 {
        self.reference.expect("at least one iteration was judged")
    }
}

fn measure(config: &RunConfig, workload: &mut dyn Workload, spans: &Spans) -> RunResult {
    // Warm-up iterations are not samples, but a wrong answer in one is
    // still a wrong answer: they are judged like the rest.
    let mut verdict = Verdict::new(&config.workload, config.size, config.seed);
    for _ in 0..config.warmup {
        let (_, check) = spans.scope("warmup", || iterate(workload, spans));
        verdict.judge(workload.ops(), &check);
    }
    let mut samples: Vec<Sample> = Vec::new();
    let mut measuring = 0.0;
    while samples.len() < config.iterations {
        if measuring >= config.cap_seconds && samples.len() >= MIN_ITERATIONS {
            break;
        }
        let (sample, check) = spans.scope("iteration", || iterate(workload, spans));
        verdict.judge(workload.ops(), &check);
        measuring += sample.setup_s + sample.wall_s;
        samples.push(sample);
    }
    RunResult {
        workload: config.workload.clone(),
        seed: config.seed,
        ops: workload.ops(),
        samples,
        digest: verdict.digest(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        peak_rss_mb: host::peak_rss_mb(),
    }
}
