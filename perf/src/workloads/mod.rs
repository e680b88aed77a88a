//! The four end-to-end workloads.
//!
//! Every workload is a closed loop of one job at a time: the harness calls
//! [`Workload::reset`] (timed as `setup_s`), then [`Workload::run`] (timed
//! as `wall_s`), then [`Workload::check`] (not timed), and repeats. One
//! iteration is identical fixed work — same seed, same inputs, same
//! digest — so parent and change do the same work whatever their speed.

pub mod fleet_restore_faults;
pub mod paper_sync;
pub mod replay_trace;
pub mod scale_commit;

use crate::spans::Spans;

/// The seed whose digests are committed in [`EXPECTED`]. Any other seed
/// still has to pass every internal equality.
pub const DEFAULT_SEED: u64 = 12;

/// How much work one iteration does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's populations: one iteration takes about a second on
    /// the 2-vCPU host the bounds were measured on.
    Full,
    /// Tiny populations that drive the same code end to end in
    /// milliseconds, for `--quick` and the crate's tests.
    Quick,
}

/// What [`Workload::check`] found in the last iteration's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Digest over every simulated output of the iteration.
    pub digest: u64,
    /// Operations that did not complete, failed a checksum, returned a
    /// typed error or disagreed with a cross-check.
    pub failed_ops: u64,
}

/// One end-to-end workload.
pub trait Workload {
    /// Operations one iteration performs (the unit of `ops_per_s`). Known
    /// once the first iteration has run.
    fn ops(&self) -> u64;

    /// Drops the previous iteration's outputs and state, generates this
    /// iteration's inputs and constructs the stores, testbeds and specs
    /// the timed section consumes.
    fn reset(&mut self, spans: &Spans);

    /// The timed section. Keeps its outputs for [`Workload::check`].
    fn run(&mut self, spans: &Spans);

    /// Verifies and digests the outputs of the last [`Workload::run`].
    fn check(&self) -> Check;
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["scale_commit", "replay_trace", "paper_sync", "fleet_restore_faults"];

/// The digests committed for [`DEFAULT_SEED`]: per workload, at full and
/// at quick size. A change that only makes the simulator faster leaves
/// them alone; a change to what is simulated, or to a workload's
/// population, has to refresh them and say so (`perf run --workload W`
/// prints the digest it saw).
const EXPECTED: [(u64, u64); 4] = [
    (0x014be6019c9445e1, 0x17ce010fe9217856),
    (0xa830ebd9a1ae145d, 0xeeefff10d153cf8a),
    (0xf2f8922ef3471f86, 0xb0a2f18a5655f54c),
    (0x0dbf968bfecb033a, 0x1d4917e1b365575b),
];

/// The digest `name` must produce at `size` when run with `seed`, if one
/// is committed for that seed.
pub fn expected_digest(name: &str, size: Size, seed: u64) -> Option<u64> {
    let (full, quick) = EXPECTED[NAMES.iter().position(|n| *n == name)?];
    (seed == DEFAULT_SEED).then_some(match size {
        Size::Full => full,
        Size::Quick => quick,
    })
}

/// Builds the workload called `name`, or `None` for an unknown name.
pub fn build(name: &str, size: Size, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "scale_commit" => Box::new(scale_commit::ScaleCommit::new(size, seed)),
        "replay_trace" => Box::new(replay_trace::ReplayTrace::new(size, seed)),
        "paper_sync" => Box::new(paper_sync::PaperSync::new(size, seed)),
        "fleet_restore_faults" => {
            Box::new(fleet_restore_faults::FleetRestoreFaults::new(size, seed))
        }
        _ => return None,
    })
}
