//! What only `perf/` calls: the runner signatures it imports, each a
//! one-line forward to the library's own function that ignores the last
//! argument, a worker count, re-exported at the path `perf/` imports. No library
//! code outside a test calls into this module (`tests/repo_rules.rs`
//! checks); deleting it and re-pointing `perf/`'s imports is ROADMAP item
//! 1c.

use crate::capture::{FleetCapture, ReplayMix};
use crate::partition::{PartitionRun, PartitionSpec};
use crate::scale::{ScaleRun, ScaleSpec};
use cloudsim_storage::ObjectStore;
use cloudsim_trace::Trace;

/// The pipeline value `SyncClient::{with_pipeline, for_user}` and
/// `UploadPlanner::{with_pipeline, for_user}` ignore.
pub use cloudsim_storage::UploadPipeline;

/// [`crate::scale::run_population`].
pub fn run_scale(spec: &ScaleSpec, store: ObjectStore, _: usize) -> ScaleRun {
    crate::scale::run_population(spec, store)
}

/// [`crate::scale::run_population_traced`].
pub fn run_scale_traced(spec: &ScaleSpec, store: ObjectStore, _: usize) -> (ScaleRun, Trace) {
    crate::scale::run_population_traced(spec, store)
}

/// [`crate::capture::replay_capture`].
pub fn replay(capture: &FleetCapture, mix: &ReplayMix, _: usize) -> Result<ScaleRun, String> {
    crate::capture::replay_capture(capture, mix)
}

/// [`crate::partition::run_one`].
pub fn run_partition(
    part: &PartitionSpec,
    store: &ObjectStore,
    _: usize,
) -> Result<PartitionRun, String> {
    crate::partition::run_one(part, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_of_spec;
    use crate::partition::spec_partitions;
    use cloudsim_storage::GcPolicy;

    fn store() -> ObjectStore {
        ObjectStore::with_policy(GcPolicy::MarkSweep)
    }

    /// What a caller can read of a run: its timeline, its totals and every
    /// user's namespace.
    fn assert_same_run(pinned: &ScaleRun, honest: &ScaleRun, spec: &ScaleSpec, what: &str) {
        assert_eq!(pinned.commits, honest.commits, "{what}");
        assert_eq!(pinned.logical_bytes, honest.logical_bytes, "{what}");
        assert_eq!(pinned.intervals, honest.intervals, "{what}");
        assert_eq!(pinned.aggregate(), honest.aggregate(), "{what}");
        for i in 0..spec.clients {
            let user = spec.user(i);
            assert_eq!(pinned.store.stats(&user), honest.store.stats(&user), "{what}: {user}");
        }
    }

    #[test]
    fn each_shim_returns_what_its_honest_function_returns() {
        let spec = ScaleSpec::new(40).with_seed(0x5EED);
        let capture = capture_of_spec(&spec);
        let run = crate::scale::run_population(&spec, store());
        let (traced, trace) = crate::scale::run_population_traced(&spec, store());
        let replayed = crate::capture::replay_capture(&capture, &ReplayMix::Original).unwrap();
        let parts = spec_partitions(&spec, 3);
        let (one_store, pin_store) = (store(), store());
        for workers in [0, 1, 200] {
            let what = format!("workers {workers}");
            assert_same_run(&run_scale(&spec, store(), workers), &run, &spec, &what);
            let (pinned, packets) = run_scale_traced(&spec, store(), workers);
            assert_same_run(&pinned, &traced, &spec, &what);
            assert_eq!(packets.view().packets(), trace.view().packets(), "{what}");
            let pinned = replay(&capture, &ReplayMix::Original, workers).unwrap();
            assert_same_run(&pinned, &replayed, &spec, &what);
            for part in &parts {
                let pinned = run_partition(part, &pin_store, workers).unwrap();
                let honest = crate::partition::run_one(part, &one_store).unwrap();
                assert_eq!(pinned.events, honest.events, "{what}");
                assert_eq!(pinned.intervals, honest.intervals, "{what}");
                assert_eq!(pinned.logical_bytes, honest.logical_bytes, "{what}");
            }
        }
        assert_eq!(pin_store.aggregate(), one_store.aggregate());
        for i in 0..spec.clients {
            assert_eq!(pin_store.stats(&spec.user(i)), one_store.stats(&spec.user(i)));
        }
    }
}
