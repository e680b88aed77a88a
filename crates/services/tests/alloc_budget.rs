//! The fleet-scale commit loop's allocation budget.
//!
//! The scale path interns its users and paths when a run is resolved and
//! hands the store ids and a stack `[hash]` per file, so a run's heap
//! traffic is what is *set up* per client (a name, a record, its lists) and
//! what the tables and logs grow by — not something every file pays. This
//! test holds a whole run to a per-commit count with a counting allocator;
//! before the store was flattened the same run made 31.56 allocations per
//! commit. It is the only test in this binary, so nothing else allocates
//! while it counts (`counting/mod.rs` is the allocator, shared with
//! `restore_alloc_budget.rs`).

mod counting;

use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};

#[test]
fn a_scale_run_stays_within_eight_allocations_per_commit() {
    let spec = ScaleSpec::new(2_000).with_seed(0xA110C);
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let (before, _) = counting::snapshot();
    let run = run_scale(&spec, store, 1);
    let allocations = counting::snapshot().0 - before;
    assert_eq!(run.commits, 4_000);
    let per_commit = allocations as f64 / run.commits as f64;
    assert!(
        per_commit <= 8.0,
        "{allocations} allocations for {} commits = {per_commit:.2} per commit (budget 8)",
        run.commits
    );
}
