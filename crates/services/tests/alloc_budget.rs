//! The fleet-scale commit loop's allocation budget.
//!
//! The scale path interns its users and paths when a run is resolved,
//! sizes the store once from the resolved totals and hands the store one
//! reused batch of ids and chunks per commit, so a run's heap traffic is
//! what is *set up* per client (a name, and its record's two row lists,
//! each allocated once at its final eight rows) plus the reserved physical
//! table, the event list, the interval log and the store walk's index —
//! nothing a file or a commit pays. This test pins a whole run's
//! allocations and allocated bytes per commit, with a counting allocator,
//! to what that path measures plus five per cent (2.031 and 937.7 B at
//! 2 000 clients; with two shard-wide user tables beside key lists that
//! doubled to eight entries the same run read 3.039 and 1 734.8 B, and
//! before the store was flattened 31.56 allocations per commit). Both
//! counts are exact and repeat, so anything that allocates per commit
//! again — or a list or table that goes back to doubling — fails here,
//! not in a benchmark's noise. It is the only test in this binary, so
//! nothing else allocates while it counts (`counting/mod.rs` is the
//! allocator, shared with `restore_alloc_budget.rs`).

mod counting;

use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};

#[test]
fn a_scale_run_stays_within_its_measured_allocations_per_commit() {
    let spec = ScaleSpec::new(2_000).with_seed(0xA110C);
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let (allocations_before, bytes_before) = counting::snapshot();
    let run = run_scale(&spec, store, 1);
    let (allocations, bytes) = counting::snapshot();
    let (allocations, bytes) = (allocations - allocations_before, bytes - bytes_before);
    assert_eq!(run.commits, 4_000);
    let per_commit = |total: u64| total as f64 / run.commits as f64;
    println!(
        "{allocations} allocations, {bytes} bytes for {} commits: {:.3} and {:.1} per commit",
        run.commits,
        per_commit(allocations),
        per_commit(bytes)
    );
    assert!(
        per_commit(allocations) <= ALLOCATIONS_PER_COMMIT * 1.05,
        "{:.3} allocations per commit (measured {ALLOCATIONS_PER_COMMIT}, budget + 5 %)",
        per_commit(allocations)
    );
    assert!(
        per_commit(bytes) <= BYTES_PER_COMMIT * 1.05,
        "{:.1} allocated bytes per commit (measured {BYTES_PER_COMMIT}, budget + 5 %)",
        per_commit(bytes)
    );
}

/// What the run above measures.
const ALLOCATIONS_PER_COMMIT: f64 = 2.031;
const BYTES_PER_COMMIT: f64 = 937.7;
