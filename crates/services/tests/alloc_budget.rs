//! The fleet-scale commit loop's allocation budget.
//!
//! The scale path interns its users and paths when a run is resolved and
//! hands the store ids and a stack `[hash]` per file, so a run's heap
//! traffic is what is *set up* per client (a name, a record, its lists) and
//! what the tables and logs grow by — not something every file pays. This
//! test holds a whole run to a per-commit count with a counting allocator;
//! before the store was flattened the same run made 31.56 allocations per
//! commit. It is the only test in this binary, so nothing else allocates
//! while it counts.

use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees to us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_scale_run_stays_within_eight_allocations_per_commit() {
    let spec = ScaleSpec::new(2_000).with_seed(0xA110C);
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = run_scale(&spec, store, 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(run.commits, 4_000);
    let per_commit = allocations as f64 / run.commits as f64;
    assert!(
        per_commit <= 8.0,
        "{allocations} allocations for {} commits = {per_commit:.2} per commit (budget 8)",
        run.commits
    );
}
