//! The restore path's allocation budget, in bytes.
//!
//! A puller restoring another user's namespace has to allocate a restored
//! byte once — the file's content, which is also the base revision kept for
//! the next delta download; a downloaded chunk is served from the store's
//! payload handle, which its entry in the local view shares — plus the
//! coder tables and what the simulated transfer costs. It must not allocate
//! it *again*: before the restore path dropped its copies (`LocalCopy`
//! chunks through `to_vec()`, every file reassembled into a second buffer,
//! the planner cloning the content it was about to return) this same pull
//! asked the allocator for 4.83 bytes per restored plaintext byte; it now
//! asks for 1.686. One re-introduced copy of the content fails here
//! instead of waiting for a `perf` run: copying every local chunk into a
//! fresh `Arc` reads 2.19, a temporary copy of every appended chunk 2.69.
//! It is the only test in this binary, so nothing else allocates while it
//! counts.

mod counting;

use cloudsim_net::Simulator;
use cloudsim_services::{ServiceProfile, SyncClient};
use cloudsim_storage::{ObjectStore, UploadPipeline};
use cloudsim_trace::{SimDuration, SimTime};
use cloudsim_workload::{BatchSpec, FileKind};

/// Bytes requested from the allocator per restored plaintext byte: one
/// notch above the 1.686 measured, below what one more copy adds.
const BUDGET: f64 = 1.8;

/// Files per namespace, 24 kB each.
const FILES: usize = 24;

#[test]
fn a_pull_allocates_within_budget_per_restored_byte() {
    // The five services and the file size of `perf`'s
    // `fleet_restore_faults`; each namespace is pulled first into an empty
    // folder (full downloads) and then again (every chunk a local copy).
    let pipeline = UploadPipeline::sequential();
    let (mut bytes, mut restored) = (0u64, 0u64);
    for (i, profile) in ServiceProfile::all().into_iter().enumerate() {
        let store = ObjectStore::new();
        let batch =
            BatchSpec::new(FILES, 24 * 1024, FileKind::RandomBinary).generate(40 + i as u64);
        let mut sim = Simulator::new(1);
        let mut owner = SyncClient::for_user(profile.clone(), pipeline, store.clone(), "owner");
        let t0 = owner.login(&mut sim, SimTime::ZERO);
        owner.sync_batch(&mut sim, &batch, t0 + SimDuration::from_secs(1));

        let mut psim = Simulator::new(2);
        let mut puller = SyncClient::for_user(profile, pipeline, store, "puller");
        let login = puller.login(&mut psim, SimTime::ZERO);

        let (_, before) = counting::snapshot();
        let first = puller.restore_user(&mut psim, "owner", login + SimDuration::from_secs(1));
        let again = puller.restore_user(&mut psim, "owner", first.completed_at);
        bytes += counting::snapshot().1 - before;

        assert_eq!((first.files_restored, first.files_failed), (FILES, 0));
        assert_eq!((again.files_restored, again.downloaded_payload), (FILES, 0));
        restored += first.logical_bytes + again.logical_bytes;
    }
    let per_byte = bytes as f64 / restored as f64;
    assert!(
        per_byte <= BUDGET,
        "{bytes} B allocated for {restored} restored bytes = {per_byte:.2} per byte (budget {BUDGET})"
    );
    println!("{per_byte:.3} allocated bytes per restored byte");
}
