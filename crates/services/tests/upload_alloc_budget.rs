//! The upload path's allocation budget, in bytes.
//!
//! Syncing a file has to allocate each of its bytes once — the payload the
//! store keeps, which is also the chunk's entry in the client's local view
//! — plus, for the one service that delta-encodes, the revision kept as the
//! next delta's base, and around that the coder tables, the per-chunk
//! artifacts and what the simulated transfer costs. Before the planner
//! dropped its copies (a `to_vec()` of every revision for every service, a
//! second copy of every chunk for the local view) this same sync asked the
//! allocator for about 4.8 bytes per content byte. One re-introduced copy
//! of the content costs another 1 and fails here instead of waiting for a
//! `perf` run. It is the only test in this binary, so nothing else
//! allocates while it counts.

mod counting;

use cloudsim_net::Simulator;
use cloudsim_services::{ServiceProfile, SyncClient};
use cloudsim_storage::{ObjectStore, UploadPipeline};
use cloudsim_trace::{SimDuration, SimTime};
use cloudsim_workload::{BatchSpec, FileKind};

/// Bytes requested from the allocator per synced content byte.
const BUDGET: f64 = 3.0;

#[test]
fn a_sync_allocates_within_budget_per_content_byte() {
    // Two of the §2.3 suite's shapes, a few large files and many small
    // ones, synced once by each of the five services.
    let pipeline = UploadPipeline::sequential();
    let (mut bytes, mut content) = (0u64, 0u64);
    for (i, profile) in ServiceProfile::all().into_iter().enumerate() {
        let batches = [
            BatchSpec::new(10, 100_000, FileKind::RandomBinary).generate(60 + i as u64),
            BatchSpec::new(100, 10_000, FileKind::RandomBinary).generate(70 + i as u64),
        ];
        let mut sim = Simulator::new(1);
        let mut client = SyncClient::for_user(profile, pipeline, ObjectStore::new(), "owner");
        let mut at = client.login(&mut sim, SimTime::ZERO);

        let (_, before) = counting::snapshot();
        for batch in &batches {
            let outcome = client.sync_batch(&mut sim, batch, at + SimDuration::from_secs(1));
            at = outcome.completed_at;
            content += outcome.logical_bytes;
        }
        bytes += counting::snapshot().1 - before;
    }
    assert_eq!(content, 5 * 2_000_000);
    let per_byte = bytes as f64 / content as f64;
    assert!(
        per_byte <= BUDGET,
        "{bytes} B allocated for {content} content bytes = {per_byte:.2} per byte (budget {BUDGET})"
    );
    println!("{per_byte:.3} allocated bytes per content byte");
}
