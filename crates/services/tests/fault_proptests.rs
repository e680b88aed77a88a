//! Property tests for the fault-injection and recovery layer.
//!
//! The contract under test is the issue's round-trip property: an upload
//! interrupted mid-transfer by a seeded outage, resumed from the last
//! committed offset, then restored through a (likewise interrupted and
//! resumed) ranged download must round-trip byte-identically — SHA-256
//! validation of every reassembled file included — for arbitrary seeds and
//! arbitrary interrupt offsets. And the whole faulted pipeline must be a
//! pure function of its seeds: replaying it yields identical outcomes,
//! identical fault statistics, identical virtual timestamps.

use cloudsim_net::{FaultSchedule, OutageWindow, TransferInterrupted};
use cloudsim_services::client::{FaultedRestoreOutcome, FaultedSyncOutcome};
use cloudsim_services::{
    AccessLink, RangedTransfer, Recovery, RetryConfig, ServiceProfile, SyncClient,
};
use cloudsim_storage::hash::sha256;
use cloudsim_storage::{ObjectStore, RestoreSource, RestoredChunk};
use cloudsim_trace::{SimDuration, SimTime};
use cloudsim_workload::{BatchSpec, FileKind};
use proptest::prelude::*;

/// One full faulted pipeline: the owner uploads `files` over ADSL under
/// `up_faults`, then a fresh puller restores the namespace over ADSL under
/// `down_faults`. Both run the standard exponential backoff, so recovery is
/// expected to succeed whatever the outage placement.
fn round_trip(
    content_seed: u64,
    retry_seed: u64,
    files: usize,
    size: usize,
    up_faults: &FaultSchedule,
    down_faults: &FaultSchedule,
) -> (FaultedSyncOutcome, FaultedRestoreOutcome) {
    let store = ObjectStore::new();
    let batch = BatchSpec::new(files, size, FileKind::RandomBinary).generate(content_seed);
    let policy = RetryConfig::standard_exponential();

    let mut sim = cloudsim_net::Simulator::new(7);
    let mut owner = SyncClient::for_user_on_link(
        ServiceProfile::dropbox(),
        store.clone(),
        "owner",
        &AccessLink::adsl(),
    );
    let t0 = owner.login(&mut sim, SimTime::ZERO);
    let up = owner.sync_batch_faulted(
        &mut sim,
        &batch,
        t0 + SimDuration::from_secs(5),
        up_faults,
        &policy,
        retry_seed,
    );

    let mut psim = cloudsim_net::Simulator::new(8);
    let mut puller = SyncClient::for_user_on_link(
        ServiceProfile::dropbox(),
        store.clone(),
        "puller",
        &AccessLink::adsl(),
    );
    let login = puller.login(&mut psim, SimTime::ZERO);
    let rec = Recovery { faults: down_faults, policy, seed: retry_seed ^ 0xD0_5E };
    let down =
        puller.restore_user_faulted(&mut psim, "owner", login + SimDuration::from_secs(1), &rec);
    (up, down)
}

/// An outage window placed `offset_pct`% into the span of a fault-free
/// control run — the "arbitrary interrupt offset" raw material.
fn window_at(start: SimTime, end: SimTime, offset_pct: u8, secs: u64) -> FaultSchedule {
    let span = end.saturating_since(start);
    let down_at =
        start + SimDuration::from_secs_f64(span.as_secs_f64() * offset_pct as f64 / 100.0);
    FaultSchedule {
        windows: vec![OutageWindow { down_at, up_at: down_at + SimDuration::from_secs(secs) }],
    }
}

proptest! {
    // Each case simulates four full transfers over a slow link; a modest
    // case count still sweeps seeds and interrupt offsets broadly.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Upload → seeded mid-transfer interrupt → resume → restore
    /// round-trips byte-identically, checksums verified, for arbitrary
    /// seeds and interrupt offsets — and deterministically so.
    #[test]
    fn interrupted_round_trips_are_byte_identical_and_deterministic(
        content_seed in 0u64..1_000_000,
        retry_seed in 0u64..1_000_000,
        up_offset_pct in 5u8..95,
        down_offset_pct in 5u8..95,
        outage_secs in 1u64..5,
        files in 1usize..4,
    ) {
        let size = 300_000;
        // Fault-free control: learns where the transfer windows lie and
        // pins the recovery target (what "round-trips" must reproduce).
        let (up_control, down_control) = round_trip(
            content_seed, retry_seed, files, size, &FaultSchedule::NONE, &FaultSchedule::NONE,
        );
        prop_assert!(up_control.completed);
        prop_assert!(down_control.completed);
        prop_assert!(up_control.stats.is_clean());
        prop_assert_eq!(down_control.outcome.files_restored, files);
        prop_assert_eq!(down_control.stats.checksums_verified, files as u64);

        // Cut both directions at arbitrary offsets inside their windows.
        let up_faults = window_at(
            up_control.outcome.sync_started_at,
            up_control.outcome.completed_at,
            up_offset_pct,
            outage_secs,
        );
        let down_faults = window_at(
            down_control.outcome.requested_at,
            down_control.outcome.completed_at,
            down_offset_pct,
            outage_secs,
        );
        let (up, down) = round_trip(
            content_seed, retry_seed, files, size, &up_faults, &down_faults,
        );

        // Recovery must land everything the control landed.
        prop_assert!(up.completed, "upload must recover: {:?}", up.stats);
        prop_assert_eq!(up.committed_payload, up_control.committed_payload);
        prop_assert_eq!(up.abandoned_chunks, 0);
        prop_assert!(down.completed, "restore must recover: {:?}", down.stats);
        prop_assert_eq!(down.outcome.files_restored, files);
        prop_assert_eq!(down.outcome.files_failed, 0);
        prop_assert_eq!(down.outcome.logical_bytes, down_control.outcome.logical_bytes);

        // The byte-identity clincher: every reassembled file passed SHA-256
        // validation against its intact content, none failed.
        prop_assert_eq!(down.stats.checksums_verified, files as u64);
        prop_assert_eq!(down.stats.checksum_failures, 0);

        // Interruption accounting is consistent: wasted and salvaged bytes
        // only exist where interruptions happened, and recovery never beats
        // the fault-free clock.
        if up.stats.interruptions > 0 {
            prop_assert!(up.outcome.completed_at >= up_control.outcome.completed_at);
        } else {
            prop_assert_eq!(up.stats.wasted_bytes, 0);
            prop_assert_eq!(up.stats.salvaged_bytes, 0);
        }
        if down.stats.interruptions == 0 {
            prop_assert_eq!(down.stats.wasted_bytes, 0);
        }

        // Determinism: the same seeds and schedules replay bit-identically.
        let (up2, down2) = round_trip(
            content_seed, retry_seed, files, size, &up_faults, &down_faults,
        );
        prop_assert_eq!(up, up2);
        prop_assert_eq!(down, down2);
    }

    /// The no-retry control under the same cuts: whenever the outage
    /// actually interrupts the upload, no-retry commits strictly less than
    /// the backoff policy did — the recovery layer is what earns the bytes.
    #[test]
    fn no_retry_never_outperforms_backoff(
        content_seed in 0u64..1_000_000,
        up_offset_pct in 10u8..90,
    ) {
        let files = 2;
        let size = 300_000;
        let (up_control, _) = round_trip(
            content_seed, 1, files, size, &FaultSchedule::NONE, &FaultSchedule::NONE,
        );
        let up_faults = window_at(
            up_control.outcome.sync_started_at,
            up_control.outcome.completed_at,
            up_offset_pct,
            3,
        );

        let store = ObjectStore::new();
        let batch = BatchSpec::new(files, size, FileKind::RandomBinary).generate(content_seed);
        let mut sim = cloudsim_net::Simulator::new(7);
        let mut owner = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "owner",
            &AccessLink::adsl(),
        );
        let t0 = owner.login(&mut sim, SimTime::ZERO);
        let abandoned = owner.sync_batch_faulted(
            &mut sim,
            &batch,
            t0 + SimDuration::from_secs(5),
            &up_faults,
            &RetryConfig::None,
            1,
        );
        let (recovered, _) = round_trip(
            content_seed, 1, files, size, &up_faults, &FaultSchedule::NONE,
        );
        if abandoned.stats.interruptions > 0 {
            prop_assert!(!abandoned.completed);
            prop_assert!(abandoned.committed_payload < recovered.committed_payload);
            prop_assert!(abandoned.abandoned_chunks > 0);
            // A cut exactly on a chunk boundary can interrupt without
            // losing in-flight bytes, so wasted_bytes may legitimately be
            // zero here; the abandoned tail is the guaranteed loss.
        } else {
            prop_assert_eq!(abandoned.committed_payload, recovered.committed_payload);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `RangedTransfer::verify` over random chunk lengths × random
    /// interruption points: intact content is accepted and a flipped byte
    /// rejected under every segmentation — cuts inside a chunk, exactly on
    /// a chunk boundary (`snap`), several in one chunk, a stream shorter
    /// than the plaintext down to zero bytes (fully deduplicated), zero-
    /// length chunks, an empty file. The verdict never depends on where
    /// the cuts fell.
    #[test]
    fn verify_accepts_intact_content_under_every_segmentation(
        content_seed in any::<u64>(),
        lens in collection::vec(0usize..3_000, 0..6),
        stream_pct in 0u64..=100,
        cuts in collection::vec(any::<u32>(), 0..8),
        snap in any::<bool>(),
        flip in any::<usize>(),
    ) {
        let plain: usize = lens.iter().sum();
        let mut rng = TestRng::deterministic("verify-content", content_seed);
        let content: Vec<u8> = (0..plain).map(|_| rng.next_u64() as u8).collect();
        let mut boundaries = vec![0usize];
        let chunks: Vec<RestoredChunk> = lens
            .iter()
            .map(|&len| {
                let start = *boundaries.last().expect("starts at 0");
                boundaries.push(start + len);
                RestoredChunk {
                    hash: sha256(&content[start..start + len]),
                    plain_len: len as u64,
                    download_bytes: len as u64,
                    source: RestoreSource::Download,
                }
            })
            .collect();

        // Resume points in stream bytes: random, or (snapped) the stream
        // offsets of chunk boundaries.
        let total = plain as u64 * stream_pct / 100;
        let mut resume_at: Vec<u64> = cuts
            .iter()
            .map(|&c| {
                if snap {
                    boundaries[c as usize % boundaries.len()] as u64 * stream_pct / 100
                } else {
                    c as u64 % (total + 1)
                }
            })
            .filter(|&at| at > 0 && at < total)
            .collect();
        resume_at.sort_unstable();
        resume_at.dedup();
        let segmented = || {
            let mut r = RangedTransfer::new(total);
            let mut at = 0;
            for &next in &resume_at {
                r.interrupted(&TransferInterrupted {
                    bytes_acked: next - at,
                    bytes_sent: next - at,
                    interrupted_at: SimTime::from_secs(1),
                });
                at = next;
            }
            r.complete();
            r
        };

        let mut r = segmented();
        prop_assert!(r.verify(&content, &chunks), "cuts {:?} of {}", resume_at, total);
        prop_assert_eq!(r.stats().checksums_verified, 1);
        prop_assert_eq!(r.stats().checksum_failures, 0);
        prop_assert_eq!(r.stats().interruptions, resume_at.len() as u64);

        if plain > 0 {
            let mut corrupted = content.clone();
            corrupted[flip % plain] ^= 0x80;
            let mut r = segmented();
            prop_assert!(!r.verify(&corrupted, &chunks), "cuts {:?} of {}", resume_at, total);
            prop_assert_eq!(r.stats().checksum_failures, 1);
            prop_assert_eq!(r.stats().checksums_verified, 0);
        }
    }
}
