//! `fleet_restore_faults`: reads beside writes, under link outages.
//!
//! A full-fidelity fleet (every client a real `SyncClient` with planner,
//! simulator and packet trace) of five services on four links syncs small
//! batches with payloads while seeded outages cut its transfers; a wide
//! restore fan pulls other clients' namespaces back down and verifies
//! them; leavers then hard-delete and an eager GC frees their chunks. This
//! is where `storage.restore`, SHA-256 verification, payload reads,
//! `session`/`retry` and the `_faulted` client paths run — a store change
//! that helps `scale_commit`'s writes and costs reads shows here.

use super::scale_commit::digest_aggregate;
use super::{Check, Size, Workload};
use crate::digest::Digest;
use crate::spans::Spans;
use cloudsim_services::fleet::{run_fleet, ClientSlot, FleetFaults, FleetRun, FleetSpec};
use cloudsim_services::{AccessLink, RetryConfig, ServiceProfile};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_workload::seed::derive_seed;

/// The fleet's dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Clients (slot `i` runs service `i % 5` behind link `i % 4`).
    pub clients: usize,
    /// Sync rounds.
    pub rounds: usize,
    /// Files per batch.
    pub files_per_batch: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// The first `leavers` slots hard-delete their namespace after the
    /// last round (so no puller ever finds its source gone).
    pub leavers: usize,
    /// The last `pullers` slots restore other clients' namespaces after
    /// every round.
    pub pullers: usize,
    /// Sources each puller restores.
    pub sources_per_puller: usize,
}

/// The shape at `size`.
pub fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            clients: 60,
            rounds: 3,
            files_per_batch: 8,
            file_size: 24 * 1024,
            leavers: 12,
            pullers: 32,
            sources_per_puller: 3,
        },
        Size::Quick => Shape {
            clients: 10,
            rounds: 2,
            files_per_batch: 3,
            file_size: 8 * 1024,
            leavers: 2,
            pullers: 8,
            sources_per_puller: 3,
        },
    }
}

/// Retries allowed per interrupted transfer. The standard policy's eight
/// are not always enough to outlast three 8 s outages on the 3G link; with
/// this budget every transfer of every seed tried completes, so the
/// expected failed share is exactly 0.
const RETRY_BUDGET: u32 = 24;

const SALT_SOURCE: u64 = 0x50_0C_E5;

/// Builds the fleet from `seed`: the slot table with its restore fan and
/// its leavers, and the fault and retry configuration.
pub fn fleet_spec(shape: &Shape, seed: u64) -> FleetSpec {
    let profiles = ServiceProfile::all();
    let links = AccessLink::all();
    let n = shape.clients;
    let mut slots: Vec<ClientSlot> = (0..n)
        .map(|i| {
            ClientSlot::resident(profiles[i % profiles.len()].clone())
                .on_link(links[i % links.len()])
        })
        .collect();
    for slot in slots.iter_mut().take(shape.leavers) {
        slot.leave_after = Some(shape.rounds - 1);
    }
    for (i, slot) in slots.iter_mut().enumerate().skip(n - shape.pullers) {
        let mut sources = Vec::with_capacity(shape.sources_per_puller);
        let mut probe = 0u64;
        while sources.len() < shape.sources_per_puller.min(n - 1) {
            let pick = (derive_seed(seed, i as u64, probe, SALT_SOURCE) % n as u64) as usize;
            probe += 1;
            if pick != i && !sources.contains(&pick) {
                sources.push(pick);
            }
        }
        slot.pull_from = sources;
    }
    FleetSpec::heterogeneous(slots)
        .with_batches(shape.rounds)
        .with_files(shape.files_per_batch, shape.file_size)
        .with_gc(GcPolicy::Eager)
        .with_faults(FleetFaults::standard().with_retry(RetryConfig::with_budget(RETRY_BUDGET)))
        .with_seed(seed)
}

/// Files the run synced and restored, and the operations that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Files uploaded.
    pub synced: u64,
    /// Files restored and verified.
    pub restored: u64,
    /// Files that were abandoned, failed a checksum or hit a typed error.
    pub failed: u64,
}

/// Counts the run's operations.
pub fn tally(run: &FleetRun) -> Tally {
    let mut t = Tally { synced: 0, restored: 0, failed: 0 };
    for c in &run.clients {
        t.synced += c.outcomes.iter().map(|o| o.files as u64).sum::<u64>();
        t.restored += c.restores.iter().map(|r| r.files_restored as u64).sum::<u64>();
        t.failed += c.abandoned_chunks as u64
            + c.abandoned_restores as u64
            + c.restore_failures() as u64
            + c.fault_stats.checksum_failures
            + u64::from(c.committed_payload != c.uploaded_payload);
    }
    t
}

/// The `fleet_restore_faults` workload.
pub struct FleetRestoreFaults {
    shape: Shape,
    seed: u64,
    workers: usize,
    inputs: Option<(FleetSpec, ObjectStore)>,
    outputs: Option<FleetRun>,
    /// Synced plus restored files of the first iteration: the fixed op
    /// count every later iteration must reproduce.
    ops: Option<u64>,
}

impl FleetRestoreFaults {
    /// The workload at `size`, all inputs derived from `seed`.
    pub fn new(size: Size, seed: u64) -> FleetRestoreFaults {
        FleetRestoreFaults {
            shape: shape(size),
            seed,
            workers: cloudsim_parallel::available_workers(),
            inputs: None,
            outputs: None,
            ops: None,
        }
    }
}

impl Workload for FleetRestoreFaults {
    fn ops(&self) -> u64 {
        self.ops.expect("the op count is known after the first run")
    }

    fn reset(&mut self, _spans: &Spans) {
        self.outputs = None;
        let spec = fleet_spec(&self.shape, self.seed);
        self.inputs = Some((spec, ObjectStore::with_policy(GcPolicy::Eager)));
    }

    fn run(&mut self, spans: &Spans) {
        let (spec, store) = self.inputs.take().expect("reset before run");
        let run = spans.scope("services.run_fleet", || run_fleet(&spec, store, self.workers));
        if self.ops.is_none() {
            let t = tally(&run);
            self.ops = Some(t.synced + t.restored);
        }
        self.outputs = Some(run);
    }

    fn check(&self) -> Check {
        let run = self.outputs.as_ref().expect("run before check");
        let t = tally(run);
        let mut d = Digest::new();
        for c in &run.clients {
            d.str(&c.user).str(&c.service).str(&c.link);
            d.u64(c.deleted_manifests as u64).u64(c.idle_rounds as u64);
            for o in &c.outcomes {
                d.u64(o.sync_started_at.as_micros())
                    .u64(o.completed_at.as_micros())
                    .u64(o.files as u64)
                    .u64(o.uploaded_payload);
            }
            for r in &c.restores {
                d.u64(r.requested_at.as_micros())
                    .u64(r.first_byte_at.map_or(u64::MAX, |t| t.as_micros()))
                    .u64(r.completed_at.as_micros())
                    .u64(r.files_restored as u64)
                    .u64(r.logical_bytes)
                    .u64(r.downloaded_payload)
                    .u64(r.dedup_skipped_bytes);
            }
            d.f64(c.completion_secs)
                .u64(c.logical_bytes)
                .u64(c.uploaded_payload)
                .u64(c.committed_payload)
                .u64(c.background_wire_bytes)
                .u64(c.payload_wire_bytes);
            let f = &c.fault_stats;
            d.u64(f.interruptions)
                .u64(f.retries)
                .u64(f.wasted_bytes)
                .u64(f.salvaged_bytes)
                .u64(f.backoff_wait.as_micros())
                .u64(f.checksums_verified);
            let waits = c.backoff_waits.summary();
            d.u64(waits.count).f64(waits.p50_s).f64(waits.p999_s);
        }
        digest_aggregate(&mut d, &run.aggregate());
        // The restore fan must stay wide (reads beside writes is the point
        // of the workload) and the op count must not drift.
        let shape_holds = t.restored >= 3 * t.synced && t.synced + t.restored == self.ops();
        let failed = if shape_holds { t.failed } else { self.ops() };
        Check { digest: d.value(), failed_ops: failed }
    }
}
