//! Concurrent multi-client fleet harness: heterogeneous, long-lived fleets.
//!
//! The paper measures each service from a *single* test computer on one
//! campus link; its server-side findings (inter-user deduplication,
//! per-service completion time and overhead, §4–§5) only matter at provider
//! scale, and its central message — the best service depends on the workload
//! *and* the client's network — only shows when clients differ. This module
//! drives K independent [`SyncClient`]s, each described by a [`ClientSlot`]
//! carrying its own [`ServiceProfile`] **and** its own [`AccessLink`]
//! (mixed Dropbox/SkyDrive/Google Drive fleets on mixed ADSL/fibre/3G
//! links), all committing into one shared sharded [`ObjectStore`].
//!
//! Fleets are long-lived: the run proceeds in *rounds* on a **virtual
//! clock**. Each run first derives a [`FleetSchedule`] — a pure function of
//! `(FleetSpec, seed)` — that decides, per client and round, whether the
//! client *activates* (syncs one batch, offset by its seeded arrival jitter
//! and [`ThinkTime`] pause) or sits **idle**: connected, syncing nothing,
//! but paying the §3.1 keep-alive signalling for the round's span of
//! virtual time. Clients may **join** mid-run (`join_round`) and **leave**
//! mid-run (`leave_after`), and a leaving client hard-deletes its manifests
//! so the store's [`GcPolicy`] decides when the bytes come back. Slots with
//! a **restore fan** (`pull_from`, seeded by
//! [`FleetSpec::with_restore_fan`]) additionally pull other users'
//! namespaces back down through their own links after each round they
//! sync in — round-major fleets mix uploaders and downloaders.
//!
//! Execution is **event-driven**: the schedule is lowered into a
//! time-ordered [`EventHeap`] of `(timestamp, phase, client)` entries —
//! activations, keep-alive epochs, restore-fan pulls, departures, GC
//! sweeps — and [`run_fleet`] pops it wave by wave (see [`crate::engine`]),
//! touching only each event's client instead of materialising the whole
//! population per round.
//!
//! Determinism contract: the schedule is *data*, not thread timing — every
//! temporal draw is fixed before the first client spawns. A client's
//! simulation consumes only its own seed, its schedule entries and its own
//! planner state, and the shared store's aggregate accounting is
//! order-independent within each wave. The heap's phase sub-key keeps the
//! instants phase-separated — at one virtual instant all sync commits
//! complete, idle clients poll (their own universes only), then the restore
//! fans run (store *reads* only, so they commute), then leaves release
//! references, and garbage collection sweeps last — so [`run_fleet`]
//! produces bit-identical [`ClientSummary`]s and [`AggregateStats`] whether
//! the clients run on one thread (sequential replay) or on one thread per
//! client, jitter, churn, GC and restores included. A puller whose source
//! departed at an *earlier* instant records a clean failure; same-instant
//! departures are still visible because restores precede leaves. The
//! `fleet_scaling` bench and the workspace property tests assert exactly
//! that.
//!
//! The legacy configuration — zero think time, zero jitter, activation
//! 1.0 — degenerates to the old lock-step timeline byte-identically, so the
//! committed `fleet.*`/`hetero.*`/`restore.*` bench baselines prove the
//! scheduler refactor safe.

use crate::client::{RestoreOutcome, SyncClient, SyncOutcome};
use crate::engine::{EventHeap, FleetEvent, Phase};
use crate::profile::ServiceProfile;
use crate::retry::{Recovery, RetryConfig};
use crate::schedule::{FleetSchedule, SyncActivation, ThinkTime};
use crate::session::FaultStats;
use cloudsim_net::{AccessLink, FaultSchedule, FaultSpec, Simulator};
use cloudsim_storage::{AggregateStats, GcPolicy, ObjectStore, SizeMemo};
use cloudsim_trace::series::SampleStats;
use cloudsim_trace::{FlowKind, LatencyHistogram, SimDuration, SimTime};
use cloudsim_workload::{generate, FileKind, GeneratedFile};
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// Simulated seconds between round epochs: a client joining in round `r`
/// starts its login at `r * ROUND_EPOCH_SECS` in its own timeline, and an
/// idle round advances a connected client's virtual clock by exactly one
/// epoch of keep-alive polling.
pub const ROUND_EPOCH_SECS: u64 = 60;

/// Seed salt for per-(client, round) upload outage schedules; the salt
/// after it (`0xFA018`) seeds the window's retry jitter.
const SYNC_FAULT_SALT: u64 = 0xFA017;
/// Seed salt base for per-(client, pull, round) restore outage schedules:
/// pull `k` draws its schedule from salt `base + 2k` and its retry jitter
/// from the odd salt after it.
const RESTORE_FAULT_SALT: u64 = 0xFA020;

/// Fault injection for a fleet run: the outage-schedule shape every faulted
/// transfer window draws from, and the retry policy every client wraps its
/// storage transfers in. The schedules themselves are derived per client
/// and per round from the fleet's master seed — pure data, like the
/// temporal schedule — so concurrent faulted runs replay bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetFaults {
    /// How outages are drawn over each activation's transfer window.
    pub spec: FaultSpec,
    /// The retry policy applied to every interrupted transfer.
    pub retry: RetryConfig,
}

impl FleetFaults {
    /// A convenient default shape: up to three outages of 2–8 s drawn over
    /// a 60 s window per activation, with the standard exponential policy.
    pub fn standard() -> FleetFaults {
        FleetFaults {
            spec: FaultSpec {
                horizon: SimDuration::from_secs(60),
                outages: 3,
                min_outage: SimDuration::from_secs(2),
                max_outage: SimDuration::from_secs(8),
            },
            retry: RetryConfig::standard_exponential(),
        }
    }

    /// The same outage shape with a different retry policy — the knob the
    /// faults suite turns to compare policies under identical failures.
    pub fn with_retry(mut self, retry: RetryConfig) -> FleetFaults {
        self.retry = retry;
        self
    }
}

/// One client slot of a fleet: which service it runs, which access link it
/// sits behind, and when it participates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClientSlot {
    /// The service this client syncs with.
    pub profile: ServiceProfile,
    /// The access link between the client and the wider Internet.
    pub link: AccessLink,
    /// First round the client is active (0 = present from the start).
    pub join_round: usize,
    /// Last round the client participates in, after which it hard-deletes
    /// its manifests and departs. `None` = stays to the end.
    pub leave_after: Option<usize>,
    /// The slot's restore fan: after each sync round, this client pulls the
    /// full namespaces of these slot indices back down through its access
    /// link (empty = pure uploader). Pulling a departed slot fails cleanly
    /// and is counted, not panicked on.
    pub pull_from: Vec<usize>,
}

impl ClientSlot {
    /// A slot present for the whole run: given service, campus link.
    pub fn resident(profile: ServiceProfile) -> ClientSlot {
        ClientSlot {
            profile,
            link: AccessLink::campus(),
            join_round: 0,
            leave_after: None,
            pull_from: Vec::new(),
        }
    }

    /// Returns a copy behind a different access link.
    pub fn on_link(mut self, link: AccessLink) -> ClientSlot {
        self.link = link;
        self
    }

    /// True when the slot is *connected* in round `round` (its membership
    /// window covers the round). Whether it actually syncs that round is
    /// the schedule's call: an activation draw below the fleet's activation
    /// probability syncs a batch, anything else is an idle round.
    pub fn active_in(&self, round: usize) -> bool {
        round >= self.join_round && self.leave_after.map(|l| round <= l).unwrap_or(true)
    }

    /// Number of rounds the slot is connected within a run of `rounds`
    /// rounds — the slot's membership window, *not* its sync count. With an
    /// activation probability below 1.0 some of these rounds are idle, so
    /// completion-distribution denominators and expected-volume accounting
    /// must use [`FleetSpec::sync_rounds_of`] (which consults the schedule)
    /// instead of this window. Returns 0 for a zero-round run or a window
    /// that lies entirely outside it.
    pub fn active_rounds(&self, rounds: usize) -> usize {
        if rounds == 0 || self.join_round >= rounds {
            return 0;
        }
        let last = self.leave_after.map(|l| l.min(rounds - 1)).unwrap_or(rounds - 1);
        (last + 1).saturating_sub(self.join_round)
    }
}

/// Workload description for one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSpec {
    /// One slot per client, indexed by client number.
    pub slots: Vec<ClientSlot>,
    /// Rounds the fleet runs; every active client syncs one batch per round.
    pub rounds: usize,
    /// Files per batch.
    pub files_per_batch: usize,
    /// Size of each file in bytes.
    pub file_size: usize,
    /// Master seed; every (client, round, file) derives an independent seed,
    /// and the churn schedule derives from it too.
    pub seed: u64,
    /// GC policy for stores the convenience runners create.
    pub gc: GcPolicy,
    /// The `(joiners, leavers)` churn population installed by
    /// [`FleetSpec::with_churn`], kept so a later [`FleetSpec::with_seed`]
    /// re-derives the schedule instead of leaving a stale one.
    pub churn: Option<(usize, usize)>,
    /// The `(pullers, sources_per_puller)` restore fan installed by
    /// [`FleetSpec::with_restore_fan`], kept for the same re-derivation
    /// reason as `churn`.
    pub restore_fan: Option<(usize, usize)>,
    /// The think-time distribution: the seeded pause a client inserts
    /// before each activity burst. [`ThinkTime::NONE`] (the default) is the
    /// legacy lock-step behaviour.
    pub think: ThinkTime,
    /// Upper bound of the intra-round arrival jitter: each activation is
    /// offset by a seeded draw from `[0, arrival_jitter]` so clients start
    /// their syncs at distinct virtual instants instead of a shared
    /// barrier. Zero (the default) is the legacy behaviour.
    pub arrival_jitter: SimDuration,
    /// Per-round activation probability in `[0, 1]`: each connected round
    /// activates (syncs a batch) with this probability and otherwise idles,
    /// paying only background signalling. 1.0 (the default) is the legacy
    /// every-round-syncs behaviour.
    pub activation: f64,
    /// Fault injection: `None` (the default) runs every transfer with no
    /// outage to recover from — byte-identical to fleets that predate the
    /// failure model. `Some` derives a seeded outage schedule per
    /// activation (and per restore pull) and drives every storage transfer
    /// through the resumable session layer under the configured retry
    /// policy. Control traffic stays fault-free. Schedules derive from the master seed at
    /// run time, so a later [`FleetSpec::with_seed`] needs no re-derivation.
    pub faults: Option<FleetFaults>,
}

impl FleetSpec {
    /// Content type of the generated files.
    pub const KIND: FileKind = FileKind::RandomBinary;

    /// Fraction of each batch drawn from a fleet-wide shared pool: identical
    /// bytes across users, modelling popular content. This is what
    /// inter-user dedup (§4.3) acts on.
    pub const SHARED_FRACTION: f64 = 0.5;

    /// A homogeneous fleet of `clients` users of one service on the campus
    /// link, each syncing one round of ten 64 kB files, half of them from
    /// the shared pool — the scaling suite's workload.
    pub fn new(profile: ServiceProfile, clients: usize) -> FleetSpec {
        let slots = (0..clients).map(|_| ClientSlot::resident(profile.clone())).collect();
        FleetSpec {
            slots,
            rounds: 1,
            files_per_batch: 10,
            file_size: 64 * 1024,
            seed: 0xF1EE7,
            gc: GcPolicy::default(),
            churn: None,
            restore_fan: None,
            think: ThinkTime::NONE,
            arrival_jitter: SimDuration::ZERO,
            activation: 1.0,
            faults: None,
        }
    }

    /// A fully explicit heterogeneous fleet.
    pub fn heterogeneous(slots: Vec<ClientSlot>) -> FleetSpec {
        let mut spec = FleetSpec::new(ServiceProfile::dropbox(), 0);
        spec.slots = slots;
        spec
    }

    /// Number of client slots.
    pub fn clients(&self) -> usize {
        self.slots.len()
    }

    /// Sets rounds (historically "batches per client": a non-churning client
    /// syncs exactly one batch per round). If a churn schedule was already
    /// installed it is re-derived for the new round count, so builder-call
    /// order cannot leave join/leave rounds outside the run.
    pub fn with_batches(mut self, rounds: usize) -> FleetSpec {
        assert!(rounds > 0, "a fleet needs at least one round");
        self.rounds = rounds;
        if let Some((joiners, leavers)) = self.churn {
            assert!(self.rounds >= 2, "churn needs at least two rounds");
            self.apply_churn(joiners, leavers);
        }
        self
    }

    /// Sets the per-batch workload (file count and size).
    pub fn with_files(mut self, files_per_batch: usize, file_size: usize) -> FleetSpec {
        self.files_per_batch = files_per_batch;
        self.file_size = file_size;
        self
    }

    /// Sets the master seed. If a churn schedule or restore fan was already
    /// installed it is re-derived from the new seed, so builder-call order
    /// cannot leave a schedule that contradicts the seed.
    pub fn with_seed(mut self, seed: u64) -> FleetSpec {
        self.seed = seed;
        if let Some((joiners, leavers)) = self.churn {
            self.apply_churn(joiners, leavers);
        }
        if let Some((pullers, sources)) = self.restore_fan {
            self.apply_restore_fan(pullers, sources);
        }
        self
    }

    /// Sets the GC policy the convenience runners build their store with.
    pub fn with_gc(mut self, gc: GcPolicy) -> FleetSpec {
        self.gc = gc;
        self
    }

    /// Sets the think-time distribution sampled before each activity burst.
    pub fn with_think_time(mut self, think: ThinkTime) -> FleetSpec {
        self.think = think;
        self
    }

    /// Sets the intra-round arrival jitter bound.
    pub fn with_arrival_jitter(mut self, jitter: SimDuration) -> FleetSpec {
        self.arrival_jitter = jitter;
        self
    }

    /// Sets the per-round activation probability (1.0 = sync every
    /// connected round, the legacy behaviour; below that, the remaining
    /// rounds are idle).
    pub fn with_activation(mut self, activation: f64) -> FleetSpec {
        assert!(
            (0.0..=1.0).contains(&activation),
            "activation probability must be within [0, 1], got {activation}"
        );
        self.activation = activation;
        self
    }

    /// Enables fault injection: every activation's storage transfers run
    /// under a seeded outage schedule and the configured retry policy (see
    /// [`FleetSpec::faults`]).
    pub fn with_faults(mut self, faults: FleetFaults) -> FleetSpec {
        faults.spec.validate();
        self.faults = Some(faults);
        self
    }

    /// Derives the fleet's temporal schedule — a pure function of the spec
    /// (see [`FleetSchedule::generate`]): calling this twice, or from any
    /// number of threads, yields identical event lists.
    pub fn schedule(&self) -> FleetSchedule {
        FleetSchedule::generate(self)
    }

    /// True when the temporal configuration degenerates to the legacy
    /// lock-step (no think time, no jitter, full activation).
    pub fn is_lockstep(&self) -> bool {
        self.think.is_zero() && self.arrival_jitter.is_zero() && self.activation >= 1.0
    }

    /// Rounds slot `i` actually syncs in (activated rounds of the derived
    /// schedule) — the denominator completion distributions and expected
    /// volumes must use once idle rounds exist. Each call derives the whole
    /// fleet schedule; when querying many slots, call
    /// [`FleetSpec::schedule`] once and index `clients[i].sync_rounds()`
    /// instead (as [`FleetSpec::total_logical_bytes`] does internally).
    pub fn sync_rounds_of(&self, i: usize) -> usize {
        self.schedule().clients[i].sync_rounds()
    }

    /// Distributes service profiles round-robin across the slots (a mixed
    /// fleet: slot `i` runs `profiles[i % len]`).
    pub fn with_profiles(mut self, profiles: &[ServiceProfile]) -> FleetSpec {
        assert!(!profiles.is_empty(), "need at least one profile");
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.profile = profiles[i % profiles.len()].clone();
        }
        self
    }

    /// Distributes access links round-robin across the slots (per-client
    /// network diversity: slot `i` sits behind `links[i % len]`).
    pub fn with_links(mut self, links: &[AccessLink]) -> FleetSpec {
        assert!(!links.is_empty(), "need at least one link");
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.link = links[i % links.len()];
        }
        self
    }

    /// Installs a deterministic churn schedule derived from the master seed:
    /// the first `leavers` slots leave mid-run (hard-deleting their
    /// manifests), the last `joiners` slots join mid-run. Requires at least
    /// two rounds and disjoint joiner/leaver populations.
    pub fn with_churn(mut self, joiners: usize, leavers: usize) -> FleetSpec {
        assert!(self.rounds >= 2, "churn needs at least two rounds");
        assert!(
            joiners + leavers <= self.slots.len(),
            "churn population exceeds the fleet ({} + {} > {})",
            joiners,
            leavers,
            self.slots.len()
        );
        self.churn = Some((joiners, leavers));
        self.apply_churn(joiners, leavers);
        self
    }

    fn apply_churn(&mut self, joiners: usize, leavers: usize) {
        // The installed schedule owns every slot's lifecycle: reset first,
        // so re-deriving (new seed, new round count, smaller population)
        // never leaves stale assignments outside the current population.
        for slot in self.slots.iter_mut() {
            slot.join_round = 0;
            slot.leave_after = None;
        }
        let span = (self.rounds - 1) as u64;
        for l in 0..leavers {
            // Leave after some round in [0, rounds-2]: departures always
            // happen strictly before the run ends, so later rounds observe
            // the released references.
            let pick = self.derived_seed(l as u64, 0xC0FFEE, 0) % span;
            self.slots[l].leave_after = Some(pick as usize);
        }
        let n = self.slots.len();
        for j in 0..joiners {
            // Join at some round in [1, rounds-1].
            let pick = 1 + self.derived_seed(j as u64, 0x901E5, 0) % span;
            self.slots[n - 1 - j].join_round = pick as usize;
        }
    }

    /// Installs a seeded restore fan: the last `pullers` slots become
    /// downloaders that, after every sync round, pull the full namespaces of
    /// `sources_per_puller` other slots (drawn deterministically from the
    /// master seed) back down through their own access links. Round-major
    /// fleets thereby mix uploaders and downloaders; a puller whose source
    /// departed (churn) records a clean failure. Like churn, the fan is
    /// re-derived if the seed changes later.
    pub fn with_restore_fan(mut self, pullers: usize, sources_per_puller: usize) -> FleetSpec {
        assert!(pullers <= self.slots.len(), "more pullers than slots");
        assert!(sources_per_puller >= 1, "a puller needs at least one source");
        assert!(self.slots.len() >= 2, "a restore fan needs at least two slots");
        self.restore_fan = Some((pullers, sources_per_puller));
        self.apply_restore_fan(pullers, sources_per_puller);
        self
    }

    fn apply_restore_fan(&mut self, pullers: usize, sources_per_puller: usize) {
        let n = self.slots.len();
        for slot in self.slots.iter_mut() {
            slot.pull_from = Vec::new();
        }
        for k in 0..pullers {
            let i = n - 1 - k;
            let mut sources = Vec::with_capacity(sources_per_puller);
            let mut probe = 0u64;
            while sources.len() < sources_per_puller.min(n - 1) {
                let pick = (self.derived_seed(i as u64, 0x9E57, probe) % n as u64) as usize;
                probe += 1;
                if pick != i && !sources.contains(&pick) {
                    sources.push(pick);
                }
            }
            self.slots[i].pull_from = sources;
        }
    }

    /// Total plaintext bytes the whole fleet synchronises over all its
    /// *activated* rounds. Idle rounds contribute nothing: the schedule,
    /// not the membership window, is the denominator.
    pub fn total_logical_bytes(&self) -> u64 {
        let per_batch = self.files_per_batch as u64 * self.file_size as u64;
        let schedule = self.schedule();
        schedule.clients.iter().map(|c| c.sync_rounds() as u64 * per_batch).sum()
    }

    /// The user name of client `i`.
    pub fn user(&self, i: usize) -> String {
        format!("user-{i:04}")
    }

    fn derived_seed(&self, client: u64, batch: u64, file: u64) -> u64 {
        cloudsim_workload::seed::derive_seed(self.seed, client, batch, file)
    }

    /// Number of files of each batch that come from the fleet-wide shared
    /// pool (identical bytes for every client).
    pub fn shared_files_per_batch(&self) -> usize {
        ((self.files_per_batch as f64) * FleetSpec::SHARED_FRACTION).round() as usize
    }

    /// Lazily generates the batch client `client` syncs in round `round`,
    /// one file at a time: content is produced only when the iterator is
    /// advanced, so drivers that stream files (or never touch content at
    /// all, like the fleet-scale runner's metadata path) pay nothing for
    /// the files they skip. The first [`FleetSpec::shared_files_per_batch`]
    /// files carry shared-pool content (seeded by round and file index
    /// only, identical across clients); the rest are private to the client.
    /// Collecting the stream yields exactly [`FleetSpec::workload`].
    pub fn workload_stream(
        &self,
        client: usize,
        round: usize,
    ) -> impl Iterator<Item = GeneratedFile> + '_ {
        let shared = self.shared_files_per_batch();
        (0..self.files_per_batch).map(move |f| {
            let (label, seed) = if f < shared {
                // Shared pool: client index deliberately excluded.
                ("shared", self.derived_seed(u64::MAX, round as u64, f as u64))
            } else {
                ("private", self.derived_seed(client as u64, round as u64, f as u64))
            };
            GeneratedFile {
                path: format!("{label}/b{round:03}_f{f:04}.{}", FleetSpec::KIND.extension()),
                content: generate(FleetSpec::KIND, self.file_size, seed),
            }
        })
    }

    /// Generates the batch client `client` syncs in round `round` — the
    /// eager collection of [`FleetSpec::workload_stream`].
    pub fn workload(&self, client: usize, round: usize) -> Vec<GeneratedFile> {
        self.workload_stream(client, round).collect()
    }

    /// Generates the batch one schedule activation syncs — batch generation
    /// is keyed to the activation event, not a bare round counter. Content
    /// stays seeded by the activation's *round* so the fleet-wide shared
    /// pool keeps aligning across clients whatever their idle patterns (and
    /// the legacy lock-step configuration, where ordinal == round offset,
    /// replays the old content byte-identically).
    pub fn workload_for(&self, client: usize, activation: &SyncActivation) -> Vec<GeneratedFile> {
        self.workload(client, activation.round)
    }

    fn validate(&self) {
        assert!(!self.slots.is_empty(), "a fleet needs at least one client");
        assert!(self.rounds > 0, "a fleet needs at least one round");
        if let Some(faults) = &self.faults {
            faults.spec.validate();
        }
        for (i, slot) in self.slots.iter().enumerate() {
            assert!(
                slot.join_round < self.rounds,
                "client {i} joins in round {} of a {}-round run",
                slot.join_round,
                self.rounds
            );
            if let Some(leave) = slot.leave_after {
                assert!(
                    leave >= slot.join_round,
                    "client {i} leaves (after round {leave}) before joining (round {})",
                    slot.join_round
                );
                assert!(
                    leave < self.rounds,
                    "client {i} leaves after round {leave} of a {}-round run — the departure \
                     would never execute",
                    self.rounds
                );
            }
        }
    }
}

/// What one client of the fleet did, in its own simulated universe.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSummary {
    /// The user account the client synced as.
    pub user: String,
    /// Service the client ran.
    pub service: String,
    /// Access link the client sat behind.
    pub link: String,
    /// Round the client joined in.
    pub join_round: usize,
    /// Manifests the client hard-deleted on departure.
    pub deleted_manifests: usize,
    /// Connected rounds the client spent idle: no sync, keep-alive
    /// signalling only.
    pub idle_rounds: usize,
    /// One outcome per *activated* round, in order. Empty for a client the
    /// schedule never activated (always idle).
    pub outcomes: Vec<SyncOutcome>,
    /// One outcome per restore operation (pull of one source user in one
    /// round), in execution order. Empty for pure uploaders.
    pub restores: Vec<RestoreOutcome>,
    /// Simulated seconds from the first batch's modification to the last
    /// batch's upload completion. 0.0 for a client that never synced.
    pub completion_secs: f64,
    /// Plaintext bytes of all batches.
    pub logical_bytes: u64,
    /// Payload bytes the client actually uploaded (after its capabilities).
    pub uploaded_payload: u64,
    /// Wire bytes of the client's control-plane flows (login, metadata
    /// commits, keep-alive polls) — the §3.1 background-signalling side of
    /// the background-vs-payload split.
    pub background_wire_bytes: u64,
    /// Wire bytes of the client's storage flows (chunk uploads and
    /// downloads, headers included) — the payload side of the split.
    pub payload_wire_bytes: u64,
    /// Payload bytes durably committed. Equals `uploaded_payload` when the
    /// fleet runs fault-free (or every retry succeeded); falls below it
    /// when retry budgets ran out and chunks were abandoned.
    pub committed_payload: u64,
    /// Chunks abandoned after their retry budget ran out (0 without faults).
    pub abandoned_chunks: usize,
    /// Files abandoned mid-restore after their retry budget ran out.
    pub abandoned_restores: usize,
    /// Interruption / retry / wasted-byte accounting over every faulted
    /// transfer of the client. All-zero without faults.
    pub fault_stats: FaultStats,
    /// Distribution of every backoff wait the client's faulted transfers
    /// slept. Empty without faults.
    pub backoff_waits: LatencyHistogram,
}

impl ClientSummary {
    /// Payload bytes the client pulled down across all its restores.
    pub fn downloaded_payload(&self) -> u64 {
        self.restores.iter().map(|r| r.downloaded_payload).sum()
    }

    /// Plaintext bytes of the content this client restored.
    pub fn restored_logical_bytes(&self) -> u64 {
        self.restores.iter().map(|r| r.logical_bytes).sum()
    }

    /// Plaintext bytes the down-path dedup check kept off the wire.
    pub fn restore_dedup_skipped_bytes(&self) -> u64 {
        self.restores.iter().map(|r| r.dedup_skipped_bytes).sum()
    }

    /// Restore operations that failed cleanly (hard-deleted manifests,
    /// departed sources), summed over every pull.
    pub fn restore_failures(&self) -> usize {
        self.restores.iter().map(|r| r.files_failed).sum()
    }

    /// Simulated seconds this client spent restoring, summed over pulls.
    pub fn restore_secs(&self) -> f64 {
        self.restores.iter().map(|r| r.duration_secs()).sum()
    }

    /// Time to first restored byte of the client's first payload-moving
    /// pull, if any payload ever travelled.
    pub fn first_restore_ttfb_secs(&self) -> Option<f64> {
        self.restores.iter().find_map(|r| r.ttfb_secs())
    }

    /// Rounds this client actually synced a batch in.
    pub fn synced_rounds(&self) -> usize {
        self.outcomes.len()
    }

    /// Virtual start time of this client's first sync, if it ever synced.
    pub fn first_sync_started_at(&self) -> Option<SimTime> {
        self.outcomes.first().map(|o| o.sync_started_at)
    }

    /// Paper-style sync start-up delays (modification to sync start), one
    /// sample per activated round.
    pub fn startup_delays_secs(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| (o.sync_started_at - o.modification_time).as_secs_f64())
            .collect()
    }
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-client summaries, indexed by client number.
    pub clients: Vec<ClientSummary>,
    /// The shared store the fleet committed into.
    pub store: ObjectStore,
    /// Host wall-clock time the run took (the only non-deterministic field;
    /// used for sharded-vs-single-lock throughput comparisons).
    pub elapsed: std::time::Duration,
}

impl FleetRun {
    /// Aggregate server-side statistics after the run.
    pub fn aggregate(&self) -> AggregateStats {
        self.store.aggregate()
    }

    /// Distribution of per-client completion times (simulated seconds) over
    /// the clients that actually synced — always-idle clients are excluded
    /// so idle rounds never drag the denominator (a fleet where nobody
    /// synced reports the zero distribution, not NaNs).
    pub fn completion_stats(&self) -> SampleStats {
        let samples: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| !c.outcomes.is_empty())
            .map(|c| c.completion_secs)
            .collect();
        SampleStats::from_samples(&samples).unwrap_or(SampleStats::zero())
    }

    /// Plaintext bytes synchronised by the whole fleet.
    pub fn total_logical_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.logical_bytes).sum()
    }

    /// Payload bytes uploaded by the whole fleet.
    pub fn total_uploaded_payload(&self) -> u64 {
        self.clients.iter().map(|c| c.uploaded_payload).sum()
    }

    /// Aggregate goodput in bits per simulated second: fleet plaintext volume
    /// over the slowest client's completion time (clients sync in parallel
    /// wall-clock-wise, so the fleet is done when the last client is).
    /// 0.0 for empty or zero-byte runs — never NaN or infinite.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        let slowest = self.clients.iter().map(|c| c.completion_secs).fold(0.0f64, f64::max);
        if slowest > 0.0 {
            self.total_logical_bytes() as f64 * 8.0 / slowest
        } else {
            0.0
        }
    }

    /// Server-side inter-user dedup ratio after the run. 0.0 when the store
    /// holds no physical bytes (empty run, or churn + GC reclaimed
    /// everything) — never NaN or infinite; see
    /// [`AggregateStats::dedup_ratio`].
    pub fn dedup_ratio(&self) -> f64 {
        self.aggregate().dedup_ratio()
    }

    /// Completion-time distribution per service, in first-appearance order —
    /// the per-profile breakdown of the heterogeneous suite. Clients the
    /// schedule never activated are excluded from their group's samples
    /// (and a group of only-idle clients is omitted), keeping the
    /// denominators honest under idle rounds.
    pub fn per_service_completion(&self) -> Vec<(String, SampleStats)> {
        self.grouped(|c| c.service.clone())
            .into_iter()
            .filter_map(|(name, members)| {
                let samples: Vec<f64> = members
                    .iter()
                    .filter(|c| !c.outcomes.is_empty())
                    .map(|c| c.completion_secs)
                    .collect();
                SampleStats::from_samples(&samples).map(|stats| (name, stats))
            })
            .collect()
    }

    /// Goodput per access link in bits per simulated second (volume of the
    /// link's clients over the slowest of them), in first-appearance order.
    pub fn per_link_goodput_bps(&self) -> Vec<(String, f64)> {
        self.grouped(|c| c.link.clone())
            .into_iter()
            .map(|(name, members)| {
                let bytes: u64 = members.iter().map(|c| c.logical_bytes).sum();
                let slowest = members.iter().map(|c| c.completion_secs).fold(0.0f64, f64::max);
                let bps = if slowest > 0.0 { bytes as f64 * 8.0 / slowest } else { 0.0 };
                (name, bps)
            })
            .collect()
    }

    /// Payload bytes the whole fleet pulled down across its restore fans.
    pub fn total_downloaded_payload(&self) -> u64 {
        self.clients.iter().map(|c| c.downloaded_payload()).sum()
    }

    /// Plaintext bytes of the content the fleet restored.
    pub fn total_restored_logical_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.restored_logical_bytes()).sum()
    }

    /// Plaintext bytes the down-path dedup checks kept off the wire — the
    /// cross-user savings of the shared pool, seen from the download side.
    pub fn restore_dedup_saved_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.restore_dedup_skipped_bytes()).sum()
    }

    /// Clean restore failures over the whole run (pulls of departed users,
    /// hard-deleted manifests).
    pub fn total_restore_failures(&self) -> usize {
        self.clients.iter().map(|c| c.restore_failures()).sum()
    }

    /// Restore goodput per access link in bits per simulated second
    /// (restored plaintext of the link's pullers over the slowest of them),
    /// in first-appearance order. Links whose clients never pulled are
    /// omitted. On asymmetric links this is the *downstream* story the
    /// upload-side [`FleetRun::per_link_goodput_bps`] cannot tell.
    pub fn per_link_restore_goodput_bps(&self) -> Vec<(String, f64)> {
        self.grouped(|c| c.link.clone())
            .into_iter()
            .filter_map(|(name, members)| {
                let bytes: u64 = members.iter().map(|c| c.restored_logical_bytes()).sum();
                let slowest = members.iter().map(|c| c.restore_secs()).fold(0.0f64, f64::max);
                (slowest > 0.0 && bytes > 0).then(|| (name, bytes as f64 * 8.0 / slowest))
            })
            .collect()
    }

    /// Mean time-to-first-restored-byte per access link (seconds), over the
    /// pullers that actually moved payload, in first-appearance order.
    pub fn per_link_restore_ttfb_secs(&self) -> Vec<(String, f64)> {
        self.grouped(|c| c.link.clone())
            .into_iter()
            .filter_map(|(name, members)| {
                let samples: Vec<f64> =
                    members.iter().filter_map(|c| c.first_restore_ttfb_secs()).collect();
                (!samples.is_empty())
                    .then(|| (name, samples.iter().sum::<f64>() / samples.len() as f64))
            })
            .collect()
    }

    /// Every sync's `[start, completion)` interval on the shared virtual
    /// axis, across all clients — the raw material of the concurrency
    /// analysis.
    pub fn sync_intervals(&self) -> Vec<(SimTime, SimTime)> {
        self.clients
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .map(|o| (o.sync_started_at, o.completed_at))
            .collect()
    }

    /// Per-round concurrency high-water mark: the most syncs in flight at
    /// any virtual instant. Lock-step fleets peak near the fleet size;
    /// arrival jitter and idle rounds spread the load and lower the peak.
    pub fn sync_concurrency_peak(&self) -> usize {
        cloudsim_trace::series::concurrency_peak(&self.sync_intervals())
    }

    /// Distribution of paper-style sync start-up delays (modification to
    /// sync start), one sample per activated round across the fleet.
    pub fn startup_delay_stats(&self) -> SampleStats {
        let samples: Vec<f64> = self.clients.iter().flat_map(|c| c.startup_delays_secs()).collect();
        SampleStats::from_samples(&samples).unwrap_or(SampleStats::zero())
    }

    /// Spread of first-sync start times across the fleet in simulated
    /// seconds (latest minus earliest). Zero for a lock-step fleet of
    /// identical clients; arrival jitter pulls it apart.
    pub fn first_sync_spread_secs(&self) -> f64 {
        let starts: Vec<SimTime> =
            self.clients.iter().filter_map(|c| c.first_sync_started_at()).collect();
        match (starts.iter().min(), starts.iter().max()) {
            (Some(min), Some(max)) => (*max - *min).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Connected-but-idle rounds across the whole fleet.
    pub fn total_idle_rounds(&self) -> usize {
        self.clients.iter().map(|c| c.idle_rounds).sum()
    }

    /// Activated sync rounds across the whole fleet.
    pub fn total_synced_rounds(&self) -> usize {
        self.clients.iter().map(|c| c.synced_rounds()).sum()
    }

    /// Control-plane wire bytes (login, metadata, keep-alive polling)
    /// summed over every client — the background half of the
    /// background-vs-payload split.
    pub fn total_background_wire_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.background_wire_bytes).sum()
    }

    /// Storage-flow wire bytes summed over every client — the payload half
    /// of the split.
    pub fn total_payload_wire_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.payload_wire_bytes).sum()
    }

    /// Fraction of all wire bytes that were background signalling, in
    /// `[0, 1]`. 0.0 for a run that moved no bytes at all — never NaN.
    pub fn background_fraction(&self) -> f64 {
        let background = self.total_background_wire_bytes() as f64;
        let total = background + self.total_payload_wire_bytes() as f64;
        if total > 0.0 {
            background / total
        } else {
            0.0
        }
    }

    /// Distribution of per-sync commit durations (sync start to upload
    /// completion) across every activated round of every client. Clients
    /// are visited in index order and the histogram's buckets are fixed, so
    /// the result is bit-identical across worker counts and reruns.
    pub fn sync_duration_histogram(&self) -> LatencyHistogram {
        self.clients
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .map(|o| o.completed_at - o.sync_started_at)
            .collect()
    }

    /// Distribution of end-to-end restore durations (request to completion)
    /// across every restore operation of every client.
    pub fn restore_duration_histogram(&self) -> LatencyHistogram {
        self.clients
            .iter()
            .flat_map(|c| c.restores.iter())
            .map(|r| r.completed_at - r.requested_at)
            .collect()
    }

    fn grouped<K: Fn(&ClientSummary) -> String>(
        &self,
        key: K,
    ) -> Vec<(String, Vec<&ClientSummary>)> {
        let mut groups: Vec<(String, Vec<&ClientSummary>)> = Vec::new();
        for client in &self.clients {
            let k = key(client);
            match groups.iter_mut().find(|(name, _)| *name == k) {
                Some((_, members)) => members.push(client),
                None => groups.push((k, vec![client])),
            }
        }
        groups
    }
}

/// One client's live state across rounds.
struct LiveClient {
    client: SyncClient,
    sim: Simulator,
    outcomes: Vec<SyncOutcome>,
    restores: Vec<RestoreOutcome>,
    first_modification: Option<SimTime>,
    next_modification: SimTime,
    deleted_manifests: usize,
    idle_rounds: usize,
    committed_payload: u64,
    abandoned_chunks: usize,
    abandoned_restores: usize,
    fault_stats: FaultStats,
    backoff_waits: LatencyHistogram,
}

fn spawn_client(
    spec: &FleetSpec,
    store: &ObjectStore,
    sizes: &Arc<SizeMemo>,
    i: usize,
    round: usize,
) -> LiveClient {
    let slot = &spec.slots[i];
    let user = spec.user(i);
    let mut client =
        SyncClient::for_user_on_link(slot.profile.clone(), store.clone(), &user, &slot.link)
            .with_size_memo(sizes.clone());
    let mut sim = Simulator::new(spec.derived_seed(i as u64, u64::MAX, 0));
    let epoch = SimTime::from_secs(round as u64 * ROUND_EPOCH_SECS);
    let login_done = client.login(&mut sim, epoch);
    LiveClient {
        client,
        sim,
        outcomes: Vec::new(),
        restores: Vec::new(),
        first_modification: None,
        next_modification: login_done + SimDuration::from_secs(5),
        deleted_manifests: 0,
        idle_rounds: 0,
        committed_payload: 0,
        abandoned_chunks: 0,
        abandoned_restores: 0,
        fault_stats: FaultStats::default(),
        backoff_waits: LatencyHistogram::new(),
    }
}

/// Runs one storage operation of client `i` under the recovery context of
/// its transfer window: none on a fault-free fleet; otherwise an outage
/// schedule anchored at `at` — so every window of the run gets its own
/// seeded failures — the fleet's retry policy and a jitter seed, the last
/// drawn from the salt after the schedule's.
fn with_recovery<T>(
    spec: &FleetSpec,
    i: usize,
    salt: u64,
    round: usize,
    at: SimTime,
    run: impl FnOnce(Option<&Recovery>) -> T,
) -> T {
    let Some(faults) = &spec.faults else { return run(None) };
    let schedule =
        FaultSchedule::generate(&faults.spec, spec.derived_seed(i as u64, salt, round as u64))
            .shifted(at.saturating_since(SimTime::ZERO));
    let policy = faults.retry.policy();
    let seed = spec.derived_seed(i as u64, salt + 1, round as u64);
    run(Some(&Recovery { faults: &schedule, policy: policy.as_ref(), seed }))
}

/// One client's restore fan for one round: pull every source user's full
/// namespace. Store reads only — the round's sync barrier already happened,
/// so every puller sees the same server state regardless of thread order.
/// With fault injection, each pull runs under its own seeded outage
/// schedule through the ranged resumable download path.
fn restore_round(spec: &FleetSpec, lc: &mut LiveClient, i: usize, round: usize) {
    for (k, &src) in spec.slots[i].pull_from.iter().enumerate() {
        let owner = spec.user(src);
        let at = lc.next_modification;
        let salt = RESTORE_FAULT_SALT + 2 * k as u64;
        let pulled = with_recovery(spec, i, salt, round, at, |rec| {
            let rec = rec.unwrap_or(&Recovery::NONE);
            lc.client.restore_user_faulted(&mut lc.sim, &owner, at, rec)
        });
        lc.abandoned_restores += pulled.files_abandoned;
        lc.fault_stats.merge(&pulled.stats);
        lc.backoff_waits.merge(&pulled.backoff_waits);
        lc.next_modification = pulled.outcome.completed_at + SimDuration::from_secs(2);
        lc.restores.push(pulled.outcome);
    }
}

/// One activated sync: the client's clock advances by its seeded think-time
/// pause and arrival jitter before the batch lands in the synced folder, so
/// arrivals spread across the round instead of hitting a shared barrier.
/// With the legacy all-zero temporal config this is exactly the old
/// chained `next_modification` timeline.
fn sync_round(spec: &FleetSpec, lc: &mut LiveClient, i: usize, activation: &SyncActivation) {
    let files = spec.workload_for(i, activation);
    let at = lc.next_modification + activation.think + activation.arrival_jitter;
    let synced = with_recovery(spec, i, SYNC_FAULT_SALT, activation.round, at, |rec| {
        lc.client.sync(&mut lc.sim, &files, at, rec)
    });
    // Fault-free, everything planned is durable and nothing below moves.
    lc.committed_payload += synced.committed_payload;
    lc.abandoned_chunks += synced.abandoned_chunks;
    lc.fault_stats.merge(&synced.stats);
    lc.backoff_waits.merge(&synced.backoff_waits);
    let outcome = synced.outcome;
    lc.next_modification = outcome.completed_at + SimDuration::from_secs(2);
    if lc.first_modification.is_none() {
        lc.first_modification = Some(outcome.modification_time);
    }
    lc.outcomes.push(outcome);
}

/// One idle round: the client stays connected for the round's span of
/// virtual time and pays only the §3.1 keep-alive signalling its profile
/// prescribes. The store is untouched.
fn idle_round(lc: &mut LiveClient) {
    let until = lc.next_modification + SimDuration::from_secs(ROUND_EPOCH_SECS);
    lc.client.idle_until(&mut lc.sim, until);
    lc.next_modification = until;
    lc.idle_rounds += 1;
}

fn summarize(spec: &FleetSpec, i: usize, lc: LiveClient) -> ClientSummary {
    let slot = &spec.slots[i];
    // A client the schedule never activated (always idle) has no syncs: it
    // reports a zero completion span, not a panic — the distributions
    // upstream exclude it from their denominators.
    let completion_secs = match (lc.first_modification, lc.outcomes.last()) {
        (Some(first), Some(last)) => (last.completed_at - first).as_secs_f64(),
        _ => 0.0,
    };
    let trace = lc.sim.trace();
    let background_wire_bytes: u64 =
        FlowKind::ALL.iter().filter(|k| k.is_control_plane()).map(|k| trace.wire_bytes(*k)).sum();
    ClientSummary {
        user: spec.user(i),
        service: slot.profile.name().to_string(),
        link: slot.link.name.to_string(),
        join_round: slot.join_round,
        deleted_manifests: lc.deleted_manifests,
        idle_rounds: lc.idle_rounds,
        completion_secs,
        logical_bytes: lc.outcomes.iter().map(|o| o.logical_bytes).sum(),
        uploaded_payload: lc.outcomes.iter().map(|o| o.uploaded_payload).sum(),
        background_wire_bytes,
        payload_wire_bytes: trace.wire_bytes(FlowKind::Storage),
        committed_payload: lc.committed_payload,
        abandoned_chunks: lc.abandoned_chunks,
        abandoned_restores: lc.abandoned_restores,
        fault_stats: lc.fault_stats,
        backoff_waits: lc.backoff_waits,
        outcomes: lc.outcomes,
        restores: lc.restores,
    }
}

/// Runs one parallel event wave: takes each event's client out of
/// `states`, applies `work` on up to `workers` threads, and puts the
/// results back — the engine-level analogue of the old per-round phase
/// barrier. Clients within a wave are pairwise distinct (the heap
/// guarantees it), so the fan-out never aliases a state slot. `work`
/// receives the client's prior state (`None` when the client has not been
/// spawned yet) and must return the live client.
fn run_wave<F>(states: &mut [Option<LiveClient>], events: &[FleetEvent], workers: usize, work: F)
where
    F: Fn(Option<LiveClient>, &FleetEvent) -> LiveClient + Sync,
{
    if events.is_empty() {
        return;
    }
    let tasks: Vec<Mutex<Option<LiveClient>>> =
        events.iter().map(|e| Mutex::new(states[e.client].take())).collect();
    let done: Vec<LiveClient> = cloudsim_parallel::run_indexed(
        workers.min(events.len()),
        events.len(),
        || (),
        |(), k| work(tasks[k].lock().expect("task mutex").take(), &events[k]),
    );
    for (k, lc) in done.into_iter().enumerate() {
        states[events[k].client] = Some(lc);
    }
}

/// Runs the fleet on up to `workers` OS threads, committing into `store`,
/// replaying the spec's precomputed [`FleetSchedule`] through the
/// discrete-event engine: the schedule is lowered into a time-ordered
/// [`EventHeap`] (see [`crate::engine`]) and popped wave by wave, touching
/// only each event's client. `workers = 1` is the sequential replay; any
/// other count produces bit-identical [`ClientSummary`]s and aggregate
/// store statistics, because the heap's `(timestamp, phase, client)` total
/// order is derived before the first client spawns (the temporal draws are
/// data, not thread timing) and each wave holds pairwise-distinct clients
/// whose store operations commute: at one virtual instant all sync commits
/// complete before idle clients poll their own universes, before any
/// restore fan reads, before any leaving client releases references, and
/// mark-sweep GC sweeps on one thread.
///
/// The run owns one size memo, shared by every client it spawns: a content
/// any client LZSS-counted — a shared-pool file, a chunk a puller restores
/// — is not counted again within the run. The counts are pure functions of
/// the bytes, so which worker counts first changes nothing.
pub fn run_fleet(spec: &FleetSpec, store: ObjectStore, workers: usize) -> FleetRun {
    spec.validate();
    let schedule = spec.schedule();
    let mut heap = EventHeap::derive(spec, &schedule);
    let sizes = Arc::new(SizeMemo::new());
    let started = std::time::Instant::now();
    let mut states: Vec<Option<LiveClient>> = spec.slots.iter().map(|_| None).collect();
    let mut summaries: Vec<Option<ClientSummary>> = spec.slots.iter().map(|_| None).collect();

    while let Some(wave) = heap.next_wave() {
        match wave.phase {
            // Sync wave: every activated client syncs one batch at its
            // scheduled virtual offset, in parallel. The store only sees
            // commits here, which commute. A client whose first event this
            // is spawns (and logs in) at its round's epoch.
            Phase::Sync => run_wave(&mut states, wave.events, workers, |lc, ev| {
                let mut lc =
                    lc.unwrap_or_else(|| spawn_client(spec, &store, &sizes, ev.client, ev.round));
                let activation = *schedule.clients[ev.client]
                    .activation_in(ev.round)
                    .expect("sync event derived from an activation");
                sync_round(spec, &mut lc, ev.client, &activation);
                lc
            }),

            // Idle wave: connected clients the schedule did not activate
            // stay online and pay one epoch of keep-alive signalling. Each
            // client polls only its own simulated universe — no store
            // access — so the wave commutes trivially. A client whose
            // *first* connected round is idle still spawns here.
            Phase::Idle => run_wave(&mut states, wave.events, workers, |lc, ev| {
                let mut lc =
                    lc.unwrap_or_else(|| spawn_client(spec, &store, &sizes, ev.client, ev.round));
                idle_round(&mut lc);
                lc
            }),

            // Restore wave (the heap orders it after the instant's syncs,
            // before any leave): pullers that synced fan their sources'
            // namespaces back down through their own links. The store is
            // only *read* here, and every puller observes the instant's
            // complete commits — reads commute, so concurrency stays
            // bit-exact. Sources that departed at an earlier instant fail
            // cleanly and are counted in the puller's summary.
            Phase::Restore => run_wave(&mut states, wave.events, workers, |lc, ev| {
                let mut lc = lc.expect("puller synced this round");
                restore_round(spec, &mut lc, ev.client, ev.round);
                lc
            }),

            // Leave events (after the instant's syncs and restores):
            // departing clients hard-delete their manifests — even when
            // their final round was idle. The store only sees releases
            // here, executed sequentially in client order — they never
            // race the instant's commits.
            Phase::Leave => {
                for ev in wave.events {
                    let mut lc = states[ev.client].take().expect("leaving client is live");
                    let at = lc.next_modification;
                    let (_, deleted) = lc.client.leave_service(&mut lc.sim, at);
                    lc.deleted_manifests = deleted;
                    summaries[ev.client] = Some(summarize(spec, ev.client, lc));
                }
            }

            // GC sweep: under mark-sweep, a single-threaded periodic pass
            // per epoch. (Eager frees already happened inside the
            // releases.) The event fires unconditionally; the policy check
            // lives here because the store is the caller's, not the
            // spec's.
            Phase::Gc => {
                if store.gc_policy() == GcPolicy::MarkSweep {
                    store.collect_garbage();
                }
            }
        }
    }

    for (i, state) in states.into_iter().enumerate() {
        if let Some(lc) = state {
            summaries[i] = Some(summarize(spec, i, lc));
        }
    }
    let clients = summaries
        .into_iter()
        .map(|s| s.expect("every slot was connected in at least one round"))
        .collect();
    FleetRun { clients, store, elapsed: started.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `spec` against a fresh store of its own GC policy: one worker is
    /// the sequential replay concurrent runs are compared to.
    fn fleet(spec: &FleetSpec, workers: usize) -> FleetRun {
        run_fleet(spec, ObjectStore::with_policy(spec.gc), workers)
    }

    /// Fault-recovery accounting merged over every client of a run.
    fn fault_stats(run: &FleetRun) -> FaultStats {
        let mut total = FaultStats::default();
        for client in &run.clients {
            total.merge(&client.fault_stats);
        }
        total
    }

    fn small_spec(clients: usize) -> FleetSpec {
        FleetSpec::new(ServiceProfile::dropbox(), clients)
            .with_files(4, 16 * 1024)
            .with_batches(2)
            .with_seed(42)
    }

    fn hetero_spec(clients: usize) -> FleetSpec {
        small_spec(clients)
            .with_batches(4)
            .with_profiles(&[
                ServiceProfile::dropbox(),
                ServiceProfile::skydrive(),
                ServiceProfile::google_drive(),
            ])
            .with_links(&[AccessLink::fiber(), AccessLink::adsl(), AccessLink::mobile3g()])
            .with_churn(1, 2)
    }

    #[test]
    fn workloads_share_content_across_clients_but_not_private_files() {
        let spec = small_spec(3);
        let a = spec.workload(0, 0);
        let b = spec.workload(1, 0);
        assert_eq!(a.len(), 4);
        let shared = spec.shared_files_per_batch();
        assert_eq!(shared, 2);
        for f in 0..shared {
            assert_eq!(a[f].content, b[f].content, "shared file {f} must match across clients");
        }
        for f in shared..4 {
            assert_ne!(a[f].content, b[f].content, "private file {f} must differ");
        }
        // Rounds differ from each other even in the shared pool.
        assert_ne!(spec.workload(0, 0)[0].content, spec.workload(0, 1)[0].content);
        // Workload generation is deterministic.
        assert_eq!(spec.workload(2, 1), spec.workload(2, 1));
    }

    #[test]
    fn concurrent_fleet_matches_sequential_replay_bit_for_bit() {
        let spec = small_spec(6);
        let concurrent = run_fleet(&spec, ObjectStore::new(), 6);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        for summary in &concurrent.clients {
            assert_eq!(
                concurrent.store.stats(&summary.user),
                sequential.store.stats(&summary.user),
                "{} per-user stats must match",
                summary.user
            );
            assert_eq!(
                concurrent.store.list_files(&summary.user),
                sequential.store.list_files(&summary.user)
            );
        }
    }

    #[test]
    fn churning_heterogeneous_fleet_is_deterministic_under_concurrency() {
        // The tentpole acceptance: mixed services, mixed links, joins,
        // leaves and GC — still bit-identical to the sequential replay,
        // under both GC policies.
        for gc in [GcPolicy::Eager, GcPolicy::MarkSweep] {
            let spec = hetero_spec(7).with_gc(gc);
            let concurrent = fleet(&spec, 4);
            let sequential = fleet(&spec, 1);
            assert_eq!(concurrent.clients, sequential.clients, "{gc:?}");
            assert_eq!(concurrent.aggregate(), sequential.aggregate(), "{gc:?}");
            assert!(concurrent.aggregate().reclaimed_bytes > 0, "{gc:?}: leavers must free bytes");
        }
    }

    #[test]
    fn churn_schedule_is_seed_deterministic_and_respects_bounds() {
        let spec = hetero_spec(7);
        assert_eq!(spec.slots, hetero_spec(7).slots);
        // Leavers at the front, joiners at the back, disjoint.
        assert!(spec.slots[0].leave_after.is_some());
        assert!(spec.slots[1].leave_after.is_some());
        assert!(spec.slots[6].join_round >= 1);
        for slot in &spec.slots {
            assert!(slot.join_round < spec.rounds);
            if let Some(l) = slot.leave_after {
                assert!(l >= slot.join_round && l < spec.rounds - 1);
            }
            assert!(slot.active_rounds(spec.rounds) >= 1);
        }
        // A different seed reshuffles the schedule, regardless of whether
        // the seed is set before or after with_churn (a later with_seed
        // re-derives the installed schedule).
        let reseeded = small_spec(7).with_batches(4).with_churn(3, 3).with_seed(1234);
        let baseline = small_spec(7).with_batches(4).with_churn(3, 3);
        assert_eq!(
            reseeded.slots,
            small_spec(7).with_batches(4).with_seed(1234).with_churn(3, 3).slots,
            "builder-call order must not change the schedule"
        );
        // Changing the round count after installing churn re-derives the
        // schedule for the new span instead of leaving stale rounds.
        let regrown = small_spec(7).with_batches(2).with_churn(3, 3).with_batches(8);
        for slot in &regrown.slots {
            assert!(slot.join_round < 8);
            if let Some(l) = slot.leave_after {
                assert!(l < 7, "leave_after {l} must precede the final round");
            }
        }
        assert_eq!(regrown.slots, small_spec(7).with_batches(8).with_churn(3, 3).slots);
        assert_ne!(
            reseeded.slots.iter().map(|s| (s.join_round, s.leave_after)).collect::<Vec<_>>(),
            baseline.slots.iter().map(|s| (s.join_round, s.leave_after)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn leavers_release_their_bytes_and_joiners_appear_late() {
        let spec = hetero_spec(7).with_gc(GcPolicy::Eager);
        let run = fleet(&spec, 4);
        assert_eq!(run.clients.len(), 7);

        let leaver = &run.clients[0];
        assert!(spec.slots[0].leave_after.is_some());
        assert!(leaver.deleted_manifests > 0);
        // The departed user's namespace is gone from the store.
        assert!(run.store.list_files(&leaver.user).is_empty());
        assert_eq!(run.store.stats(&leaver.user).chunks, 0);

        let joiner = &run.clients[6];
        assert!(joiner.join_round >= 1);
        let expected_rounds = spec.slots[6].active_rounds(spec.rounds);
        assert_eq!(joiner.outcomes.len(), expected_rounds);

        // Residents stay for every round.
        let resident = &run.clients[3];
        assert_eq!(resident.outcomes.len(), spec.rounds);
        assert!(run.store.stats(&resident.user).chunks > 0);

        // Reclaimed bytes show up in the aggregate, and what the leavers
        // exclusively held really is gone.
        let agg = run.aggregate();
        assert!(agg.reclaimed_bytes > 0);
        assert!(agg.freed_chunks > 0);
        assert!(agg.manifest_deletes > 0);
    }

    #[test]
    fn mixed_links_slow_the_constrained_clients() {
        // Same service everywhere; only the access link differs. The ADSL
        // client (1 Mb/s up) must finish far behind the fibre client.
        let spec = FleetSpec::new(ServiceProfile::dropbox(), 2)
            .with_files(4, 256 * 1024)
            .with_seed(9)
            .with_links(&[AccessLink::fiber(), AccessLink::adsl()]);
        let run = fleet(&spec, 4);
        let fiber = &run.clients[0];
        let adsl = &run.clients[1];
        assert!(
            adsl.completion_secs > 3.0 * fiber.completion_secs,
            "adsl {}s vs fiber {}s",
            adsl.completion_secs,
            fiber.completion_secs
        );
        // The per-link breakdown reports both groups.
        let per_link = run.per_link_goodput_bps();
        assert_eq!(per_link.len(), 2);
        assert!(per_link.iter().all(|(_, bps)| *bps > 0.0));
    }

    #[test]
    fn per_service_breakdown_groups_mixed_fleets() {
        let spec =
            small_spec(6).with_profiles(&[ServiceProfile::dropbox(), ServiceProfile::skydrive()]);
        let run = fleet(&spec, 4);
        let per_service = run.per_service_completion();
        assert_eq!(per_service.len(), 2);
        assert_eq!(per_service[0].0, "Dropbox");
        assert_eq!(per_service[1].0, "SkyDrive");
        assert_eq!(per_service[0].1.count + per_service[1].1.count, 6);
        // SkyDrive's chatty protocol is slower on the same workload.
        assert!(per_service[1].1.mean > per_service[0].1.mean);
    }

    #[test]
    fn shared_content_is_deduplicated_across_users_server_side() {
        // Dropbox dedups client-side per user, but only the *server* can
        // collapse identical chunks across users.
        let spec = small_spec(8);
        let run = fleet(&spec, 4);
        let agg = run.aggregate();
        assert_eq!(agg.users, 8);
        assert!(agg.server_dedup_hits > 0, "shared files must produce inter-user dedup hits");
        assert!(
            agg.physical_bytes < agg.referenced_bytes,
            "physical {} should be below referenced {}",
            agg.physical_bytes,
            agg.referenced_bytes
        );
        assert!(run.dedup_ratio() > 1.2, "dedup ratio {}", run.dedup_ratio());
        // Every client uploaded its full logical volume (client-side dedup
        // does not apply across users), so goodput accounting is non-trivial.
        assert_eq!(run.total_logical_bytes(), spec.total_logical_bytes());
        assert!(run.aggregate_goodput_bps() > 0.0);
        assert!(run.completion_stats().count == 8);
    }

    #[test]
    fn dedup_ratio_grows_with_fleet_size() {
        // The multi-tenant observation the single-computer testbed cannot
        // make: the bigger the fleet, the more the shared pool collapses.
        let small = fleet(&small_spec(2), 4);
        let large = fleet(&small_spec(12), 4);
        assert!(
            large.dedup_ratio() > small.dedup_ratio(),
            "12-client ratio {} must exceed 2-client ratio {}",
            large.dedup_ratio(),
            small.dedup_ratio()
        );
    }

    #[test]
    fn mixed_service_fleets_share_one_store() {
        // Two fleets of different services committing into one store: the
        // store is service-agnostic, so the shared pool deduplicates across
        // the whole user population regardless of which client uploaded it.
        let store = ObjectStore::new();
        let dropbox =
            FleetSpec::new(ServiceProfile::dropbox(), 2).with_files(3, 8 * 1024).with_seed(7);
        let wuala = dropbox.clone().with_profiles(&[ServiceProfile::wuala()]);
        run_fleet(&dropbox, store.clone(), 2);
        let run = run_fleet(&wuala, store.clone(), 2);
        let agg = run.aggregate();
        // The second fleet re-uses the same user indices, so the population
        // stays at two namespaces and identical content collapses.
        assert_eq!(agg.users, 2);
        assert!(agg.server_dedup_hits > 0);
        assert!(agg.physical_bytes < agg.referenced_bytes);
    }

    #[test]
    fn empty_runs_report_zeroes_not_nans() {
        // The division guards of the ratio/goodput helpers: a run with no
        // clients (or an unmeasurably fast one) reports 0.0 everywhere.
        let run = FleetRun {
            clients: Vec::new(),
            store: ObjectStore::new(),
            elapsed: std::time::Duration::ZERO,
        };
        assert_eq!(run.aggregate_goodput_bps(), 0.0);
        assert_eq!(run.dedup_ratio(), 0.0);
        assert_eq!(run.completion_stats().count, 0);
        assert!(run.per_service_completion().is_empty());
        assert!(run.per_link_goodput_bps().is_empty());
        assert!(run.aggregate_goodput_bps().is_finite());
        assert!(run.dedup_ratio().is_finite());
    }

    fn pulling_spec(clients: usize) -> FleetSpec {
        small_spec(clients)
            .with_batches(3)
            .with_links(&[AccessLink::fiber(), AccessLink::adsl()])
            .with_restore_fan(2, 2)
    }

    #[test]
    fn restore_fans_mix_uploaders_and_downloaders_deterministically() {
        let spec = pulling_spec(6);
        // The fan is seeded: last two slots pull two distinct others each.
        for i in 0..4 {
            assert!(spec.slots[i].pull_from.is_empty(), "slot {i} is a pure uploader");
        }
        for i in 4..6 {
            let fan = &spec.slots[i].pull_from;
            assert_eq!(fan.len(), 2);
            assert!(!fan.contains(&i), "no self-pulls");
            assert_eq!(spec.slots, pulling_spec(6).slots, "fan must be seed-deterministic");
        }
        assert_ne!(
            pulling_spec(6).with_seed(99).slots[5].pull_from,
            pulling_spec(6).slots[5].pull_from,
            "a different seed reshuffles the fan"
        );

        let concurrent = fleet(&spec, 4);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());

        // Pullers restored every source round they saw; content moved.
        let total_restored = concurrent.total_restored_logical_bytes();
        assert!(total_restored > 0);
        assert!(concurrent.total_downloaded_payload() > 0);
        // The shared pool halves what must travel: private files download,
        // shared files are already local on every client.
        let saved = concurrent.restore_dedup_saved_bytes();
        assert!(saved > 0, "shared-pool chunks must be skipped on the down path");
        assert!(concurrent.total_downloaded_payload() < total_restored);
        assert_eq!(concurrent.total_restore_failures(), 0);

        // Per-link restore views cover exactly the pullers' links.
        let goodput = concurrent.per_link_restore_goodput_bps();
        assert!(!goodput.is_empty());
        assert!(goodput.iter().all(|(_, bps)| *bps > 0.0));
        let ttfb = concurrent.per_link_restore_ttfb_secs();
        assert!(ttfb.iter().all(|(_, s)| *s > 0.0));

        // Pure uploaders report empty restore accounting.
        assert_eq!(concurrent.clients[0].restores.len(), 0);
        assert_eq!(concurrent.clients[0].downloaded_payload(), 0);
    }

    #[test]
    fn pulling_a_departed_source_fails_cleanly_and_is_counted() {
        // Slot 0 leaves after round 0 (hard churn); slot 3 pulls slot 0
        // every round. Rounds 1.. find the namespace gone: clean failures,
        // identical under concurrency, and the store stays consistent.
        for gc in [GcPolicy::Eager, GcPolicy::MarkSweep] {
            let mut spec = small_spec(4).with_batches(3).with_gc(gc);
            spec.slots[0].leave_after = Some(0);
            spec.slots[3].pull_from = vec![0];
            let concurrent = fleet(&spec, 4);
            let sequential = fleet(&spec, 1);
            assert_eq!(concurrent.clients, sequential.clients, "{gc:?}");
            assert_eq!(concurrent.aggregate(), sequential.aggregate(), "{gc:?}");

            let puller = &concurrent.clients[3];
            assert_eq!(puller.restores.len(), 3, "{gc:?}: one pull per round");
            // Round 0 succeeds (the source synced before leaving), the two
            // later rounds fail cleanly.
            assert!(puller.restores[0].files_restored > 0, "{gc:?}");
            assert_eq!(puller.restores[1].files_failed, 1, "{gc:?}");
            assert_eq!(puller.restores[2].files_failed, 1, "{gc:?}");
            assert_eq!(puller.restore_failures(), 2, "{gc:?}");
            // What round 0 pulled still counts.
            assert!(puller.restored_logical_bytes() > 0, "{gc:?}");

            // Counters stayed consistent: the failed restores mutated
            // nothing (u64 counters cannot go negative — what the assert
            // really checks is that no release ran twice), and the
            // surviving users' views still sum to the referenced total.
            let agg = concurrent.aggregate();
            let per_user: u64 =
                (0..4).map(|i| concurrent.store.stats(&spec.user(i)).stored_bytes).sum();
            assert_eq!(agg.referenced_bytes, per_user, "{gc:?}");
            assert!(agg.dedup_ratio().is_finite(), "{gc:?}");
            concurrent.store.collect_garbage();
            let swept = concurrent.store.aggregate();
            assert!(swept.physical_bytes <= agg.physical_bytes, "{gc:?}");
            assert_eq!(swept.referenced_bytes, per_user, "{gc:?}");
        }
    }

    #[test]
    fn repeat_pulls_of_unchanged_content_are_free() {
        // One uploader, one puller, two rounds. Round 0's pull downloads
        // bob's private content; round 1 re-uploads *new* content (rounds
        // differ), so the second pull downloads only the new revision — and
        // every chunk pulled in round 0 stays local.
        let mut spec = small_spec(2).with_batches(2);
        spec.slots[1].pull_from = vec![0];
        let run = fleet(&spec, 1);
        let puller = &run.clients[1];
        assert_eq!(puller.restores.len(), 2);
        let first = &puller.restores[0];
        let second = &puller.restores[1];
        assert!(first.downloaded_payload > 0);
        // The second pull re-reads round 0's files from the local view and
        // downloads only round 1's fresh files.
        assert!(second.dedup_skipped_bytes >= first.logical_bytes);
        assert!(second.downloaded_payload <= first.downloaded_payload + second.logical_bytes);
    }

    #[test]
    fn always_idle_fleets_report_zero_distributions_not_nans() {
        // The 0-active-round edge case: activation 0.0 means every
        // connected round idles. The run completes, pays signalling, and
        // every ratio helper degrades to 0.0 instead of NaN.
        let spec = small_spec(3).with_activation(0.0);
        assert_eq!(spec.total_logical_bytes(), 0);
        for i in 0..3 {
            assert_eq!(spec.sync_rounds_of(i), 0);
            assert_eq!(spec.slots[i].active_rounds(spec.rounds), 2, "still connected");
        }
        let concurrent = fleet(&spec, 4);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        for client in &concurrent.clients {
            assert!(client.outcomes.is_empty());
            assert_eq!(client.idle_rounds, 2);
            assert_eq!(client.completion_secs, 0.0);
            assert_eq!(client.logical_bytes, 0);
            assert!(client.background_wire_bytes > 0, "login + polls must signal");
            assert_eq!(client.payload_wire_bytes, 0);
        }
        assert_eq!(concurrent.completion_stats().count, 0);
        assert_eq!(concurrent.aggregate_goodput_bps(), 0.0);
        assert!(concurrent.aggregate_goodput_bps().is_finite());
        assert_eq!(concurrent.dedup_ratio(), 0.0);
        assert_eq!(concurrent.total_logical_bytes(), 0);
        assert_eq!(concurrent.total_idle_rounds(), 6);
        assert_eq!(concurrent.total_synced_rounds(), 0);
        assert!(concurrent.per_service_completion().is_empty());
        assert_eq!(concurrent.sync_concurrency_peak(), 0);
        assert_eq!(concurrent.first_sync_spread_secs(), 0.0);
        assert_eq!(concurrent.background_fraction(), 1.0);
        assert_eq!(concurrent.aggregate().physical_bytes, 0, "nothing was committed");
    }

    #[test]
    fn active_rounds_and_sync_denominators_handle_edges() {
        let slot = ClientSlot::resident(ServiceProfile::dropbox());
        assert_eq!(slot.active_rounds(0), 0, "zero-round runs have no active rounds");
        let mut late = slot.clone();
        late.join_round = 5;
        assert_eq!(late.active_rounds(3), 0, "a window beyond the run is empty");
        assert_eq!(late.active_rounds(6), 1);

        // Partial activation: the completion denominator is the schedule's
        // sync count, not the membership window.
        let spec = small_spec(4).with_batches(4).with_activation(0.5).with_seed(0xDECAF);
        let schedule = spec.schedule();
        let expected: u64 = (0..4).map(|i| spec.sync_rounds_of(i) as u64).sum();
        assert!(expected > 0, "p=0.5 over 16 draws should activate somewhere");
        assert!(expected < 16, "p=0.5 over 16 draws should idle somewhere (got {expected} syncs)");
        assert_eq!(
            schedule.clients.iter().map(|c| c.sync_rounds()).sum::<usize>() as u64,
            expected
        );
        let per_batch = spec.files_per_batch as u64 * spec.file_size as u64;
        assert_eq!(spec.total_logical_bytes(), expected * per_batch);
        let run = fleet(&spec, 1);
        assert_eq!(run.total_logical_bytes(), spec.total_logical_bytes());
        assert_eq!(
            run.completion_stats().count,
            run.clients.iter().filter(|c| !c.outcomes.is_empty()).count()
        );
    }

    #[test]
    fn jittered_thinking_fleets_stay_bit_exact_under_concurrency() {
        // The tentpole's determinism acceptance: jitter, think time and
        // idle rounds enabled, concurrent still equals sequential exactly —
        // the schedule is data, not thread timing.
        let spec = small_spec(6)
            .with_batches(3)
            .with_think_time(ThinkTime::Exponential { mean: SimDuration::from_secs(7) })
            .with_arrival_jitter(SimDuration::from_secs(25))
            .with_activation(0.75);
        let concurrent = run_fleet(&spec, ObjectStore::new(), 6);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        assert_eq!(concurrent.sync_concurrency_peak(), sequential.sync_concurrency_peak());
        assert!(concurrent.total_synced_rounds() > 0);
    }

    #[test]
    fn think_time_and_jitter_stretch_the_timeline() {
        let base = small_spec(2);
        let slow = small_spec(2)
            .with_think_time(ThinkTime::Fixed(SimDuration::from_secs(30)))
            .with_arrival_jitter(SimDuration::from_secs(10));
        let fast = fleet(&base, 1);
        let delayed = fleet(&slow, 1);
        // Same content, same services: the pauses push sync starts out.
        for (f, d) in fast.clients.iter().zip(&delayed.clients) {
            assert_eq!(f.logical_bytes, d.logical_bytes);
            assert!(
                d.outcomes[0].modification_time > f.outcomes[0].modification_time,
                "think time must delay the first modification"
            );
        }
        // And the spread helper sees jitter pull first syncs apart: the
        // lock-step spread (sub-second seeded network noise only) is dwarfed
        // by a 40-second jitter bound.
        let jittered = fleet(&small_spec(4).with_arrival_jitter(SimDuration::from_secs(40)), 1);
        let lockstep = fleet(&small_spec(4), 1);
        assert!(lockstep.first_sync_spread_secs() < 1.0);
        assert!(
            jittered.first_sync_spread_secs() > lockstep.first_sync_spread_secs() + 1.0,
            "jittered spread {} vs lock-step {}",
            jittered.first_sync_spread_secs(),
            lockstep.first_sync_spread_secs()
        );
    }

    #[test]
    fn idle_rounds_defer_restore_fans_deterministically() {
        // A puller that idles a round defers its pulls along with its sync;
        // everything stays deterministic under churn + idling.
        let mut spec = small_spec(4).with_batches(3).with_activation(0.6).with_seed(0xBEEF);
        spec.slots[3].pull_from = vec![0];
        let concurrent = fleet(&spec, 4);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        let puller = &concurrent.clients[3];
        assert_eq!(
            puller.restores.len(),
            puller.outcomes.len(),
            "one pull per *synced* round, none while idle"
        );
    }

    /// A fleet whose transfers are slow enough (ADSL upstream) that the
    /// seeded outage windows reliably cut them mid-flight.
    fn faulted_spec(retry: RetryConfig) -> FleetSpec {
        let outages = FaultSpec {
            horizon: SimDuration::from_secs(30),
            outages: 4,
            min_outage: SimDuration::from_secs(2),
            max_outage: SimDuration::from_secs(6),
        };
        FleetSpec::new(ServiceProfile::dropbox(), 3)
            .with_files(4, 256 * 1024)
            .with_batches(2)
            .with_seed(0xFA57)
            .with_links(&[AccessLink::adsl()])
            .with_faults(FleetFaults { spec: outages, retry })
    }

    #[test]
    fn fault_injected_fleets_stay_bit_exact_under_concurrency() {
        // The tentpole's determinism acceptance for faults: the outage
        // schedules and retry draws are data derived from the master seed,
        // so a concurrent faulted run replays the sequential one exactly.
        let spec = faulted_spec(RetryConfig::standard_exponential());
        let concurrent = run_fleet(&spec, ObjectStore::new(), 3);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        assert_eq!(fault_stats(&concurrent), fault_stats(&sequential));
        assert!(
            fault_stats(&concurrent).interruptions > 0,
            "the outage windows must actually cut transfers"
        );
    }

    #[test]
    fn zero_retry_budget_commits_strictly_less_and_wastes_bytes() {
        // The acceptance pin: same seed, same outage schedules — a retry
        // budget of zero must report strictly lower committed payload and
        // nonzero wasted bytes versus exponential backoff.
        let zero = fleet(&faulted_spec(RetryConfig::with_budget(0)), 1);
        let backoff = fleet(&faulted_spec(RetryConfig::standard_exponential()), 1);

        assert!(fault_stats(&zero).interruptions > 0);
        assert!(fault_stats(&backoff).interruptions > 0);
        assert!(fault_stats(&zero).wasted_bytes > 0, "abandoned progress is wasted wire");
        assert!(zero.clients.iter().any(|c| c.abandoned_chunks > 0));
        let committed =
            |run: &FleetRun| run.clients.iter().map(|c| c.committed_payload).sum::<u64>();
        assert!(
            committed(&zero) < committed(&backoff),
            "budget 0 committed {} vs exponential {}",
            committed(&zero),
            committed(&backoff)
        );
        assert!(committed(&zero) < zero.total_uploaded_payload());

        // The backoff policy pays time instead of payload: everything
        // planned lands, at the price of retries and virtual backoff waits.
        assert_eq!(committed(&backoff), backoff.total_uploaded_payload());
        assert!(backoff.clients.iter().all(|c| c.abandoned_chunks == 0));
        assert!(fault_stats(&backoff).retries > 0);
        assert!(fault_stats(&backoff).salvaged_bytes > 0);
        assert!(fault_stats(&backoff).backoff_wait > SimDuration::ZERO);
    }

    #[test]
    fn faulted_restore_fans_stay_deterministic_and_validate_checksums() {
        let mut spec = faulted_spec(RetryConfig::standard_exponential());
        spec.slots[2].pull_from = vec![0];
        let concurrent = run_fleet(&spec, ObjectStore::new(), 3);
        let sequential = fleet(&spec, 1);
        assert_eq!(concurrent.clients, sequential.clients);
        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        let stats = fault_stats(&concurrent);
        assert!(stats.checksums_verified > 0, "completed restores must be validated");
        assert_eq!(stats.checksum_failures, 0, "reassembly must be byte-exact");
        assert!(
            concurrent.clients.iter().all(|c| c.abandoned_restores == 0),
            "backoff recovers the pulls"
        );
    }

    #[test]
    fn fault_free_fleets_report_committed_equals_uploaded_and_clean_stats() {
        let run = fleet(&small_spec(3), 1);
        assert!(fault_stats(&run).is_clean());
        assert_eq!(fault_stats(&run).wasted_bytes, 0);
        for client in &run.clients {
            assert_eq!(client.committed_payload, client.uploaded_payload);
            assert_eq!(client.abandoned_chunks, 0);
            assert_eq!(client.fault_stats, FaultStats::default());
        }
    }

    #[test]
    #[should_panic(expected = "activation probability must be within [0, 1]")]
    fn out_of_range_activation_is_rejected() {
        let _ = small_spec(2).with_activation(1.5);
    }

    #[test]
    #[should_panic(expected = "a fleet needs at least one client")]
    fn empty_fleets_are_rejected() {
        let spec = FleetSpec::heterogeneous(Vec::new());
        run_fleet(&spec, ObjectStore::new(), 1);
    }

    #[test]
    #[should_panic(expected = "churn needs at least two rounds")]
    fn churn_requires_multiple_rounds() {
        let _ = small_spec(4).with_batches(1).with_churn(1, 1);
    }
}
