//! The sync client: login, idle polling and batch synchronisation.
//!
//! `SyncClient` executes a service profile against the network simulator:
//! every login exchange, keep-alive poll, metadata commit and chunk upload
//! becomes traffic in the experiment trace, from which the benchmark suite
//! extracts exactly the metrics the paper defines (start-up delay, completion
//! time, overhead, SYN counts, idle volume).

use crate::deployment::Deployment;
use crate::planner::{FilePlan, UploadPlanner};
use crate::profile::{ServiceProfile, TransferMode};
use crate::retry::{Recovery, RetryConfig};
use crate::session::{FaultStats, RangedTransfer, UploadSession};
use cloudsim_net::http::{HttpExchange, HttpOverhead};
use cloudsim_net::tcp::{ConnectionOptions, Fetch, TcpConnection};
use cloudsim_net::{AccessLink, FaultSchedule, Simulator, TransferInterrupted};
use cloudsim_storage::{ObjectStore, SizeMemo, UploadPipeline};
use cloudsim_trace::{Direction, FlowKind, LatencyHistogram, SimDuration, SimTime};
use cloudsim_workload::GeneratedFile;
use std::sync::Arc;

/// Seed salt for upload-retry jitter draws (per chunk, per attempt).
const UPLOAD_RETRY_SALT: u64 = 0xB0FF_0001;
/// Seed salt for restore-retry jitter draws (per file, per attempt).
const RESTORE_RETRY_SALT: u64 = 0xB0FF_0002;

/// The outcome of one restore operation (a batch of paths pulled from one
/// owner's namespace — the download mirror of [`SyncOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOutcome {
    /// When the client asked the control plane for the manifests.
    pub requested_at: SimTime,
    /// When the first storage payload byte arrived, if anything travelled
    /// (`None` when every chunk was already local, or nothing restored).
    pub first_byte_at: Option<SimTime>,
    /// When the restore finished (manifest fetch included).
    pub completed_at: SimTime,
    /// Files reconstructed byte-identically.
    pub files_restored: usize,
    /// Files that failed with a typed restore error (e.g. the owner
    /// hard-deleted the manifest mid-run) — failures are outcomes, never
    /// panics. Pulling a user with no live files counts as one failure.
    pub files_failed: usize,
    /// Plaintext bytes of the restored files.
    pub logical_bytes: u64,
    /// Payload bytes that actually travelled downstream.
    pub downloaded_payload: u64,
    /// Plaintext bytes the local-copy dedup check kept off the wire.
    pub dedup_skipped_bytes: u64,
}

impl RestoreOutcome {
    /// Simulated seconds the restore took end to end.
    pub(crate) fn duration_secs(&self) -> f64 {
        (self.completed_at - self.requested_at).as_secs_f64()
    }

    /// Simulated seconds from the request to the first payload byte, if any
    /// payload travelled.
    pub(crate) fn ttfb_secs(&self) -> Option<f64> {
        self.first_byte_at.map(|t| (t - self.requested_at).as_secs_f64())
    }
}

/// The outcome of one batch synchronisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncOutcome {
    /// When the testing application finished modifying the files.
    pub modification_time: SimTime,
    /// When the client began talking to the storage servers.
    pub sync_started_at: SimTime,
    /// When the last storage payload left the client (upload complete).
    pub completed_at: SimTime,
    /// Number of files synchronised.
    pub files: usize,
    /// Sum of the plaintext file sizes.
    pub logical_bytes: u64,
    /// Payload bytes the planner decided to upload.
    pub uploaded_payload: u64,
}

/// The outcome of one fault-injected batch synchronisation: the plain
/// [`SyncOutcome`] plus what recovery cost and how much payload became
/// durable. `outcome.completed_at` is when the *session* finished — whether
/// by committing every chunk or by exhausting retry budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedSyncOutcome {
    /// The plain sync accounting (timing, planned payload).
    pub outcome: SyncOutcome,
    /// Payload bytes durably committed (whole chunks the server acked).
    pub committed_payload: u64,
    /// Chunks abandoned after the retry budget ran out.
    pub abandoned_chunks: usize,
    /// True when every planned chunk committed.
    pub completed: bool,
    /// Interruption / retry / wasted-byte accounting for the batch.
    pub stats: FaultStats,
    /// Distribution of the seeded backoff waits the batch actually slept.
    pub backoff_waits: LatencyHistogram,
}

/// The outcome of one fault-injected restore: the plain [`RestoreOutcome`]
/// plus recovery accounting. A file only counts as restored once its ranged
/// download completed *and* the reassembled content passed SHA-256
/// validation; abandoned files count as failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRestoreOutcome {
    /// The plain restore accounting (timing, payload, failures).
    pub outcome: RestoreOutcome,
    /// Files abandoned mid-download after the retry budget ran out.
    pub files_abandoned: usize,
    /// True when nothing was abandoned and every checksum verified.
    pub completed: bool,
    /// Interruption / retry / wasted-byte accounting for the restore.
    pub stats: FaultStats,
    /// Distribution of the seeded backoff waits the restore actually slept.
    pub backoff_waits: LatencyHistogram,
}

/// A sync client bound to one service profile and one deployment.
#[derive(Debug)]
pub struct SyncClient {
    profile: ServiceProfile,
    deployment: Deployment,
    planner: UploadPlanner,
    control_conn: Option<TcpConnection>,
    notify_conn: Option<TcpConnection>,
    storage_conn: Option<TcpConnection>,
    logged_in: bool,
    last_activity: SimTime,
}

impl SyncClient {
    /// Creates a client for a profile, building its deployment.
    pub fn new(profile: ServiceProfile) -> SyncClient {
        let deployment = Deployment::new(&profile);
        SyncClient::with_deployment(UploadPlanner::new(profile.clone()), deployment, profile)
    }

    /// [`SyncClient::new`], for `perf/`; the pipeline is ignored.
    #[doc(hidden)]
    pub fn with_pipeline(profile: ServiceProfile, _: UploadPipeline) -> SyncClient {
        SyncClient::new(profile)
    }

    /// [`SyncClient::for_user_on_link`] on the campus link, for `perf/`;
    /// the pipeline is ignored.
    #[doc(hidden)]
    pub fn for_user(
        profile: ServiceProfile,
        _: UploadPipeline,
        store: ObjectStore,
        user: &str,
    ) -> SyncClient {
        SyncClient::for_user_on_link(profile, store, user, &AccessLink::campus())
    }

    /// Creates a client for a named user account committing into a shared
    /// object store — the fleet constructor — behind a specific access
    /// link. Each client still owns its deployment, connections and delta
    /// state, and asks the shared store which chunks its own account holds.
    /// The deployment's paths are composed with the link, so an ADSL user
    /// and a fibre user of the same service live in different network
    /// worlds.
    pub fn for_user_on_link(
        profile: ServiceProfile,
        store: ObjectStore,
        user: &str,
        link: &AccessLink,
    ) -> SyncClient {
        SyncClient::with_deployment(
            UploadPlanner::for_account(profile.clone(), store, user),
            Deployment::with_link(&profile, link),
            profile,
        )
    }

    /// This client, pricing its LZSS size counts through `sizes`, the memo
    /// of the run it belongs to (see `UploadPlanner::with_size_memo`).
    pub fn with_size_memo(mut self, sizes: Arc<SizeMemo>) -> SyncClient {
        self.planner = self.planner.with_size_memo(sizes);
        self
    }

    fn with_deployment(
        planner: UploadPlanner,
        deployment: Deployment,
        profile: ServiceProfile,
    ) -> SyncClient {
        SyncClient {
            planner,
            profile,
            deployment,
            control_conn: None,
            notify_conn: None,
            storage_conn: None,
            logged_in: false,
            last_activity: SimTime::ZERO,
        }
    }

    /// Performs the application start-up: authenticates against every control
    /// server and checks whether any content needs updating (§3.1, Fig. 1).
    /// Returns the time login completed.
    pub fn login(&mut self, sim: &mut Simulator, start: SimTime) -> SimTime {
        let servers = self.deployment.control_hosts.clone();
        let per_server = self.profile.login_bytes / servers.len().max(1) as u64;
        let mut t = start;
        for (i, host) in servers.iter().enumerate() {
            let mut conn = TcpConnection::open(
                sim,
                &self.deployment.network,
                *host,
                ConnectionOptions::https(FlowKind::Control),
                t,
            );
            // Roughly one third of the login volume goes up (credentials,
            // state queries), two thirds come down (account state, metadata).
            let exchange =
                HttpExchange::new(per_server / 3, per_server * 2 / 3, self.profile.server_think)
                    .with_overhead(self.profile.http_overhead);
            let established = conn.established_at();
            let done = exchange.execute(&mut conn, sim, &self.deployment.network, established);
            // Stagger server contacts slightly, as observed in real login
            // sequences; keep the first connection as the long-lived control
            // channel.
            if i == 0 {
                self.control_conn = Some(conn);
            } else {
                // Secondary login servers are contacted and released.
            }
            t = done + SimDuration::from_millis(20);
        }

        // Open the notification channel (plain HTTP for Dropbox).
        let notify_opts = if self.profile.notification_plain_http {
            ConnectionOptions::http(FlowKind::Notification)
        } else {
            ConnectionOptions::https(FlowKind::Notification)
        };
        let notify = TcpConnection::open(
            sim,
            &self.deployment.network,
            self.deployment.notification_host,
            notify_opts,
            t,
        );
        t = notify.established_at();
        self.notify_conn = Some(notify);
        self.logged_in = true;
        self.last_activity = t;
        t
    }

    /// Keeps the client idle until `until`, generating the periodic keep-alive
    /// traffic of §3.1 / Fig. 1. Returns the time of the last poll.
    pub fn idle_until(&mut self, sim: &mut Simulator, until: SimTime) -> SimTime {
        assert!(self.logged_in, "idle_until requires a prior login");
        let mut t = self.last_activity;
        loop {
            let next = t + self.profile.polling_interval;
            if next > until {
                break;
            }
            t = self.poll_once(sim, next);
        }
        self.last_activity = t;
        t
    }

    /// One keep-alive poll at time `at`.
    fn poll_once(&mut self, sim: &mut Simulator, at: SimTime) -> SimTime {
        let request = self.profile.polling_bytes / 2;
        let response = self.profile.polling_bytes - request;
        if self.profile.polling_new_connection {
            // Cloud Drive: a fresh HTTPS connection per poll, torn down after.
            let mut conn = TcpConnection::open(
                sim,
                &self.deployment.network,
                self.deployment.primary_control(),
                ConnectionOptions::https(FlowKind::Notification),
                at,
            );
            let established = conn.established_at();
            let done = HttpExchange::new(request, response, SimDuration::from_millis(20))
                .with_overhead(HttpOverhead::LEAN)
                .execute(&mut conn, sim, &self.deployment.network, established);
            conn.close(sim, &self.deployment.network, done)
        } else {
            let conn = self.notify_conn.as_mut().expect("notification channel missing");
            conn.request(
                sim,
                &self.deployment.network,
                at,
                request,
                response,
                SimDuration::from_millis(15),
            )
        }
    }

    /// Synchronises a batch of files that were written to the local folder at
    /// `modification_time`.
    pub fn sync_batch(
        &mut self,
        sim: &mut Simulator,
        files: &[GeneratedFile],
        modification_time: SimTime,
    ) -> SyncOutcome {
        self.sync(sim, files, modification_time, None).outcome
    }

    /// Synchronises a batch under a seeded outage schedule with a resumable
    /// upload session: every chunk is driven through
    /// [`TcpConnection::send_faulted`], and when a cut kills the transfer the
    /// session persists the last committed offset so the retry — granted by
    /// `policy`, after a backoff that spends *virtual-clock* time — re-drives
    /// only the uncommitted tail over a freshly dialled connection. When the
    /// budget runs out the chunk is abandoned and the batch moves on.
    /// `seed` feeds the per-(chunk, attempt) jitter draws; same seed, same
    /// schedule, same virtual timeline.
    ///
    /// This is [`SyncClient::sync_batch`] in every step but one. Login,
    /// change detection, planning, the announcing and the final control
    /// exchange are the same code (the control plane stays fault-free:
    /// metadata exchanges are tiny and real clients retry them invisibly —
    /// only storage transfers feel the outages). The single fork is the
    /// storage-transfer step: `sync_batch` moves the planned chunks the way
    /// the profile's `TransferMode` prescribes (bundles, per-chunk
    /// requests, a connection per file), while a session resumes at chunk
    /// granularity and so drives bare chunks one at a time whatever the
    /// mode. Teaching the session the transfer modes would move every
    /// `faults.*` value, so until that lands the fault-free control for
    /// inflation comparisons is this method with [`FaultSchedule::NONE`] —
    /// it differs from `sync_batch` in the storage-transfer window only.
    pub fn sync_batch_faulted(
        &mut self,
        sim: &mut Simulator,
        files: &[GeneratedFile],
        modification_time: SimTime,
        faults: &FaultSchedule,
        policy: &RetryConfig,
        seed: u64,
    ) -> FaultedSyncOutcome {
        self.sync(sim, files, modification_time, Some(&Recovery { faults, policy: *policy, seed }))
    }

    /// The one sync skeleton: login, change detection, planning, the
    /// announcing control exchange, the storage transfer, the final commit.
    /// Without a `recovery` context the transfer step is the profile's
    /// transfer mode and everything planned is durable; with one it is the
    /// resumable session (see [`SyncClient::sync_batch_faulted`]).
    pub(crate) fn sync(
        &mut self,
        sim: &mut Simulator,
        files: &[GeneratedFile],
        modification_time: SimTime,
        recovery: Option<&Recovery>,
    ) -> FaultedSyncOutcome {
        assert!(!files.is_empty(), "sync_batch needs at least one file");
        self.ensure_login(sim, modification_time);

        // Change detection / batching delay (§5.1).
        let detection = self.profile.startup_delay
            + self.profile.startup_delay_per_file.saturating_mul(files.len() as u64);
        let sync_start = modification_time + detection;

        // Plan every file (capabilities applied here). The batch goes through
        // the upload pipeline as one unit, so the pure per-chunk work fans
        // out across worker threads while the plans stay byte-identical to
        // sequential per-file planning.
        let batch: Vec<(&str, &[u8])> =
            files.iter().map(|f| (f.path.as_str(), f.content.as_slice())).collect();
        let plans: Vec<FilePlan> = self.planner.plan_batch(&batch);
        let uploaded_payload: u64 = plans.iter().map(|p| p.upload_bytes()).sum();
        let logical_bytes: u64 = plans.iter().map(|p| p.logical_bytes).sum();
        let metadata_total: u64 = plans.iter().map(|p| p.metadata_bytes).sum();

        // Initial metadata exchange with the control plane announcing the batch.
        let control_done = {
            let network = self.deployment.network.clone();
            let conn = self.ensure_control(sim, sync_start);
            HttpExchange::new(metadata_total.clamp(600, 64_000), 800, SimDuration::from_millis(30))
                .execute(conn, sim, &network, sync_start)
        };

        // Storage transfer, the one step the two entry points fork on: the
        // resumable session under a recovery context, the service's
        // transfer mode without one (then everything planned is durable).
        let transfer_start = control_done.max(sync_start);
        let mut out = FaultedSyncOutcome {
            outcome: SyncOutcome {
                modification_time,
                sync_started_at: sync_start,
                completed_at: transfer_start,
                files: files.len(),
                logical_bytes,
                uploaded_payload,
            },
            committed_payload: uploaded_payload,
            abandoned_chunks: 0,
            completed: true,
            stats: FaultStats::default(),
            backoff_waits: LatencyHistogram::new(),
        };
        out.outcome.completed_at = match (recovery, self.profile.transfer_mode) {
            (Some(rec), _) => self.transfer_resumable(sim, &plans, transfer_start, rec, &mut out),
            (None, TransferMode::Bundled) => self.transfer_bundled(sim, &plans, transfer_start),
            (None, TransferMode::SequentialWithAcks) => {
                self.transfer_sequential(sim, &plans, transfer_start)
            }
            (None, TransferMode::ConnectionPerFile { control_connections_per_file }) => self
                .transfer_connection_per_file(
                    sim,
                    &plans,
                    transfer_start,
                    control_connections_per_file,
                ),
        };

        // Final commit on the control channel.
        let completed = out.outcome.completed_at;
        let final_commit = {
            let network = self.deployment.network.clone();
            let conn = self.ensure_control(sim, completed);
            HttpExchange::new(900, 500, SimDuration::from_millis(30))
                .execute(conn, sim, &network, completed)
        };
        self.last_activity = final_commit;
        out
    }

    /// The transfer step under outages: a resumable session drives the
    /// planned chunks one at a time, each until it commits or its retry
    /// budget runs out (then it is abandoned and the batch moves on), and
    /// records in `out` what became durable and what recovery cost.
    fn transfer_resumable(
        &mut self,
        sim: &mut Simulator,
        plans: &[FilePlan],
        start: SimTime,
        rec: &Recovery,
        out: &mut FaultedSyncOutcome,
    ) -> SimTime {
        let mut session = UploadSession::new(
            plans.iter().flat_map(|p| p.chunks.iter().map(|c| c.upload_bytes)).collect(),
        );
        let mut t = start;
        while let Some((idx, _)) = session.remaining() {
            let chunk = (Direction::Upload, idx as u64);
            t = self.drive(sim, rec, &mut out.backoff_waits, session.stream_mut(), chunk, t).0;
            session.advance();
        }
        out.committed_payload = session.committed_payload();
        out.abandoned_chunks = session.abandoned_chunks();
        out.completed = session.is_complete();
        out.stats = session.stats();
        t
    }

    /// Dropbox-style bundling: one reused storage connection, small files
    /// coalesced into multi-megabyte bundles, chunks of large files pipelined.
    fn transfer_bundled(
        &mut self,
        sim: &mut Simulator,
        plans: &[FilePlan],
        start: SimTime,
    ) -> SimTime {
        const BUNDLE_LIMIT: u64 = 4 * 1024 * 1024;
        let network = self.deployment.network.clone();
        let think = self.profile.server_think;
        let per_file = self.profile.per_file_overhead;
        let http = self.profile.http_overhead;
        let mut t = start;
        let mut pending_bundle = 0u64;

        // Collect the work items first so connection handling stays simple.
        let mut items: Vec<u64> = Vec::new();
        for plan in plans {
            t += per_file;
            for chunk in &plan.chunks {
                if chunk.upload_bytes == 0 {
                    continue;
                }
                items.push(chunk.upload_bytes);
            }
        }
        let conn = self.ensure_storage(sim, start);
        let mut last = start;
        for bytes in items {
            if bytes >= BUNDLE_LIMIT {
                // Large chunk: flush any pending bundle, then its own request.
                if pending_bundle > 0 {
                    last = HttpExchange::new(pending_bundle, 400, think)
                        .with_overhead(http)
                        .execute(conn, sim, &network, t.max(last));
                    pending_bundle = 0;
                }
                last = HttpExchange::new(bytes, 400, think).with_overhead(http).execute(
                    conn,
                    sim,
                    &network,
                    t.max(last),
                );
            } else {
                pending_bundle += bytes;
                if pending_bundle >= BUNDLE_LIMIT {
                    last = HttpExchange::new(pending_bundle, 400, think)
                        .with_overhead(http)
                        .execute(conn, sim, &network, t.max(last));
                    pending_bundle = 0;
                }
            }
        }
        if pending_bundle > 0 {
            last = HttpExchange::new(pending_bundle, 400, think).with_overhead(http).execute(
                conn,
                sim,
                &network,
                t.max(last),
            );
        }
        // The per-file client processing cannot finish after the network work
        // it feeds; completion is whichever is later.
        last.max(t)
    }

    /// SkyDrive / Wuala: one reused storage connection, one request per chunk,
    /// waiting for the application-layer acknowledgement before the next file.
    fn transfer_sequential(
        &mut self,
        sim: &mut Simulator,
        plans: &[FilePlan],
        start: SimTime,
    ) -> SimTime {
        let network = self.deployment.network.clone();
        let think = self.profile.server_think;
        let per_file = self.profile.per_file_overhead;
        let http = self.profile.http_overhead;
        let conn = self.ensure_storage(sim, start);
        let mut t = start;
        for plan in plans {
            t += per_file;
            for chunk in &plan.chunks {
                if chunk.upload_bytes == 0 {
                    continue;
                }
                t = HttpExchange::new(chunk.upload_bytes, 350, think)
                    .with_overhead(http)
                    .execute(conn, sim, &network, t);
            }
        }
        t
    }

    /// Google Drive / Cloud Drive: a fresh TCP+TLS storage connection per
    /// file, plus `extra_control` new control connections per file operation.
    fn transfer_connection_per_file(
        &mut self,
        sim: &mut Simulator,
        plans: &[FilePlan],
        start: SimTime,
        extra_control: u32,
    ) -> SimTime {
        let network = self.deployment.network.clone();
        let think = self.profile.server_think;
        let per_file = self.profile.per_file_overhead;
        let http = self.profile.http_overhead;
        let control_host = self.deployment.primary_control();
        let storage_host = self.deployment.storage_host;
        let mut t = start;
        for plan in plans {
            t += per_file;
            // Control connections opened for this file operation (Cloud Drive
            // opens three, §4.2), each a short-lived HTTPS exchange.
            let mut control_done = t;
            for _ in 0..extra_control {
                let mut conn = TcpConnection::open(
                    sim,
                    &network,
                    control_host,
                    ConnectionOptions::https(FlowKind::Control),
                    t,
                );
                let established = conn.established_at();
                control_done = HttpExchange::new(700, 500, SimDuration::from_millis(25)).execute(
                    &mut conn,
                    sim,
                    &network,
                    established,
                );
                conn.close(sim, &network, control_done);
            }
            let mut file_done = control_done.max(t);
            if plan.upload_bytes() == 0 {
                t = file_done;
                continue;
            }
            let mut conn = TcpConnection::open(
                sim,
                &network,
                storage_host,
                ConnectionOptions::https(FlowKind::Storage),
                file_done,
            );
            for chunk in &plan.chunks {
                if chunk.upload_bytes == 0 {
                    continue;
                }
                let request_start = file_done.max(conn.established_at());
                file_done = HttpExchange::new(chunk.upload_bytes, 350, think)
                    .with_overhead(http)
                    .execute(&mut conn, sim, &network, request_start);
            }
            conn.close(sim, &network, file_done);
            t = file_done;
        }
        t
    }

    /// Restores every live file of `owner`'s namespace — the fleet's
    /// "pull another user's content" operation (and, with `owner` = own
    /// account, the §4.3 delete/restore test at full fidelity). An owner
    /// with no live files (departed, purged) yields a clean one-failure
    /// outcome.
    pub fn restore_user(
        &mut self,
        sim: &mut Simulator,
        owner: &str,
        at: SimTime,
    ) -> RestoreOutcome {
        self.restore_user_faulted(sim, owner, at, &Recovery::NONE).outcome
    }

    /// [`SyncClient::restore_user`] under a seeded outage schedule — lists
    /// the owner's live files and drives a fault-injected, resumable restore.
    pub fn restore_user_faulted(
        &mut self,
        sim: &mut Simulator,
        owner: &str,
        at: SimTime,
        rec: &Recovery,
    ) -> FaultedRestoreOutcome {
        let paths = self.planner.store().list_files(owner);
        self.restore_batch_faulted(sim, owner, &paths, at, rec)
    }

    /// The one restore body: restores `owner`'s files under `rec`'s outage
    /// schedule with ranged, resumable downloads. One GET per file that
    /// has bytes to move goes through [`TcpConnection::fetch_faulted`] on
    /// the reused storage connection, filling the downstream pipe; a cut
    /// leaves the received prefix verified, and the retry issues a fresh
    /// range request for only the remaining bytes. On completion the
    /// reassembled content is verified against the manifest's chunk hashes
    /// in one SHA-256 pass along the recorded resume boundaries
    /// ([`RangedTransfer::verify`]). The control plane stays fault-free (see
    /// [`SyncClient::sync_batch_faulted`]); `first_byte_at` is recorded from
    /// completed ranges only.
    pub(crate) fn restore_batch_faulted(
        &mut self,
        sim: &mut Simulator,
        owner: &str,
        paths: &[String],
        at: SimTime,
        rec: &Recovery,
    ) -> FaultedRestoreOutcome {
        self.ensure_login(sim, at);
        let plans = self.planner.plan_restore_paths(owner, paths);

        let mut files_failed = 0usize;
        let mut metadata_down = 0u64;
        let mut work: Vec<&cloudsim_storage::RestoredFile> = Vec::new();
        for plan in &plans {
            match plan {
                Ok(file) => {
                    metadata_down += file.metadata_bytes;
                    work.push(file);
                }
                Err(_) => {
                    files_failed += 1;
                    metadata_down += 200; // the error reply
                }
            }
        }
        // An empty pull (the owner left and took the namespace with it) is
        // still an answered question: one failure, one control round-trip.
        if plans.is_empty() {
            files_failed = 1;
            metadata_down = 200;
        }

        // Control plane: request the manifest set, download the chunk lists.
        let control_done = {
            let network = self.deployment.network.clone();
            let conn = self.ensure_control(sim, at);
            HttpExchange::new(600, metadata_down.clamp(300, 64_000), SimDuration::from_millis(30))
                .execute(conn, sim, &network, at)
        };

        let mut first_byte_at: Option<SimTime> = None;
        let mut t = control_done;
        let mut files_restored = 0usize;
        let mut files_abandoned = 0usize;
        let mut logical_bytes = 0u64;
        let mut downloaded_payload = 0u64;
        let mut dedup_skipped_bytes = 0u64;
        let mut stats = FaultStats::default();
        let mut backoff_waits = LatencyHistogram::new();
        for (fi, file) in work.iter().enumerate() {
            let bytes = file.download_bytes();
            let mut ranged = RangedTransfer::new(bytes);
            let get = (Direction::Download, fi as u64);
            let (done, first_byte) = self.drive(sim, rec, &mut backoff_waits, &mut ranged, get, t);
            t = done;
            first_byte_at = first_byte_at.or(first_byte);
            if ranged.is_complete() {
                // End-to-end check of the reassembled content against
                // the manifest's chunk hashes.
                if ranged.verify(&file.content, &file.chunks) {
                    files_restored += 1;
                } else {
                    files_failed += 1;
                }
                logical_bytes += file.logical_bytes();
                dedup_skipped_bytes += file.dedup_skipped_bytes();
                downloaded_payload += bytes;
            } else {
                files_abandoned += 1;
                files_failed += 1;
                downloaded_payload += ranged.verified();
            }
            stats.merge(&ranged.stats());
        }
        self.last_activity = t;

        let completed = files_abandoned == 0 && stats.checksum_failures == 0;
        FaultedRestoreOutcome {
            outcome: RestoreOutcome {
                requested_at: at,
                first_byte_at,
                completed_at: t,
                files_restored,
                files_failed,
                logical_bytes,
                downloaded_payload,
                dedup_skipped_bytes,
            },
            files_abandoned,
            completed,
            stats,
            backoff_waits,
        }
    }

    /// The one retry loop: drives `stream`'s uncommitted tail over the
    /// storage connection — the upload of chunk `unit`, or a ranged GET of
    /// file `unit` — until it completes or `rec`'s policy gives up, and
    /// finishes the stream accordingly. Every cut persists the durable
    /// offset, so a granted retry re-drives only the tail, after a backoff
    /// that burns virtual-clock time like think time does (retries
    /// interleave with the fleet's temporal schedule). Returns the clock
    /// afterwards and, for a GET that completed, when the first byte of its
    /// final range arrived.
    fn drive(
        &mut self,
        sim: &mut Simulator,
        rec: &Recovery,
        waits: &mut LatencyHistogram,
        stream: &mut RangedTransfer,
        (direction, unit): (Direction, u64),
        mut t: SimTime,
    ) -> (SimTime, Option<SimTime>) {
        let server_think = self.profile.server_think;
        let mut attempt = 0u32;
        while !stream.is_complete() {
            let tail = stream.remaining();
            let attempted = self.storage_under(sim, t, rec.faults).and_then(|mut conn| {
                let network = &self.deployment.network;
                let result = match direction {
                    Direction::Upload => conn
                        .send_faulted(sim, network, t, tail, rec.faults)
                        .map(|done| (done, None)),
                    Direction::Download => {
                        let get = Fetch { request_bytes: 250, download_bytes: tail, server_think };
                        conn.fetch_faulted(sim, network, t, get, rec.faults)
                            .map(|got| (got.completed_at, Some(got.first_byte_at)))
                    }
                };
                self.storage_conn = Some(conn);
                result
            });
            match attempted {
                Ok((done, first_byte)) => {
                    stream.complete();
                    return (done, first_byte);
                }
                Err(int) => {
                    stream.interrupted(&int);
                    attempt += 1;
                    t = int.interrupted_at;
                    let salt = match direction {
                        Direction::Upload => UPLOAD_RETRY_SALT,
                        Direction::Download => RESTORE_RETRY_SALT,
                    };
                    let Some(wait) = rec.backoff(salt, unit, attempt) else {
                        stream.abandon();
                        break;
                    };
                    stream.retried(wait);
                    waits.record(wait);
                    t += wait;
                }
            }
        }
        (t, None)
    }

    /// The storage-connection prelude of every attempt under outages: with
    /// the link down at `t` the attempt fails on the spot at zero wire cost
    /// (the client never reaches the handshake); otherwise the storage
    /// connection is handed out for the attempt — a fresh one if none is
    /// open or an earlier cut killed the socket.
    fn storage_under(
        &mut self,
        sim: &mut Simulator,
        t: SimTime,
        faults: &FaultSchedule,
    ) -> Result<TcpConnection, TransferInterrupted> {
        if faults.is_down(t) {
            return Err(TransferInterrupted { bytes_acked: 0, bytes_sent: 0, interrupted_at: t });
        }
        if self.storage_conn.as_ref().is_some_and(|c| c.is_closed()) {
            self.storage_conn = None;
        }
        self.ensure_storage(sim, t);
        Ok(self.storage_conn.take().expect("ensure_storage leaves a connection"))
    }

    /// Deletes a file from the synced folder and propagates the deletion as a
    /// metadata-only operation.
    pub fn delete_file(&mut self, sim: &mut Simulator, path: &str, at: SimTime) -> SimTime {
        self.planner.plan_delete(path);
        let network = self.deployment.network.clone();
        let conn = self.ensure_control(sim, at);
        HttpExchange::new(600, 300, SimDuration::from_millis(25)).execute(conn, sim, &network, at)
    }

    /// Leaves the service for good: hard-deletes every manifest of the
    /// account (releasing the user's chunk references server-side, unlike the
    /// retention-friendly [`SyncClient::delete_file`]) and tears the control
    /// channel down. Returns the time the departure completed and the number
    /// of manifests deleted. The churn harness calls this for leaving
    /// clients; freeing the released bytes is the store's GC policy's job.
    pub(crate) fn leave_service(&mut self, sim: &mut Simulator, at: SimTime) -> (SimTime, usize) {
        let deleted = self.planner.purge_account();
        // One control exchange announces the account teardown; its size
        // scales with the manifest count like a batched delete would.
        let request = 500 + 120 * deleted as u64;
        let network = self.deployment.network.clone();
        let done = {
            let conn = self.ensure_control(sim, at);
            HttpExchange::new(request.min(64_000), 400, SimDuration::from_millis(40))
                .execute(conn, sim, &network, at)
        };
        let closed = match self.control_conn.take() {
            Some(mut conn) => conn.close(sim, &network, done),
            None => done,
        };
        if let Some(mut conn) = self.notify_conn.take() {
            conn.close(sim, &network, closed);
        }
        if let Some(mut conn) = self.storage_conn.take() {
            conn.close(sim, &network, closed);
        }
        self.logged_in = false;
        self.last_activity = closed;
        (closed, deleted)
    }

    /// Logs in a minute ahead of an operation at `at` if the client never
    /// did: the implicit login has finished by the time the operation starts.
    fn ensure_login(&mut self, sim: &mut Simulator, at: SimTime) {
        if !self.logged_in {
            let done = self.login(sim, at - SimDuration::from_secs(60));
            debug_assert!(done <= at, "the implicit login must finish before the operation");
        }
    }

    fn ensure_control(&mut self, sim: &mut Simulator, at: SimTime) -> &mut TcpConnection {
        if self.control_conn.is_none() {
            let conn = TcpConnection::open(
                sim,
                &self.deployment.network,
                self.deployment.primary_control(),
                ConnectionOptions::https(FlowKind::Control),
                at,
            );
            self.control_conn = Some(conn);
        }
        self.control_conn.as_mut().unwrap()
    }

    fn ensure_storage(&mut self, sim: &mut Simulator, at: SimTime) -> &mut TcpConnection {
        if self.storage_conn.is_none() {
            let conn = TcpConnection::open(
                sim,
                &self.deployment.network,
                self.deployment.storage_host,
                ConnectionOptions::https(FlowKind::Storage),
                at,
            );
            self.storage_conn = Some(conn);
        }
        self.storage_conn.as_mut().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_trace::analysis;
    use cloudsim_workload::{BatchSpec, FileKind};

    fn batch(count: usize, size: usize) -> Vec<GeneratedFile> {
        BatchSpec::new(count, size, FileKind::RandomBinary).generate(77)
    }

    fn run_sync(
        profile: ServiceProfile,
        files: &[GeneratedFile],
    ) -> (SyncOutcome, Vec<cloudsim_trace::PacketRecord>) {
        let mut sim = Simulator::new(42);
        let mut client = SyncClient::new(profile);
        let login_done = client.login(&mut sim, SimTime::ZERO);
        let outcome = client.sync_batch(&mut sim, files, login_done + SimDuration::from_secs(5));
        (outcome, sim.packets())
    }

    #[test]
    fn login_generates_control_traffic_proportional_to_the_profile() {
        let mut sim = Simulator::new(1);
        let mut client = SyncClient::new(ServiceProfile::skydrive());
        client.login(&mut sim, SimTime::ZERO);
        let sky_bytes = sim.trace().wire_bytes(FlowKind::Control);

        let mut sim2 = Simulator::new(1);
        let mut client2 = SyncClient::new(ServiceProfile::dropbox());
        client2.login(&mut sim2, SimTime::ZERO);
        let dropbox_bytes = sim2.trace().wire_bytes(FlowKind::Control);

        assert!(sky_bytes > 120_000, "SkyDrive login bytes {sky_bytes}");
        assert!(
            sky_bytes as f64 > 2.5 * dropbox_bytes as f64,
            "SkyDrive ({sky_bytes}) should be several times Dropbox ({dropbox_bytes})"
        );
    }

    #[test]
    fn idle_polling_volume_ranks_cloud_drive_worst() {
        let horizon = SimTime::from_secs(16 * 60);
        let mut volumes = std::collections::HashMap::new();
        for profile in ServiceProfile::all() {
            let name = profile.name();
            let mut sim = Simulator::new(7);
            let mut client = SyncClient::new(profile);
            let login_done = client.login(&mut sim, SimTime::ZERO);
            client.idle_until(&mut sim, horizon);
            // Only count traffic after login completed.
            let idle_bytes: u64 = sim
                .packets()
                .iter()
                .filter(|p| p.timestamp > login_done)
                .map(|p| p.wire_len())
                .sum();
            volumes.insert(name, idle_bytes);
        }
        let cloud = volumes["Cloud Drive"];
        for (name, bytes) in &volumes {
            if *name != "Cloud Drive" {
                assert!(cloud > 5 * bytes, "Cloud Drive ({cloud}) should dwarf {name} ({bytes})");
            }
        }
        // Wuala polls every 5 minutes: the quietest client.
        assert!(volumes["Wuala"] <= *volumes.values().min().unwrap() * 2);
    }

    #[test]
    fn single_file_completion_is_rtt_dominated() {
        let files = batch(1, 1_000_000);
        let (g_out, _) = run_sync(ServiceProfile::google_drive(), &files);
        let (s_out, _) = run_sync(ServiceProfile::skydrive(), &files);
        let g_time = (g_out.completed_at - g_out.sync_started_at).as_secs_f64();
        let s_time = (s_out.completed_at - s_out.sync_started_at).as_secs_f64();
        assert!(g_time < 1.5, "Google Drive 1 MB took {g_time}s");
        assert!(
            s_time > 2.0 * g_time,
            "SkyDrive ({s_time}s) should be much slower than Google Drive ({g_time}s)"
        );
    }

    #[test]
    fn many_small_files_reward_bundling() {
        let files = batch(50, 10_000);
        let (dropbox, dropbox_trace) = run_sync(ServiceProfile::dropbox(), &files);
        let (gdrive, gdrive_trace) = run_sync(ServiceProfile::google_drive(), &files);
        let (clouddrive, clouddrive_trace) = run_sync(ServiceProfile::cloud_drive(), &files);

        let d = (dropbox.completed_at - dropbox.sync_started_at).as_secs_f64();
        let g = (gdrive.completed_at - gdrive.sync_started_at).as_secs_f64();
        let c = (clouddrive.completed_at - clouddrive.sync_started_at).as_secs_f64();
        assert!(d < g, "Dropbox ({d}s) must beat Google Drive ({g}s)");
        assert!(g < c, "Google Drive ({g}s) must beat Cloud Drive ({c}s)");
        assert!(g > 2.0 * d, "bundling advantage should be large: {d} vs {g}");

        // Connection counts tell the §4.2 story: Dropbox reuses, Google Drive
        // opens one per file, Cloud Drive opens four per file.
        let d_syn = analysis::syn_count_by_kind(&dropbox_trace, FlowKind::Storage);
        let g_syn = analysis::syn_count_by_kind(&gdrive_trace, FlowKind::Storage);
        let c_syn_total = clouddrive_trace.iter().filter(|p| p.is_syn()).count();
        assert!(d_syn <= 2, "Dropbox opened {d_syn} storage connections");
        assert_eq!(g_syn, 50);
        assert!(c_syn_total >= 200, "Cloud Drive opened only {c_syn_total} connections");
    }

    #[test]
    fn startup_delay_ranking_matches_fig6a() {
        let files = batch(100, 10_000);
        let (dropbox, _) = run_sync(ServiceProfile::dropbox(), &files);
        let (skydrive, _) = run_sync(ServiceProfile::skydrive(), &files);
        let d = (dropbox.sync_started_at - dropbox.modification_time).as_secs_f64();
        let s = (skydrive.sync_started_at - skydrive.modification_time).as_secs_f64();
        assert!(s > 15.0, "SkyDrive startup with 100 files should exceed 15 s, got {s}");
        assert!(d < 5.0, "Dropbox startup should stay below 5 s, got {d}");
    }

    #[test]
    fn dedup_copies_produce_no_storage_traffic() {
        let mut sim = Simulator::new(9);
        let mut client = SyncClient::new(ServiceProfile::dropbox());
        let t0 = client.login(&mut sim, SimTime::ZERO);
        let original = batch(1, 200_000);
        let out1 = client.sync_batch(&mut sim, &original, t0 + SimDuration::from_secs(2));
        let storage_before = sim.trace().wire_bytes(FlowKind::Storage);

        // A copy of the same content under a different name.
        let copy = vec![GeneratedFile {
            path: "copy/replica.bin".to_string(),
            content: original[0].content.clone(),
        }];
        let out2 =
            client.sync_batch(&mut sim, &copy, out1.completed_at + SimDuration::from_secs(5));
        let storage_after = sim.trace().wire_bytes(FlowKind::Storage);
        assert_eq!(out2.uploaded_payload, 0, "the copy must be deduplicated");
        assert_eq!(storage_before, storage_after, "no storage traffic for a dedup hit");
        assert!(out2.completed_at > out2.modification_time);
    }

    #[test]
    fn outcome_accounting_is_consistent() {
        let files = batch(10, 50_000);
        let (outcome, packets) = run_sync(ServiceProfile::wuala(), &files);
        assert_eq!(outcome.files, 10);
        assert_eq!(outcome.logical_bytes, 500_000);
        assert!(outcome.uploaded_payload >= 500_000);
        assert!(outcome.sync_started_at >= outcome.modification_time);
        assert!(outcome.completed_at > outcome.sync_started_at);
        // The trace's storage payload is at least the planned upload volume
        // (headers add more).
        let uploaded = analysis::uploaded_payload(&packets);
        assert!(uploaded >= outcome.uploaded_payload);
    }

    #[test]
    fn cross_user_restore_moves_download_traffic() {
        let store = ObjectStore::new();
        let mut sim = Simulator::new(11);
        let mut owner = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "owner",
            &AccessLink::campus(),
        );
        let files = batch(4, 100_000);
        let t0 = owner.login(&mut sim, SimTime::ZERO);
        let synced = owner.sync_batch(&mut sim, &files, t0 + SimDuration::from_secs(2));

        // A second client behind ADSL pulls the owner's namespace down.
        let mut puller = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "puller",
            &AccessLink::adsl(),
        );
        let mut psim = Simulator::new(12);
        let login = puller.login(&mut psim, SimTime::ZERO);
        let before = psim.trace().wire_bytes(FlowKind::Storage);
        let outcome = puller.restore_user(&mut psim, "owner", login + SimDuration::from_secs(1));

        assert_eq!(outcome.files_restored, 4);
        assert_eq!(outcome.files_failed, 0);
        assert_eq!(outcome.logical_bytes, synced.logical_bytes);
        assert!(outcome.downloaded_payload > 0);
        assert!(outcome.completed_at > outcome.requested_at);
        let ttfb = outcome.ttfb_secs().expect("bytes travelled");
        assert!(ttfb > 0.0 && ttfb < outcome.duration_secs());
        // The storage flow actually carried the download.
        let after = psim.trace().wire_bytes(FlowKind::Storage);
        assert!(after - before >= outcome.downloaded_payload);
        // ADSL's fat downstream: pulling 400 kB is far faster than the
        // owner-side ADSL upload of the same batch would be (1 Mb/s up).
        assert!(
            outcome.duration_secs() < 4.0,
            "restore took {}s over the 8 Mb/s downstream",
            outcome.duration_secs()
        );
    }

    #[test]
    fn restoring_a_departed_user_fails_cleanly() {
        let store = ObjectStore::new();
        let mut sim = Simulator::new(13);
        let mut owner = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "owner",
            &AccessLink::campus(),
        );
        let t0 = owner.login(&mut sim, SimTime::ZERO);
        let synced = owner.sync_batch(&mut sim, &batch(2, 50_000), t0 + SimDuration::from_secs(1));
        let paths = store.list_files("owner");
        owner.leave_service(&mut sim, synced.completed_at + SimDuration::from_secs(1));

        let mut puller = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "puller",
            &AccessLink::campus(),
        );
        let mut psim = Simulator::new(14);
        let login = puller.login(&mut psim, SimTime::ZERO);
        let storage_before = psim.trace().wire_bytes(FlowKind::Storage);

        // Whole-user pull: the namespace is gone — one clean failure.
        let outcome = puller.restore_user(&mut psim, "owner", login + SimDuration::from_secs(1));
        assert_eq!(outcome.files_restored, 0);
        assert_eq!(outcome.files_failed, 1);
        assert_eq!(outcome.downloaded_payload, 0);
        assert_eq!(outcome.first_byte_at, None);

        // Path-level pull of the hard-deleted manifests: typed per-file
        // failures, still no storage traffic, never a panic.
        let outcome = puller
            .restore_batch_faulted(
                &mut psim,
                "owner",
                &paths,
                outcome.completed_at,
                &Recovery::NONE,
            )
            .outcome;
        assert_eq!(outcome.files_failed, paths.len());
        assert_eq!(psim.trace().wire_bytes(FlowKind::Storage), storage_before);
        assert!(outcome.completed_at > outcome.requested_at, "the control plane still answered");
    }

    #[test]
    fn idling_touches_the_clock_but_never_the_planner() {
        // The temporal scheduler's invariant: idle rounds pay signalling
        // only. The files the planner committed advance exactly with syncs,
        // and last_activity tracks every protocol step.
        let mut sim = Simulator::new(5);
        let mut client = SyncClient::new(ServiceProfile::dropbox());
        let committed = |c: &SyncClient| c.planner.store().list_files("benchmark-user").len();
        let t0 = client.login(&mut sim, SimTime::ZERO);
        assert_eq!(client.last_activity, t0);
        assert_eq!(committed(&client), 0);

        let out = client.sync_batch(&mut sim, &batch(2, 10_000), t0 + SimDuration::from_secs(5));
        assert_eq!(committed(&client), 2);
        assert_eq!(client.last_activity, out.completed_at.max(client.last_activity));

        let before = client.last_activity;
        let last_poll = client.idle_until(&mut sim, before + SimDuration::from_secs(300));
        assert_eq!(committed(&client), 2, "idling must not plan batches");
        assert!(last_poll > before, "five minutes of idling must poll at least once");
        assert_eq!(client.last_activity, last_poll);

        client.sync_batch(&mut sim, &batch(1, 5_000), last_poll + SimDuration::from_secs(5));
        assert_eq!(committed(&client), 3);
    }

    #[test]
    fn fault_free_faulted_sync_is_clean_and_commits_everything() {
        let files = batch(3, 200_000);
        let run = || {
            let mut sim = Simulator::new(42);
            let mut client = SyncClient::new(ServiceProfile::dropbox());
            let t0 = client.login(&mut sim, SimTime::ZERO);
            client.sync_batch_faulted(
                &mut sim,
                &files,
                t0 + SimDuration::from_secs(5),
                &FaultSchedule::NONE,
                &RetryConfig::None,
                0xFEED,
            )
        };
        let out = run();
        assert!(out.completed);
        assert_eq!(out.committed_payload, out.outcome.uploaded_payload);
        assert_eq!(out.abandoned_chunks, 0);
        assert!(out.stats.is_clean());
        assert_eq!(out.stats.interruptions, 0);
        assert_eq!(out.stats.wasted_bytes, 0);
        assert_eq!(out, run(), "the faulted path must be deterministic");
    }

    #[test]
    fn plain_and_fault_free_faulted_syncs_differ_in_the_storage_transfer_step_only() {
        let files = batch(6, 150_000);
        let control_plane = |sim: &Simulator| -> u64 {
            let trace = sim.trace();
            FlowKind::ALL
                .iter()
                .filter(|k| k.is_control_plane())
                .map(|k| trace.wire_bytes(*k))
                .sum()
        };
        for profile in ServiceProfile::all() {
            let name = profile.name();
            let run = |faulted: bool| {
                let mut sim = Simulator::new(42);
                let mut client = SyncClient::new(profile.clone());
                let at = client.login(&mut sim, SimTime::ZERO) + SimDuration::from_secs(5);
                let out = if faulted {
                    client.sync_batch_faulted(
                        &mut sim,
                        &files,
                        at,
                        &FaultSchedule::NONE,
                        &RetryConfig::None,
                        7,
                    )
                } else {
                    client.sync(&mut sim, &files, at, None)
                };
                (out, control_plane(&sim))
            };
            let (plain, plain_control) = run(false);
            let (faulted, faulted_control) = run(true);

            // Everything outside the transfer step is the same code.
            assert_eq!(plain.outcome.modification_time, faulted.outcome.modification_time);
            assert_eq!(plain.outcome.sync_started_at, faulted.outcome.sync_started_at, "{name}");
            assert_eq!(plain.outcome.files, faulted.outcome.files);
            assert_eq!(plain.outcome.logical_bytes, faulted.outcome.logical_bytes, "{name}");
            assert_eq!(plain.outcome.uploaded_payload, faulted.outcome.uploaded_payload, "{name}");
            for out in [&plain, &faulted] {
                assert!(out.completed, "{name}");
                assert_eq!(out.committed_payload, out.outcome.uploaded_payload, "{name}");
                assert_eq!(out.abandoned_chunks, 0);
                assert_eq!(out.stats, FaultStats::default(), "{name}");
                assert_eq!(out.backoff_waits.count(), 0);
            }

            // The transfer step is the fork: the profile's mode against bare
            // chunks one at a time. A mode that opens control connections
            // per file (Cloud Drive) pays them in the plain step only.
            let per_file_control = match profile.transfer_mode {
                TransferMode::ConnectionPerFile { control_connections_per_file } => {
                    control_connections_per_file
                }
                _ => 0,
            };
            if per_file_control == 0 {
                assert_eq!(plain_control, faulted_control, "{name}");
            } else {
                assert!(plain_control > faulted_control, "{name}");
            }
            assert_ne!(plain.outcome.completed_at, faulted.outcome.completed_at, "{name}");
        }
    }

    /// The upload fault-recovery harness: learns the fault-free transfer
    /// window, then cuts the link inside it.
    fn faulted_sync_with(
        policy: &RetryConfig,
        faults: &FaultSchedule,
        files: &[GeneratedFile],
    ) -> FaultedSyncOutcome {
        let mut sim = Simulator::new(21);
        let mut client = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            ObjectStore::new(),
            "victim",
            &AccessLink::adsl(),
        );
        let t0 = client.login(&mut sim, SimTime::ZERO);
        client.sync_batch_faulted(
            &mut sim,
            files,
            t0 + SimDuration::from_secs(5),
            faults,
            policy,
            0xFA57,
        )
    }

    /// One outage window centred inside the control run's transfer span.
    fn outage_inside(control: &FaultedSyncOutcome, secs: u64) -> FaultSchedule {
        use cloudsim_net::OutageWindow;
        let start = control.outcome.sync_started_at;
        let span = control.outcome.completed_at.saturating_since(start);
        let mid = start + SimDuration::from_secs_f64(span.as_secs_f64() / 2.0);
        FaultSchedule {
            windows: vec![OutageWindow { down_at: mid, up_at: mid + SimDuration::from_secs(secs) }],
        }
    }

    #[test]
    fn a_mid_upload_outage_is_retried_resumed_and_salvaged() {
        let files = batch(2, 400_000);
        // 800 kB over the 1 Mb/s ADSL upstream: a multi-second window.
        let control = faulted_sync_with(&RetryConfig::None, &FaultSchedule::NONE, &files);
        assert!(control.completed);

        let faults = outage_inside(&control, 3);
        let out = faulted_sync_with(&RetryConfig::standard_exponential(), &faults, &files);
        assert!(out.completed, "the backoff policy must recover: {:?}", out.stats);
        assert_eq!(out.committed_payload, control.committed_payload);
        assert!(out.stats.interruptions >= 1);
        assert!(out.stats.retries >= 1);
        assert!(out.stats.backoff_wait > SimDuration::ZERO);
        assert!(out.stats.wasted_bytes > 0, "in-flight bytes at the cut are wasted");
        assert!(out.stats.salvaged_bytes > 0, "acked bytes must not travel twice");
        assert!(out.stats.resume_efficiency() > 0.0);
        // Recovery costs virtual time: the faulted run finishes later.
        assert!(out.outcome.completed_at > control.outcome.completed_at);
    }

    #[test]
    fn no_retry_abandons_at_the_first_cut_and_commits_strictly_less() {
        let files = batch(2, 400_000);
        let control = faulted_sync_with(&RetryConfig::None, &FaultSchedule::NONE, &files);
        let faults = outage_inside(&control, 3);

        let abandoned = faulted_sync_with(&RetryConfig::None, &faults, &files);
        let recovered = faulted_sync_with(&RetryConfig::standard_exponential(), &faults, &files);
        assert!(!abandoned.completed);
        assert!(abandoned.abandoned_chunks >= 1);
        assert_eq!(abandoned.stats.abandoned, abandoned.abandoned_chunks as u64);
        assert_eq!(abandoned.stats.retries, 0);
        assert!(abandoned.stats.wasted_bytes > 0);
        assert!(
            abandoned.committed_payload < recovered.committed_payload,
            "no-retry ({}) must commit strictly less than backoff ({})",
            abandoned.committed_payload,
            recovered.committed_payload
        );
    }

    #[test]
    fn faulted_restores_resume_ranged_and_validate_checksums() {
        use cloudsim_net::OutageWindow;
        let store = ObjectStore::new();
        let files = batch(5, 200_000);
        let mut sim = Simulator::new(31);
        let mut owner = SyncClient::for_user_on_link(
            ServiceProfile::dropbox(),
            store.clone(),
            "owner",
            &AccessLink::campus(),
        );
        let t0 = owner.login(&mut sim, SimTime::ZERO);
        owner.sync_batch(&mut sim, &files, t0 + SimDuration::from_secs(2));

        // The puller already holds the content of the owner's last file (it
        // synced a copy of its own), so that file restores fully
        // deduplicated: a zero-byte stream that never touches the wire.
        // Each pull is a fresh account: a second client of the same account
        // would find its first copy held by the store and skip the upload.
        let held = vec![GeneratedFile {
            path: "mine/copy.bin".to_string(),
            content: files[4].content.clone(),
        }];
        let pull = |user: &str, faults: &FaultSchedule, policy: &RetryConfig| {
            let mut psim = Simulator::new(32);
            let mut puller = SyncClient::for_user_on_link(
                ServiceProfile::dropbox(),
                store.clone(),
                user,
                &AccessLink::adsl(),
            );
            let login = puller.login(&mut psim, SimTime::ZERO);
            let synced = puller.sync_batch(&mut psim, &held, login + SimDuration::from_secs(1));
            puller.restore_user_faulted(
                &mut psim,
                "owner",
                synced.completed_at + SimDuration::from_secs(1),
                &Recovery { faults, policy: *policy, seed: 0xD0_5E },
            )
        };

        let control = pull("control", &FaultSchedule::NONE, &RetryConfig::None);
        assert!(control.completed);
        assert_eq!(control.outcome.files_restored, 5);
        assert_eq!(control.stats.checksums_verified, 5, "every reassembly is validated");
        assert_eq!(control.stats.checksum_failures, 0);
        assert!(control.stats.is_clean());
        assert_eq!(control.outcome.dedup_skipped_bytes, 200_000, "the held file stays local");
        assert!(control.outcome.downloaded_payload >= 4 * 200_000);
        assert!(control.outcome.downloaded_payload < 5 * 200_000, "four files travel, not five");

        // Cut the link mid-download: shortly after the first payload byte
        // arrived, with most of the 8 Mb/s downstream's work still ahead.
        let first_byte = control.outcome.first_byte_at.expect("payload travelled");
        let mid = first_byte + SimDuration::from_millis(100);
        let faults = FaultSchedule {
            windows: vec![OutageWindow { down_at: mid, up_at: mid + SimDuration::from_secs(2) }],
        };

        let recovered = pull("recovered", &faults, &RetryConfig::standard_exponential());
        assert!(recovered.completed, "backoff must recover the restore: {:?}", recovered.stats);
        assert_eq!(recovered.outcome.files_restored, 5);
        assert_eq!(recovered.stats.checksums_verified, 5);
        assert_eq!(recovered.outcome.downloaded_payload, control.outcome.downloaded_payload);
        assert_eq!(recovered.stats.checksum_failures, 0);
        assert!(recovered.stats.interruptions >= 1);
        assert!(recovered.stats.salvaged_bytes > 0, "the verified prefix resumes, not restarts");
        assert!(recovered.outcome.completed_at > control.outcome.completed_at);

        let abandoned = pull("abandoned", &faults, &RetryConfig::None);
        assert!(!abandoned.completed);
        assert!(abandoned.files_abandoned >= 1);
        assert!(abandoned.outcome.files_failed >= 1);
        assert!(abandoned.stats.wasted_bytes > 0, "a dropped download is wasted wire");
        assert!(
            abandoned.outcome.files_restored < recovered.outcome.files_restored,
            "abandonment must lose files"
        );
    }

    #[test]
    #[should_panic(expected = "sync_batch needs at least one file")]
    fn empty_batches_are_rejected() {
        let mut sim = Simulator::new(1);
        let mut client = SyncClient::new(ServiceProfile::dropbox());
        client.login(&mut sim, SimTime::ZERO);
        client.sync_batch(&mut sim, &[], SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "idle_until requires a prior login")]
    fn idle_without_login_panics() {
        let mut sim = Simulator::new(1);
        let mut client = SyncClient::new(ServiceProfile::dropbox());
        client.idle_until(&mut sim, SimTime::from_secs(60));
    }
}
