//! Fault-injection suite: identical failure schedules across link presets
//! and retry policies.
//!
//! The paper's benchmarks (§5) all assume the access link stays up for the
//! whole experiment — yet the home networks the paper profiles (§6) drop
//! and recover constantly. This suite measures what recovery machinery is
//! worth when they do: for every access-link preset it derives a seeded
//! outage schedule scaled to that link's own transfer window (a pure
//! function of `(spec, seed)`, so every retry policy faces the *identical*
//! failure sequence), then runs the same upload batch and the same restore
//! pull through each policy plus a fault-free control. It reports, per
//! `link × policy` cell:
//!
//! * **retry counts and virtual backoff time** — what the policy spent,
//! * **wasted-bytes ratio** — wire bytes that bought no durable progress
//!   (in-flight losses plus abandoned partial transfers) over the planned
//!   payload,
//! * **completion-time inflation vs the fault-free control** — the latency
//!   price of the outages under that policy,
//! * **resume efficiency** — the fraction of interruption-touched bytes
//!   the sessions salvaged instead of re-driving, and the SHA-256 verdicts
//!   of every reassembled restore.
//!
//! Everything is seed-deterministic, so the suite is part of the CI
//! bench-regression gate (`faults.*` metrics) and the `fault-determinism`
//! CI leg can `cmp` two fresh `repro faults` dumps byte for byte.

use crate::report::{gate_keys, hist_line, hist_metrics, Report};
use cloudsim_net::Simulator;
use cloudsim_services::{
    AccessLink, FaultSchedule, FaultSpec, FaultStats, Recovery, RetryConfig, ServiceProfile,
    SyncClient,
};
use cloudsim_storage::ObjectStore;
use cloudsim_trace::{HistogramSummary, LatencyHistogram, SimDuration, SimTime};
use cloudsim_workload::seed::derive_seed;
use cloudsim_workload::{BatchSpec, FileKind, GeneratedFile};
use std::fmt::Write as _;

/// Salt for the per-link outage-schedule draws.
const FAULT_SALT: u64 = 0x00FA_7A17;
/// Salt for the per-cell retry-jitter seeds.
const RETRY_SALT: u64 = 0x00FA_7A18;

/// The retry policies every link preset runs, in order: the no-recovery
/// control and the standard exponential backoff.
pub(crate) fn fault_policies() -> Vec<RetryConfig> {
    vec![RetryConfig::None, RetryConfig::standard_exponential()]
}

/// One `link × policy` cell: the same batch and the same outage schedules
/// as every other cell of the row, recovered under one policy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultPolicyCell {
    /// Stable policy name (`none`, `exponential`).
    pub(crate) policy: String,
    /// Whether every chunk of the upload committed.
    pub(crate) sync_completed: bool,
    /// Payload bytes the upload durably committed.
    pub(crate) committed_payload: u64,
    /// Chunks abandoned after the retry budget ran out.
    pub(crate) abandoned_chunks: usize,
    /// Upload duration (sync start → last payload byte) in seconds.
    pub(crate) sync_secs: f64,
    /// Upload duration over the fault-free control's.
    pub(crate) sync_inflation: f64,
    /// Whether every file restored and validated.
    pub(crate) restore_completed: bool,
    /// Files reconstructed byte-identically.
    pub(crate) files_restored: usize,
    /// Files abandoned mid-restore.
    pub(crate) files_abandoned: usize,
    /// Restore duration in seconds.
    pub(crate) restore_secs: f64,
    /// Restore duration over the fault-free control's.
    pub(crate) restore_inflation: f64,
    /// Merged recovery accounting of both directions.
    pub(crate) stats: FaultStats,
}

/// One access link's row: its seeded schedules and every policy cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultLinkRow {
    /// Stable link preset name.
    pub(crate) link: String,
    /// Outage windows in the upload-direction schedule.
    pub(crate) upload_outages: usize,
    /// Total upload-direction downtime in seconds.
    pub(crate) upload_downtime_s: f64,
    /// Outage windows in the restore-direction schedule.
    pub(crate) restore_outages: usize,
    /// Fault-free upload duration in seconds (the inflation denominator).
    pub(crate) control_sync_secs: f64,
    /// Fault-free restore duration in seconds.
    pub(crate) control_restore_secs: f64,
    /// Payload bytes the planner scheduled for upload.
    pub(crate) planned_payload: u64,
    /// One cell per retry policy, in [`fault_policies`] order.
    pub(crate) cells: Vec<FaultPolicyCell>,
}

impl FaultLinkRow {
    /// The cell of one policy, by stable name.
    pub(crate) fn cell(&self, policy: &str) -> Option<&FaultPolicyCell> {
        self.cells.iter().find(|c| c.policy == policy)
    }
}

/// The fault-injection suite's results.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSuite {
    /// Master seed of the run.
    pub(crate) seed: u64,
    /// Per-batch workload label (e.g. "4x192kB").
    pub(crate) workload: String,
    /// Policy names, in cell order.
    pub(crate) policies: Vec<String>,
    /// Distribution of every backoff wait slept across all `link × policy`
    /// cells, both directions. Only retrying policies contribute.
    pub(crate) backoff_hist: HistogramSummary,
    /// One row per access-link preset, in [`AccessLink::all`] order.
    pub(crate) per_link: Vec<FaultLinkRow>,
}

crate::json::objects! {
    FaultPolicyCell {
        policy, sync_completed, committed_payload, abandoned_chunks, sync_secs, sync_inflation,
        restore_completed, files_restored, files_abandoned, restore_secs, restore_inflation, stats
    }
    FaultLinkRow {
        link, upload_outages, upload_downtime_s, restore_outages, control_sync_secs,
        control_restore_secs, planned_payload, cells
    }
    FaultsSuite { seed, workload, policies, backoff_hist, per_link }
}

impl FaultsSuite {
    /// Merged recovery accounting of one policy across every link.
    pub(crate) fn stats_for(&self, policy: &str) -> FaultStats {
        let mut stats = FaultStats::default();
        for row in &self.per_link {
            if let Some(cell) = row.cell(policy) {
                stats.merge(&cell.stats);
            }
        }
        stats
    }

    /// Fraction of `link × direction` recoveries the policy completed.
    pub(crate) fn completed_fraction(&self, policy: &str) -> f64 {
        let mut total = 0usize;
        let mut done = 0usize;
        for row in &self.per_link {
            if let Some(cell) = row.cell(policy) {
                total += 2;
                done += usize::from(cell.sync_completed) + usize::from(cell.restore_completed);
            }
        }
        if total > 0 {
            done as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Total wire bytes one policy wasted over the payload it was asked to
    /// move, across every link — the headline cost of *not* recovering.
    pub(crate) fn wasted_ratio(&self, policy: &str) -> f64 {
        let planned: u64 = self.per_link.iter().map(|r| r.planned_payload).sum();
        if planned > 0 {
            self.stats_for(policy).wasted_bytes as f64 / planned as f64
        } else {
            0.0
        }
    }

    /// Renders the fault-injection suite: per `link x policy` cell the
    /// retry spend, the wasted/salvaged byte split, the completion-time
    /// inflation against the fault-free control, and the SHA-256 verdicts
    /// of the resumed restores.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} per client, identical seeded outage schedules per link, policies: {}",
            self.workload,
            self.policies.join(", "),
        );
        let _ = writeln!(
            body,
            "\n{:<10} {:<12} {:>5} {:>7} {:>9} {:>11} {:>11} {:>9} {:>9} {:>8}",
            "link",
            "policy",
            "cuts",
            "retries",
            "abandons",
            "wasted kB",
            "salvage kB",
            "sync x",
            "restore x",
            "sha256"
        );
        for row in &self.per_link {
            for cell in &row.cells {
                let _ = writeln!(
                    body,
                    "{:<10} {:<12} {:>5} {:>7} {:>9} {:>11.1} {:>11.1} {:>9.2} {:>9.2} {:>5}/{}",
                    row.link,
                    cell.policy,
                    cell.stats.interruptions,
                    cell.stats.retries,
                    cell.abandoned_chunks + cell.files_abandoned,
                    cell.stats.wasted_bytes as f64 / 1e3,
                    cell.stats.salvaged_bytes as f64 / 1e3,
                    cell.sync_inflation,
                    cell.restore_inflation,
                    cell.stats.checksums_verified,
                    cell.stats.checksum_failures,
                );
            }
        }
        let _ = writeln!(body, "\nper-policy totals:");
        for policy in &self.policies {
            let stats = self.stats_for(policy);
            let _ = writeln!(
                body,
                "  {:<12} completed {:>4.0}%, wasted ratio {:.3}, resume efficiency {:.3}, backoff {:.1}s",
                policy,
                self.completed_fraction(policy) * 100.0,
                self.wasted_ratio(policy),
                stats.resume_efficiency(),
                stats.backoff_wait.as_secs_f64(),
            );
        }
        body.push('\n');
        hist_line(&mut body, "backoff wait", &self.backoff_hist);
        Report {
            title: "Faults: seeded outages, resumable sessions and retry policies".to_string(),
            body,
        }
    }

    /// The suite's gate metrics: per link preset the retry spend and the
    /// completion-time inflation of the exponential policy against the
    /// fault-free control (both directions), then the aggregate recovery
    /// accounting — resume efficiency, the no-retry policy's wasted-bytes
    /// ratio, backoff time and the SHA-256 verdicts of the resumed
    /// restores — and the `hist.backoff.*` wait quadruple.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = Vec::new();
        for row in &self.per_link {
            let exp = row.cell("exponential").expect("exponential cell");
            for (name, value) in [
                ("interruptions", exp.stats.interruptions as f64),
                ("retries", exp.stats.retries as f64),
                ("sync_inflation", exp.sync_inflation),
                ("restore_inflation", exp.restore_inflation),
            ] {
                metrics.push((format!("faults.{name}.{}", row.link), value));
            }
        }
        let exp = self.stats_for("exponential");
        metrics.extend(gate_keys(
            "faults",
            &[
                ("completed_fraction", self.completed_fraction("exponential")),
                ("resume_efficiency", exp.resume_efficiency()),
                ("backoff_wait_s", exp.backoff_wait.as_secs_f64()),
                ("checksums_verified", exp.checksums_verified as f64),
                ("wasted_ratio_none", self.wasted_ratio("none")),
            ],
        ));
        metrics.extend(hist_metrics("hist.backoff", &self.backoff_hist));
        metrics
    }
}

/// A fresh single-user client of the canonical profile behind `link`.
fn client_on(link: &AccessLink, store: ObjectStore, user: &str) -> SyncClient {
    SyncClient::for_user_on_link(ServiceProfile::dropbox(), store, user, link)
}

/// Drives one faulted upload of `batch` behind `link` on a fresh store.
fn run_sync(
    link: &AccessLink,
    batch: &[GeneratedFile],
    faults: &FaultSchedule,
    retry: RetryConfig,
    seed: u64,
) -> cloudsim_services::FaultedSyncOutcome {
    let mut sim = Simulator::new(11);
    let mut owner = client_on(link, ObjectStore::new(), "owner");
    let t0 = owner.login(&mut sim, SimTime::ZERO);
    owner.sync_batch_faulted(&mut sim, batch, t0 + SimDuration::from_secs(5), faults, &retry, seed)
}

/// Drives one faulted restore of `owner`'s namespace out of `source`.
fn run_restore_pull(
    link: &AccessLink,
    source: &ObjectStore,
    faults: &FaultSchedule,
    retry: RetryConfig,
    seed: u64,
) -> cloudsim_services::FaultedRestoreOutcome {
    let mut sim = Simulator::new(12);
    let mut puller = client_on(link, source.clone(), "puller");
    let login = puller.login(&mut sim, SimTime::ZERO);
    puller.restore_user_faulted(
        &mut sim,
        "owner",
        login + SimDuration::from_secs(1),
        &Recovery { faults, policy: retry, seed },
    )
}

/// The outage-schedule spec for a transfer window of `span`: three outages
/// drawn inside the window, each lasting between a tenth and a third of it —
/// scaled to the link, so a campus transfer and a 3G transfer both get cut
/// mid-flight rather than missed entirely.
fn fault_spec_for(span: SimDuration) -> FaultSpec {
    let micros = span.as_micros().max(10);
    FaultSpec {
        horizon: SimDuration::from_micros(micros),
        outages: 3,
        min_outage: SimDuration::from_micros((micros / 10).max(1)),
        max_outage: SimDuration::from_micros((micros / 3).max(1)),
    }
}

/// Runs the canonical fault scenario — four link presets × the retry
/// policies, identical seeded failure schedules per preset — and assembles
/// the suite.
pub fn run_faults(seed: u64) -> FaultsSuite {
    let files = 4usize;
    let file_size = 192 * 1024usize;
    let batch = BatchSpec::new(files, file_size, FileKind::RandomBinary).generate(seed);
    let policies = fault_policies();
    let mut backoff = LatencyHistogram::new();

    let per_link = AccessLink::all()
        .iter()
        .enumerate()
        .map(|(li, link)| {
            // Fault-free controls: pin the inflation denominators, the
            // transfer windows the schedules are scaled to, and a cleanly
            // populated store for the restore cells to pull from.
            let control_store = ObjectStore::new();
            let (control_sync, control_restore) = {
                let mut sim = Simulator::new(11);
                let mut owner = client_on(link, control_store.clone(), "owner");
                let t0 = owner.login(&mut sim, SimTime::ZERO);
                let sync = owner.sync_batch_faulted(
                    &mut sim,
                    &batch,
                    t0 + SimDuration::from_secs(5),
                    &FaultSchedule::NONE,
                    &RetryConfig::None,
                    seed,
                );
                let restore = run_restore_pull(
                    link,
                    &control_store,
                    &FaultSchedule::NONE,
                    RetryConfig::None,
                    seed,
                );
                (sync, restore)
            };
            let control_sync_secs = control_sync
                .outcome
                .completed_at
                .saturating_since(control_sync.outcome.sync_started_at)
                .as_secs_f64();
            let control_restore_secs = control_restore
                .outcome
                .completed_at
                .saturating_since(control_restore.outcome.requested_at)
                .as_secs_f64();

            // The identical failure schedules every policy of this row
            // faces: pure functions of (spec, seed), pinned onto the
            // control's transfer windows.
            let sync_span = control_sync
                .outcome
                .completed_at
                .saturating_since(control_sync.outcome.sync_started_at);
            let restore_span = control_restore
                .outcome
                .completed_at
                .saturating_since(control_restore.outcome.requested_at);
            let up_faults = FaultSchedule::generate(
                &fault_spec_for(sync_span),
                derive_seed(seed, FAULT_SALT, li as u64, 0),
            )
            .shifted(control_sync.outcome.sync_started_at.saturating_since(SimTime::ZERO));
            let down_faults = FaultSchedule::generate(
                &fault_spec_for(restore_span),
                derive_seed(seed, FAULT_SALT, li as u64, 1),
            )
            .shifted(control_restore.outcome.requested_at.saturating_since(SimTime::ZERO));

            let cells = policies
                .iter()
                .enumerate()
                .map(|(pi, retry)| {
                    let retry_seed = derive_seed(seed, RETRY_SALT, li as u64, pi as u64);
                    let sync = run_sync(link, &batch, &up_faults, *retry, retry_seed);
                    let restore = run_restore_pull(
                        link,
                        &control_store,
                        &down_faults,
                        *retry,
                        retry_seed ^ 0xD0_5E,
                    );
                    let sync_secs = sync
                        .outcome
                        .completed_at
                        .saturating_since(sync.outcome.sync_started_at)
                        .as_secs_f64();
                    let restore_secs = restore
                        .outcome
                        .completed_at
                        .saturating_since(restore.outcome.requested_at)
                        .as_secs_f64();
                    let mut stats = sync.stats;
                    stats.merge(&restore.stats);
                    backoff.merge(&sync.backoff_waits);
                    backoff.merge(&restore.backoff_waits);
                    FaultPolicyCell {
                        policy: retry.name().to_string(),
                        sync_completed: sync.completed,
                        committed_payload: sync.committed_payload,
                        abandoned_chunks: sync.abandoned_chunks,
                        sync_secs,
                        sync_inflation: sync_secs / control_sync_secs.max(f64::EPSILON),
                        restore_completed: restore.completed,
                        files_restored: restore.outcome.files_restored,
                        files_abandoned: restore.files_abandoned,
                        restore_secs,
                        restore_inflation: restore_secs / control_restore_secs.max(f64::EPSILON),
                        stats,
                    }
                })
                .collect();

            FaultLinkRow {
                link: link.name.to_string(),
                upload_outages: up_faults.windows.len(),
                upload_downtime_s: up_faults.total_downtime().as_secs_f64(),
                restore_outages: down_faults.windows.len(),
                control_sync_secs,
                control_restore_secs,
                planned_payload: control_sync.outcome.uploaded_payload,
                cells,
            }
        })
        .collect();

    FaultsSuite {
        seed,
        workload: format!("{}x{}kB", files, file_size / 1024),
        policies: policies.iter().map(|p| p.name().to_string()).collect(),
        backoff_hist: backoff.summary(),
        per_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The canonical suite, computed once (4 links × 3 policies × 2
    /// directions of single-client runs) and shared by the assertions.
    fn canonical() -> &'static FaultsSuite {
        static SUITE: OnceLock<FaultsSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_faults(0x42))
    }

    #[test]
    fn every_link_faces_outages_and_every_policy_reports_a_cell() {
        let suite = canonical();
        assert_eq!(suite.per_link.len(), 4);
        assert_eq!(suite.policies, vec!["none".to_string(), "exponential".to_string()]);
        for row in &suite.per_link {
            assert!(row.upload_outages > 0, "{}", row.link);
            assert!(row.restore_outages > 0, "{}", row.link);
            assert!(row.upload_downtime_s > 0.0, "{}", row.link);
            assert!(row.control_sync_secs > 0.0, "{}", row.link);
            assert!(row.control_restore_secs > 0.0, "{}", row.link);
            assert!(row.planned_payload > 0, "{}", row.link);
            assert_eq!(row.cells.len(), 2, "{}", row.link);
            for cell in &row.cells {
                assert!(
                    cell.stats.interruptions > 0,
                    "{}/{}: schedules scaled to the window must cut",
                    row.link,
                    cell.policy
                );
            }
        }
    }

    #[test]
    fn backoff_histogram_counts_exactly_the_retrying_policy_waits() {
        let suite = canonical();
        let hist = &suite.backoff_hist;
        // `none` never sleeps, so every recorded wait is an exponential
        // retry — the histogram and the retry counter must agree.
        assert_eq!(hist.count, suite.stats_for("exponential").retries);
        assert!(hist.count > 0);
        // The standard policy's jittered base wait stays above a second.
        assert!(hist.p50_s >= 1.0, "p50 {} below the base backoff", hist.p50_s);
        assert!(hist.p50_s <= hist.p90_s && hist.p90_s <= hist.p999_s);
    }

    #[test]
    fn exponential_backoff_recovers_everything_the_control_uploaded() {
        let suite = canonical();
        for row in &suite.per_link {
            let exp = row.cell("exponential").expect("exponential cell");
            assert!(exp.sync_completed, "{}", row.link);
            assert!(exp.restore_completed, "{}", row.link);
            assert_eq!(exp.committed_payload, row.planned_payload, "{}", row.link);
            assert_eq!(exp.abandoned_chunks, 0, "{}", row.link);
            assert_eq!(exp.files_abandoned, 0, "{}", row.link);
            assert!(exp.stats.retries > 0, "{}", row.link);
            assert_eq!(exp.stats.checksum_failures, 0, "{}", row.link);
            assert!(
                exp.sync_inflation >= 1.0,
                "{}: recovery cannot beat the fault-free clock, got {}",
                row.link,
                exp.sync_inflation
            );
        }
        assert_eq!(suite.completed_fraction("exponential"), 1.0);
    }

    #[test]
    fn no_retry_abandons_and_commits_strictly_less_under_the_same_schedule() {
        let suite = canonical();
        let mut abandoned_somewhere = false;
        for row in &suite.per_link {
            let none = row.cell("none").expect("none cell");
            let exp = row.cell("exponential").expect("exponential cell");
            assert_eq!(none.stats.retries, 0, "{}", row.link);
            assert!(none.committed_payload <= exp.committed_payload, "{}", row.link);
            abandoned_somewhere |= none.abandoned_chunks > 0 || none.files_abandoned > 0;
        }
        assert!(abandoned_somewhere, "three cuts per window must break no-retry somewhere");
        assert!(suite.completed_fraction("none") < 1.0);
        assert!(suite.wasted_ratio("none") > 0.0);
    }

    #[test]
    fn resume_salvages_bytes_and_restores_validate_end_to_end() {
        let suite = canonical();
        let exp = suite.stats_for("exponential");
        assert!(exp.salvaged_bytes > 0, "resumable sessions must salvage acked bytes");
        assert!(exp.resume_efficiency() > 0.0);
        assert!(!exp.backoff_wait.is_zero(), "backoff must spend virtual time");
        // Every link's restore validated all four files.
        assert_eq!(exp.checksums_verified, 4 * 4);
        assert_eq!(exp.checksum_failures, 0);
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        assert_eq!(run_faults(7), run_faults(7));
        assert_ne!(run_faults(7), run_faults(8));
    }
}
