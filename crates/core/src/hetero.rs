//! Heterogeneous fleet scenarios: the profiles × links × churn matrix.
//!
//! The paper's central finding is that no service wins everywhere — the best
//! choice depends on the workload *and* the client's network (§5, §6). The
//! single-computer testbed can only change one axis at a time; this suite
//! runs the whole matrix at once: a fleet whose slots mix service profiles
//! (Dropbox/SkyDrive/Google Drive) and access links (campus/fibre/ADSL/3G),
//! with a seeded churn schedule (clients joining and leaving mid-run) and a
//! garbage-collected store. It reports the distributions a provider would
//! care about — per-profile completion times, per-link goodput, the dedup
//! ratio after churn — and compares the two GC policies' reclamation.
//!
//! Everything is a pure function of the seed, so the whole suite is part of
//! the CI bench-regression gate (`hetero.*` and `gc.*` metrics).

use crate::report::Report;
use cloudsim_parallel::available_workers;
use cloudsim_services::fleet::{run_fleet, FleetRun, FleetSpec};
use cloudsim_services::{AccessLink, GcPolicy, ServiceProfile};
use cloudsim_storage::ObjectStore;
use cloudsim_trace::series::SampleStats;
use serde::Serialize;
use std::fmt::Write as _;

/// The service mix of the canonical heterogeneous scenario, in slot order.
pub fn hetero_profiles() -> Vec<ServiceProfile> {
    vec![ServiceProfile::dropbox(), ServiceProfile::skydrive(), ServiceProfile::google_drive()]
}

/// The link mix of the canonical heterogeneous scenario, in slot order. Four
/// links against three profiles keeps the two assignments decorrelated.
pub fn hetero_links() -> [AccessLink; 4] {
    AccessLink::all()
}

/// The canonical heterogeneous churning fleet: `clients` slots cycling
/// through the service and link mixes, four rounds of six 256 kB files (big
/// enough that the access link, not just the protocol chatter, bounds the
/// slow links), two early leavers and two late joiners drawn
/// deterministically from `seed`.
pub fn hetero_spec(clients: usize, seed: u64, gc: GcPolicy) -> FleetSpec {
    FleetSpec::new(ServiceProfile::dropbox(), clients)
        .with_files(6, 256 * 1024)
        .with_batches(4)
        .with_seed(seed)
        .with_profiles(&hetero_profiles())
        .with_links(&hetero_links())
        .with_churn(2, 2)
        .with_gc(gc)
}

/// Reclamation outcome of one GC policy on the same churning scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GcPolicyRow {
    /// Stable policy label (`eager` / `mark_sweep`).
    pub policy: String,
    /// Bytes the store still physically holds after the run.
    pub physical_bytes: u64,
    /// Bytes garbage collection reclaimed during the run.
    pub reclaimed_bytes: u64,
    /// Physical chunk entries freed.
    pub freed_chunks: u64,
    /// Manifests hard-deleted by departing clients.
    pub manifest_deletes: u64,
    /// Server-side dedup ratio over the surviving population.
    pub dedup_ratio: f64,
}

/// The heterogeneous suite's results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeteroSuite {
    /// Number of client slots.
    pub clients: usize,
    /// Rounds the fleet ran.
    pub rounds: usize,
    /// Per-batch workload label (e.g. "6x256kB").
    pub workload: String,
    /// Slots that left mid-run.
    pub leavers: usize,
    /// Slots that joined mid-run.
    pub joiners: usize,
    /// Completion-time distribution per service profile.
    pub completion_by_service: Vec<(String, SampleStats)>,
    /// Goodput (bits per simulated second) per access link.
    pub goodput_by_link: Vec<(String, f64)>,
    /// Plaintext bytes the fleet synchronised.
    pub logical_bytes: u64,
    /// One reclamation row per GC policy, same scenario and seed.
    pub gc_rows: Vec<GcPolicyRow>,
}

impl HeteroSuite {
    /// The row of one GC policy.
    pub fn gc_row(&self, policy: GcPolicy) -> Option<&GcPolicyRow> {
        self.gc_rows.iter().find(|r| r.policy == policy.label())
    }

    /// The completion stats of one service, by profile name.
    pub fn service(&self, name: &str) -> Option<&SampleStats> {
        self.completion_by_service.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The goodput of one link, by preset name.
    pub fn link(&self, name: &str) -> Option<f64> {
        self.goodput_by_link.iter().find(|(n, _)| n == name).map(|(_, bps)| *bps)
    }

    /// Renders the heterogeneous scenario suite: per-profile completion
    /// distributions, per-link goodput, and the GC policy comparison of the
    /// churning fleet.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} rounds of {}, churn: {} leavers / {} joiners",
            self.clients, self.rounds, self.workload, self.leavers, self.joiners
        );
        let _ = writeln!(body, "\ncompletion time by service profile (simulated seconds):");
        let _ = writeln!(
            body,
            "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "service", "clients", "mean", "min", "max", "stddev"
        );
        for (service, stats) in &self.completion_by_service {
            let _ = writeln!(
                body,
                "{:<16} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                service, stats.count, stats.mean, stats.min, stats.max, stats.std_dev
            );
        }
        let _ = writeln!(body, "\ngoodput by access link (Mb/s, simulated):");
        let _ = writeln!(body, "{:<16} {:>12}", "link", "goodput Mb/s");
        for (link, bps) in &self.goodput_by_link {
            let _ = writeln!(body, "{:<16} {:>12.3}", link, bps / 1e6);
        }
        let _ = writeln!(body, "\ngarbage collection over churn (identical schedule per policy):");
        let _ = writeln!(
            body,
            "{:<12} {:>12} {:>12} {:>8} {:>10} {:>9}",
            "policy", "physical MB", "reclaimed MB", "freed", "manifests", "dedup x"
        );
        for row in &self.gc_rows {
            let _ = writeln!(
                body,
                "{:<12} {:>12.2} {:>12.2} {:>8} {:>10} {:>9.2}",
                row.policy,
                row.physical_bytes as f64 / 1e6,
                row.reclaimed_bytes as f64 / 1e6,
                row.freed_chunks,
                row.manifest_deletes,
                row.dedup_ratio,
            );
        }
        Report {
            title: "Heterogeneous fleet: profiles x links x churn with a GC'd store".to_string(),
            body,
        }
    }

    /// The suite's gate metrics: `hetero.*` per-profile completions and
    /// per-link goodputs, `gc.*` reclamation under both policies, and the
    /// dedup ratio over churn of the eagerly collected store.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = Vec::new();
        for (service, stats) in &self.completion_by_service {
            let key = service.to_lowercase().replace(' ', "_");
            metrics.push((format!("hetero.completion_mean_s.{key}"), stats.mean));
        }
        for (link, bps) in &self.goodput_by_link {
            metrics.push((format!("hetero.goodput_mbps.{link}"), bps / 1e6));
        }
        for row in &self.gc_rows {
            metrics.push((
                format!("gc.reclaimed_mb.{}", row.policy),
                row.reclaimed_bytes as f64 / 1e6,
            ));
            metrics
                .push((format!("gc.physical_mb.{}", row.policy), row.physical_bytes as f64 / 1e6));
            metrics.push((format!("gc.freed_chunks.{}", row.policy), row.freed_chunks as f64));
        }
        let eager = self.gc_row(GcPolicy::Eager).expect("eager row");
        metrics.push(("hetero.dedup_ratio".to_string(), eager.dedup_ratio));
        metrics
    }
}

fn gc_row(run: &FleetRun, policy: GcPolicy) -> GcPolicyRow {
    let agg = run.aggregate();
    GcPolicyRow {
        policy: policy.label().to_string(),
        physical_bytes: agg.physical_bytes,
        reclaimed_bytes: agg.reclaimed_bytes,
        freed_chunks: agg.freed_chunks,
        manifest_deletes: agg.manifest_deletes,
        dedup_ratio: run.dedup_ratio(),
    }
}

/// Runs the canonical heterogeneous scenario once per GC policy (same seed,
/// same churn schedule) with one OS thread per client, and assembles the
/// suite. The per-client timings are store-policy independent, so the
/// per-service and per-link breakdowns are taken from the eager run.
pub fn run_hetero(clients: usize, seed: u64) -> HeteroSuite {
    let mut gc_rows = Vec::new();
    let mut breakdown: Option<FleetRun> = None;
    for policy in [GcPolicy::Eager, GcPolicy::MarkSweep] {
        let spec = hetero_spec(clients, seed, policy);
        let run = run_fleet(&spec, ObjectStore::with_policy(spec.gc), available_workers());
        gc_rows.push(gc_row(&run, policy));
        if breakdown.is_none() {
            breakdown = Some(run);
        }
    }
    let run = breakdown.expect("at least one policy ran");
    let spec = hetero_spec(clients, seed, GcPolicy::Eager);
    HeteroSuite {
        clients,
        rounds: spec.rounds,
        workload: format!("{}x{}kB", spec.files_per_batch, spec.file_size / 1024),
        leavers: spec.slots.iter().filter(|s| s.leave_after.is_some()).count(),
        joiners: spec.slots.iter().filter(|s| s.join_round > 0).count(),
        completion_by_service: run.per_service_completion(),
        goodput_by_link: run.per_link_goodput_bps(),
        logical_bytes: run.total_logical_bytes(),
        gc_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The canonical 9-client suite, computed once (two fleet runs) and
    /// shared by the assertions below to keep debug test time in check.
    fn canonical() -> &'static HeteroSuite {
        static SUITE: OnceLock<HeteroSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_hetero(9, 0x42))
    }

    #[test]
    fn suite_covers_every_profile_and_link() {
        let suite = canonical();
        assert_eq!(suite.clients, 9);
        assert_eq!(suite.completion_by_service.len(), 3);
        assert_eq!(suite.goodput_by_link.len(), 4);
        for profile in hetero_profiles() {
            let name = profile.name();
            let stats = suite.service(name).expect(name);
            assert!(stats.count > 0);
            assert!(stats.mean > 0.0);
        }
        for link in hetero_links() {
            let bps = suite.link(link.name).expect(link.name);
            assert!(bps > 0.0, "{}: {bps}", link.name);
        }
        assert_eq!(suite.leavers, 2);
        assert_eq!(suite.joiners, 2);
        assert!(suite.logical_bytes > 0);
    }

    #[test]
    fn constrained_links_finish_behind_the_campus_vantage() {
        let suite = canonical();
        // Goodput ordering follows the uplink: campus/fibre above ADSL/3G.
        let campus = suite.link("campus").unwrap();
        let adsl = suite.link("adsl").unwrap();
        let mobile = suite.link("3g").unwrap();
        assert!(campus > adsl, "campus {campus} vs adsl {adsl}");
        assert!(campus > mobile, "campus {campus} vs 3g {mobile}");
    }

    #[test]
    fn both_gc_policies_reclaim_the_leavers_bytes_identically() {
        let suite = canonical();
        let eager = suite.gc_row(GcPolicy::Eager).unwrap();
        let sweep = suite.gc_row(GcPolicy::MarkSweep).unwrap();
        assert!(eager.reclaimed_bytes > 0);
        assert!(eager.freed_chunks > 0);
        assert!(eager.manifest_deletes > 0);
        // Same seed, same churn: by run end both policies have freed the
        // same garbage and kept the same live bytes — they differ in *when*,
        // not *what*.
        assert_eq!(eager.reclaimed_bytes, sweep.reclaimed_bytes);
        assert_eq!(eager.physical_bytes, sweep.physical_bytes);
        assert_eq!(eager.freed_chunks, sweep.freed_chunks);
        assert!(eager.dedup_ratio > 0.0);
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        assert_eq!(run_hetero(4, 7), run_hetero(4, 7));
        assert_ne!(run_hetero(4, 7).completion_by_service, run_hetero(4, 8).completion_by_service);
    }
}
