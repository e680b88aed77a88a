//! Fleet scaling benchmark: the multi-tenant scenario family.
//!
//! The paper's testbed drives each service from a single test computer; the
//! fleet suite scales that methodology out — K concurrent simulated users
//! (1 → 2 → 8 → 32) committing into one shared sharded object store — and
//! reports the provider-side metrics a single client cannot observe:
//! aggregate goodput, the per-client completion-time distribution, and the
//! server-side inter-user deduplication ratio as a function of fleet size.

use crate::report::{gate_keys, hist_metrics, Report};
use cloudsim_services::fleet::{run_fleet, FleetRun, FleetSpec};
use cloudsim_services::ServiceProfile;
use cloudsim_storage::ObjectStore;
use cloudsim_trace::series::SampleStats;
use serde::Serialize;
use std::fmt::Write as _;

/// One fleet size of the scaling suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetScalingRow {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Distribution of per-client completion times (simulated seconds).
    pub completion_secs: SampleStats,
    /// Aggregate fleet goodput in bits per simulated second.
    pub aggregate_goodput_bps: f64,
    /// Server-side inter-user dedup ratio (referenced / physical bytes).
    pub dedup_ratio: f64,
    /// Bytes the server physically stores after inter-user dedup.
    pub physical_bytes: u64,
    /// Bytes the server would store without inter-user dedup.
    pub referenced_bytes: u64,
    /// Payload bytes the clients uploaded (after client-side capabilities).
    pub uploaded_payload: u64,
    /// Host wall-clock seconds the run took (not deterministic; excluded
    /// from regression baselines).
    pub wall_secs: f64,
}

impl FleetScalingRow {
    /// Builds a row from a finished fleet run.
    pub fn from_run(run: &FleetRun) -> FleetScalingRow {
        let agg = run.aggregate();
        FleetScalingRow {
            clients: run.clients.len(),
            completion_secs: run.completion_stats(),
            aggregate_goodput_bps: run.aggregate_goodput_bps(),
            dedup_ratio: run.dedup_ratio(),
            physical_bytes: agg.physical_bytes,
            referenced_bytes: agg.referenced_bytes,
            uploaded_payload: run.total_uploaded_payload(),
            wall_secs: run.elapsed.as_secs_f64(),
        }
    }
}

/// The scaling suite: one row per fleet size.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetScalingSuite {
    /// The service the fleet ran.
    pub service: String,
    /// Per-batch workload label (e.g. "10x64kB").
    pub workload: String,
    /// Fraction of each batch drawn from the fleet-wide shared pool.
    pub shared_fraction: f64,
    /// One row per fleet size, in ascending client order.
    pub rows: Vec<FleetScalingRow>,
}

impl FleetScalingSuite {
    /// The row for a given fleet size.
    pub fn row(&self, clients: usize) -> Option<&FleetScalingRow> {
        self.rows.iter().find(|r| r.clients == clients)
    }

    /// Renders the fleet scaling suite: the multi-tenant metrics a
    /// single-computer testbed cannot observe, as a function of fleet size.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} fleet, {} per client, shared pool {:.0}%",
            self.service,
            self.workload,
            self.shared_fraction * 100.0
        );
        let _ = writeln!(
            body,
            "{:>8} {:>14} {:>14} {:>12} {:>12} {:>12} {:>10}",
            "clients",
            "goodput Mb/s",
            "completion s",
            "p-bytes MB",
            "r-bytes MB",
            "dedup x",
            "wall s"
        );
        for row in &self.rows {
            let _ = writeln!(
                body,
                "{:>8} {:>14.2} {:>9.1}±{:<4.1} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
                row.clients,
                row.aggregate_goodput_bps / 1e6,
                row.completion_secs.mean,
                row.completion_secs.std_dev,
                row.physical_bytes as f64 / 1e6,
                row.referenced_bytes as f64 / 1e6,
                row.dedup_ratio,
                row.wall_secs,
            );
        }
        Report {
            title: "Fleet scaling: concurrent multi-client sync into one sharded store".to_string(),
            body,
        }
    }
}

/// The default fleet sizes of the scaling suite.
pub const FLEET_SIZES: [usize; 4] = [1, 2, 8, 32];

/// The canonical fleet workload of the scaling suite for a service: ten
/// 64 kB files per batch, two batches per client, half the files shared.
pub fn fleet_spec(profile: &ServiceProfile, clients: usize, seed: u64) -> FleetSpec {
    FleetSpec::new(profile.clone(), clients)
        .with_batches(2)
        .with_files(10, 64 * 1024)
        .with_seed(seed)
}

/// Runs the scaling suite for one service over the given fleet sizes, each
/// fleet on one OS thread per client against a fresh sharded store.
pub fn run_fleet_scaling(
    profile: &ServiceProfile,
    sizes: &[usize],
    seed: u64,
) -> FleetScalingSuite {
    let rows = sizes
        .iter()
        .map(|&clients| {
            let spec = fleet_spec(profile, clients, seed);
            let workers = cloudsim_parallel::available_workers().clamp(1, clients);
            let run = run_fleet(&spec, ObjectStore::new(), workers);
            FleetScalingRow::from_run(&run)
        })
        .collect();
    let spec = fleet_spec(profile, 1, seed);
    FleetScalingSuite {
        service: profile.name().to_string(),
        workload: format!(
            "{}x{}kB x{} rounds",
            spec.files_per_batch,
            spec.file_size / 1024,
            spec.rounds
        ),
        shared_fraction: spec.shared_fraction,
        rows,
    }
}

/// The gate point of the fleet suite: one fleet of `clients` (one worker
/// each) against a fresh store, named `fleet<clients>.*` plus the run's
/// `hist.sync.*` commit-latency quadruple.
pub fn fleet_gate_metrics(
    profile: &ServiceProfile,
    clients: usize,
    seed: u64,
) -> Vec<(String, f64)> {
    let run = run_fleet(&fleet_spec(profile, clients, seed), ObjectStore::new(), clients);
    let row = FleetScalingRow::from_run(&run);
    let mut metrics = gate_keys(
        &format!("fleet{clients}"),
        &[
            ("goodput_mbps", row.aggregate_goodput_bps / 1e6),
            ("completion_mean_s", row.completion_secs.mean),
            ("dedup_ratio", row.dedup_ratio),
            ("physical_mb", row.physical_bytes as f64 / 1e6),
            ("uploaded_mb", row.uploaded_payload as f64 / 1e6),
        ],
    );
    metrics.extend(hist_metrics("hist.sync", &run.sync_duration_histogram().summary()));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_suite_reports_every_fleet_size() {
        let suite = run_fleet_scaling(&ServiceProfile::dropbox(), &[1, 2, 4], 99);
        assert_eq!(suite.rows.len(), 3);
        assert_eq!(suite.service, "Dropbox");
        assert!(suite.row(4).is_some());
        assert!(suite.row(32).is_none());
        for row in &suite.rows {
            assert_eq!(row.completion_secs.count, row.clients);
            assert!(row.aggregate_goodput_bps > 0.0);
            assert!(row.dedup_ratio >= 1.0);
            assert!(row.physical_bytes > 0);
        }
        // A single client cannot trigger inter-user dedup; a 4-client fleet
        // with a shared pool must.
        assert!(suite.row(1).unwrap().dedup_ratio <= suite.row(4).unwrap().dedup_ratio);
        assert!(suite.row(4).unwrap().dedup_ratio > 1.0);
    }

    #[test]
    fn scaling_rows_are_deterministic_for_a_seed() {
        let a = run_fleet_scaling(&ServiceProfile::wuala(), &[2], 7);
        let b = run_fleet_scaling(&ServiceProfile::wuala(), &[2], 7);
        // Everything except wall-clock must reproduce bit-for-bit.
        let (mut ra, mut rb) = (a.rows[0].clone(), b.rows[0].clone());
        ra.wall_secs = 0.0;
        rb.wall_secs = 0.0;
        assert_eq!(ra, rb);
    }
}
