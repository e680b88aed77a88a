//! Temporal schedule suite: think times, idle rounds and arrival jitter on
//! a virtual clock.
//!
//! The paper's benchmarks are temporal at heart — §3.1 captures 16 minutes
//! of idle background signalling, and the §5 experiments measure sync
//! *start-up delay* and completion time, quantities that only exist because
//! clients do not fire in lock-step. This suite runs the canonical
//! *temporal* fleet: mixed profiles on mixed links where every client draws
//! a seeded [`ThinkTime`] pause before each activity burst, activates each
//! round only with probability `activation` (idle rounds stay connected and
//! pay keep-alive signalling, exactly the §3.1 accounting), and starts each
//! sync at a seeded intra-round arrival offset. It reports what the
//! lock-step fleet could not:
//!
//! * the **sync start-up delay** distribution (modification → sync start,
//!   the paper's Fig. 6a quantity, now sampled across a jittered fleet),
//! * the **per-round concurrency high-water mark** — how many syncs overlap
//!   at the busiest virtual instant, compared against the same fleet run
//!   lock-step (where the peak approaches the fleet size),
//! * the **background-vs-payload byte split** — §3.1-style signalling
//!   volume against storage payload, with idle rounds paying their polls,
//! * the **arrival spread** — how far jitter pulls first syncs apart.
//!
//! Everything is a pure function of the seed: the schedule is derived up
//! front as data, so the whole suite is part of the CI bench-regression
//! gate (`schedule.*` metrics) and the `schedule-determinism` CI leg can
//! `cmp` two fresh `repro schedule` dumps byte for byte.

use crate::report::{gate_keys, hist_line, Report};
use cloudsim_parallel::available_workers;
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::schedule::ThinkTime;
use cloudsim_services::{AccessLink, GcPolicy, ServiceProfile};
use cloudsim_storage::ObjectStore;
use cloudsim_trace::series::SampleStats;
use cloudsim_trace::{HistogramSummary, SimDuration};
use serde::Serialize;
use std::fmt::Write as _;

/// The service mix of the canonical temporal scenario, in slot order.
pub fn schedule_profiles() -> Vec<ServiceProfile> {
    vec![ServiceProfile::dropbox(), ServiceProfile::skydrive(), ServiceProfile::google_drive()]
}

/// The canonical temporal fleet: `clients` slots cycling through the
/// service mix and all four link presets, six rounds of four 64 kB files,
/// an exponential think time (mean 8 s), up to 20 s of intra-round arrival
/// jitter, and a 0.7 per-round activation probability — so roughly a third
/// of the connected rounds are idle and pay only keep-alive signalling.
pub fn schedule_spec(clients: usize, seed: u64) -> FleetSpec {
    assert!(clients >= 2, "the temporal scenario needs at least two slots");
    FleetSpec::new(ServiceProfile::dropbox(), clients)
        .with_files(4, 64 * 1024)
        .with_batches(6)
        .with_seed(seed)
        .with_profiles(&schedule_profiles())
        .with_links(&AccessLink::all())
        .with_gc(GcPolicy::Eager)
        .with_think_time(ThinkTime::Exponential { mean: SimDuration::from_secs(8) })
        .with_arrival_jitter(SimDuration::from_secs(20))
        .with_activation(0.7)
}

/// The lock-step control: the same fleet with the temporal model switched
/// off (zero think time, zero jitter, full activation) — the configuration
/// that replays the legacy round-major behaviour.
pub fn lockstep_spec(clients: usize, seed: u64) -> FleetSpec {
    schedule_spec(clients, seed)
        .with_think_time(ThinkTime::NONE)
        .with_arrival_jitter(SimDuration::ZERO)
        .with_activation(1.0)
}

/// The temporal suite's results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleSuite {
    /// Number of client slots.
    pub clients: usize,
    /// Rounds the fleet ran.
    pub rounds: usize,
    /// Per-batch workload label (e.g. "4x64kB").
    pub workload: String,
    /// Human-readable think-time distribution label.
    pub think: String,
    /// Intra-round arrival jitter bound in seconds.
    pub arrival_jitter_s: f64,
    /// Per-round activation probability.
    pub activation: f64,
    /// Rounds the fleet actually synced batches in.
    pub sync_rounds: usize,
    /// Connected-but-idle rounds (keep-alive signalling only).
    pub idle_rounds: usize,
    /// Paper-style sync start-up delay distribution (modification → sync
    /// start), one sample per activated round.
    pub startup_delay: SampleStats,
    /// Distribution of per-sync commit durations across every activated
    /// round.
    pub sync_hist: HistogramSummary,
    /// Per-client completion-time distribution over the clients that
    /// synced.
    pub completion: SampleStats,
    /// Spread of first-sync start times across the fleet, in seconds.
    pub first_sync_spread_s: f64,
    /// Most syncs in flight at any virtual instant, jittered schedule.
    pub concurrency_peak: usize,
    /// The same fleet's peak when run lock-step — the barrier the jitter
    /// dissolves.
    pub lockstep_concurrency_peak: usize,
    /// Control-plane wire bytes (login, metadata, keep-alive polls).
    pub background_wire_bytes: u64,
    /// Storage-flow wire bytes (payload direction, headers included).
    pub payload_wire_bytes: u64,
    /// `(user, synced rounds, idle rounds)` per client, in slot order.
    pub per_client_rounds: Vec<(String, usize, usize)>,
}

impl ScheduleSuite {
    /// Fraction of all wire bytes that were background signalling.
    pub fn background_fraction(&self) -> f64 {
        let background = self.background_wire_bytes as f64;
        let total = background + self.payload_wire_bytes as f64;
        if total > 0.0 {
            background / total
        } else {
            0.0
        }
    }

    /// Fraction of connected rounds spent idle.
    pub fn idle_fraction(&self) -> f64 {
        let total = (self.sync_rounds + self.idle_rounds) as f64;
        if total > 0.0 {
            self.idle_rounds as f64 / total
        } else {
            0.0
        }
    }

    /// Renders the temporal schedule suite: sync/idle round accounting, the
    /// start-up delay and completion distributions, the concurrency
    /// high-water mark against its lock-step control, and the
    /// background-vs-payload byte split.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} rounds of {}, think {}, jitter <= {:.0}s, activation {:.2}",
            self.clients,
            self.rounds,
            self.workload,
            self.think,
            self.arrival_jitter_s,
            self.activation,
        );
        let _ = writeln!(
            body,
            "\nrounds: {} synced, {} idle ({:.0}% idle, keep-alive signalling only)",
            self.sync_rounds,
            self.idle_rounds,
            self.idle_fraction() * 100.0
        );
        let _ = writeln!(body, "\ntemporal distributions (simulated seconds):");
        let _ = writeln!(
            body,
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "quantity", "samples", "mean", "min", "max", "stddev"
        );
        for (name, stats) in
            [("startup delay", &self.startup_delay), ("completion", &self.completion)]
        {
            let _ = writeln!(
                body,
                "{:<22} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                name, stats.count, stats.mean, stats.min, stats.max, stats.std_dev
            );
        }
        hist_line(&mut body, "sync commit", &self.sync_hist);
        let _ = writeln!(
            body,
            "\narrival spread {:.2}s; concurrency peak {} (lock-step control: {})",
            self.first_sync_spread_s, self.concurrency_peak, self.lockstep_concurrency_peak,
        );
        let _ = writeln!(
            body,
            "background vs payload: {:.1} kB signalling vs {:.2} MB storage ({:.1}% background)",
            self.background_wire_bytes as f64 / 1e3,
            self.payload_wire_bytes as f64 / 1e6,
            self.background_fraction() * 100.0,
        );
        let _ = writeln!(body, "\nper-client rounds (synced/idle):");
        let _ = writeln!(body, "{:<12} {:>7} {:>6}", "user", "synced", "idle");
        for (user, synced, idle) in &self.per_client_rounds {
            let _ = writeln!(body, "{:<12} {:>7} {:>6}", user, synced, idle);
        }
        Report {
            title: "Schedule: think times, idle rounds and arrival jitter on a virtual clock"
                .to_string(),
            body,
        }
    }

    /// The suite's gate metrics: start-up delays, idle-round accounting,
    /// the arrival spread, concurrency peaks (jittered vs lock-step) and
    /// the §3.1-style background-vs-payload byte split.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        gate_keys(
            "schedule",
            &[
                ("sync_rounds", self.sync_rounds as f64),
                ("idle_rounds", self.idle_rounds as f64),
                ("startup_delay_mean_s", self.startup_delay.mean),
                ("completion_mean_s", self.completion.mean),
                ("first_sync_spread_s", self.first_sync_spread_s),
                ("concurrency_peak", self.concurrency_peak as f64),
                ("lockstep_concurrency_peak", self.lockstep_concurrency_peak as f64),
                ("background_kb", self.background_wire_bytes as f64 / 1e3),
                ("payload_mb", self.payload_wire_bytes as f64 / 1e6),
            ],
        )
    }
}

/// Runs the canonical temporal scenario (plus its lock-step control) with
/// one OS thread per client and assembles the suite.
pub fn run_schedule(clients: usize, seed: u64) -> ScheduleSuite {
    let spec = schedule_spec(clients, seed);
    let run = run_fleet(&spec, ObjectStore::with_policy(spec.gc), available_workers());
    let control = lockstep_spec(clients, seed);
    let lockstep = run_fleet(&control, ObjectStore::with_policy(control.gc), available_workers());

    ScheduleSuite {
        clients,
        rounds: spec.rounds,
        workload: format!("{}x{}kB", spec.files_per_batch, spec.file_size / 1024),
        think: spec.think.to_string(),
        arrival_jitter_s: spec.arrival_jitter.as_secs_f64(),
        activation: spec.activation,
        sync_rounds: run.total_synced_rounds(),
        idle_rounds: run.total_idle_rounds(),
        startup_delay: run.startup_delay_stats(),
        sync_hist: run.sync_duration_histogram().summary(),
        completion: run.completion_stats(),
        first_sync_spread_s: run.first_sync_spread_secs(),
        concurrency_peak: run.sync_concurrency_peak(),
        lockstep_concurrency_peak: lockstep.sync_concurrency_peak(),
        background_wire_bytes: run.total_background_wire_bytes(),
        payload_wire_bytes: run.total_payload_wire_bytes(),
        per_client_rounds: run
            .clients
            .iter()
            .map(|c| (c.user.clone(), c.synced_rounds(), c.idle_rounds))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The canonical 10-client suite, computed once (two fleet runs) and
    /// shared by the assertions below to keep debug test time in check.
    fn canonical() -> &'static ScheduleSuite {
        static SUITE: OnceLock<ScheduleSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_schedule(10, 0x42))
    }

    #[test]
    fn temporal_fleet_mixes_sync_and_idle_rounds() {
        let suite = canonical();
        assert_eq!(suite.clients, 10);
        assert_eq!(suite.rounds, 6);
        assert!(suite.sync_rounds > 0);
        assert!(suite.idle_rounds > 0, "p=0.7 over 60 rounds must idle somewhere");
        assert_eq!(suite.sync_rounds + suite.idle_rounds, 60);
        let fraction = suite.idle_fraction();
        assert!((0.1..0.6).contains(&fraction), "idle fraction {fraction} far from 0.3");
        assert_eq!(suite.per_client_rounds.len(), 10);
        for (user, synced, idle) in &suite.per_client_rounds {
            assert_eq!(synced + idle, 6, "{user} must account for all six rounds");
        }
    }

    #[test]
    fn jitter_spreads_arrivals_and_lowers_the_concurrency_peak() {
        let suite = canonical();
        assert!(
            suite.first_sync_spread_s > 1.0,
            "20s jitter must pull first syncs apart, spread {}",
            suite.first_sync_spread_s
        );
        assert!(suite.concurrency_peak >= 1);
        assert!(
            suite.concurrency_peak <= suite.lockstep_concurrency_peak,
            "jitter + idling ({}) cannot out-pile the lock-step barrier ({})",
            suite.concurrency_peak,
            suite.lockstep_concurrency_peak
        );
        assert!(suite.lockstep_concurrency_peak >= suite.clients / 2);
    }

    #[test]
    fn background_and_payload_bytes_both_flow() {
        let suite = canonical();
        assert!(suite.background_wire_bytes > 0, "logins and idle polls must signal");
        assert!(suite.payload_wire_bytes > 0, "synced batches must move payload");
        let fraction = suite.background_fraction();
        assert!((0.0..1.0).contains(&fraction));
        assert!(fraction > 0.0);
        // Payload dominates: batches are 256 kB against ~kB-scale polls.
        assert!(fraction < 0.5, "background fraction {fraction} should not dominate");
    }

    #[test]
    fn startup_delay_and_completion_distributions_are_populated() {
        let suite = canonical();
        assert_eq!(suite.startup_delay.count, suite.sync_rounds);
        assert!(suite.startup_delay.mean > 0.0);
        assert!(suite.completion.count > 0);
        assert!(suite.completion.count <= suite.clients);
        assert!(suite.completion.mean > 0.0);
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        assert_eq!(run_schedule(4, 7), run_schedule(4, 7));
        assert_ne!(run_schedule(4, 7), run_schedule(4, 8));
    }

    #[test]
    fn lockstep_control_really_is_lockstep() {
        let spec = lockstep_spec(4, 9);
        assert!(spec.is_lockstep());
        assert!(spec.schedule().is_lockstep());
        assert!(!schedule_spec(4, 9).is_lockstep());
    }
}
