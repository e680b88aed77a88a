//! The testbed: the testing application plus the instrumented test computer.
//!
//! §2 of the paper describes a testbed made of a test computer running the
//! application under test and a testing application that generates workloads
//! and intercepts the traffic. [`Testbed`] plays both roles over the
//! simulator: it creates a fresh [`SyncClient`] for the requested service,
//! drives the workload, and hands back an [`ExperimentRun`] bundling the
//! outcome with the captured packet trace.
//!
//! The testbed also owns the run's [`SizeMemo`]: every client it builds
//! prices its LZSS-coded uploads and downloads through it, so content that
//! several services sync, or that one service syncs twice, is counted once
//! per testbed. A fresh testbed starts with an empty memo, and no memo
//! outlives the testbed that holds it.

use cloudsim_net::Simulator;
use cloudsim_services::{ServiceProfile, SizeMemo, SyncClient, SyncOutcome};
use cloudsim_trace::analysis;
use cloudsim_trace::{PacketRecord, SimDuration, SimTime};
use cloudsim_workload::{BatchSpec, GeneratedFile};
use std::sync::Arc;

/// One executed experiment: outcome plus the packet capture.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The sync outcome reported by the client.
    pub outcome: SyncOutcome,
    /// The captured trace, sorted by timestamp.
    pub packets: Vec<PacketRecord>,
    /// The benchmark payload size (sum of generated file sizes).
    pub benchmark_bytes: u64,
}

impl ExperimentRun {
    /// Synchronisation start-up delay (Fig. 6a): from the file modification to
    /// the first packet of a storage flow.
    pub fn startup_delay(&self) -> Option<SimDuration> {
        analysis::startup_delay(&self.packets, self.outcome.modification_time)
    }

    /// Upload completion time (Fig. 6b): first to last storage payload packet.
    pub fn completion_time(&self) -> Option<SimDuration> {
        analysis::completion_time(&self.packets)
    }

    /// Protocol overhead (Fig. 6c): storage+control traffic over benchmark size.
    pub fn overhead(&self) -> f64 {
        analysis::overhead_ratio(&self.packets, self.benchmark_bytes.max(1))
    }

    /// Payload bytes observed on storage flows in the upload direction
    /// (the y-axis of Fig. 4 and Fig. 5).
    pub fn uploaded_payload(&self) -> u64 {
        analysis::uploaded_payload(&self.packets)
    }
}

/// The experiment orchestrator: a master seed and the run's size memo.
///
/// Not `Copy`: the memo is the run's state. A clone shares it, so the
/// clients of every clone pool their counts; [`Testbed::new`] starts an
/// empty one.
#[derive(Debug, Clone)]
pub struct Testbed {
    seed: u64,
    sizes: Arc<SizeMemo>,
}

impl Testbed {
    /// Creates a testbed with a master seed. Repetition `i` of any experiment
    /// derives an independent seed, so the 24 repetitions of §2.3 see
    /// different RTT jitter and workload content.
    pub fn new(seed: u64) -> Testbed {
        Testbed { seed, sizes: Arc::new(SizeMemo::new()) }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The run's size memo: what the testbed's clients offered to it and
    /// counted so far.
    pub fn size_memo(&self) -> &SizeMemo {
        &self.sizes
    }

    /// A fresh client for `profile`, pricing through the run's memo.
    fn client(&self, profile: &ServiceProfile) -> SyncClient {
        SyncClient::new(profile.clone()).with_size_memo(self.sizes.clone())
    }

    /// Derives the seed for repetition `rep` of an experiment labelled `label`.
    pub fn derived_seed(&self, label: u64, rep: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(label.wrapping_add(1)))
            .wrapping_add(0xD1B54A32D192ED03u64.wrapping_mul(rep.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Runs one batch-synchronisation experiment against a service.
    pub fn run_sync(&self, profile: &ServiceProfile, spec: &BatchSpec, rep: u64) -> ExperimentRun {
        let seed = self.derived_seed(spec.total_bytes() ^ spec.file_count as u64, rep);
        let files = spec.generate(seed);
        self.run_sync_files(profile, &files, rep)
    }

    /// Runs one synchronisation of explicit file contents (used by the
    /// capability tests, which need precise control over the payloads).
    pub fn run_sync_files(
        &self,
        profile: &ServiceProfile,
        files: &[GeneratedFile],
        rep: u64,
    ) -> ExperimentRun {
        let seed = self.derived_seed(0xF11E5, rep);
        let mut sim = Simulator::new(seed);
        let mut client = self.client(profile);
        let login_done = client.login(&mut sim, SimTime::ZERO);
        // Files are "modified" a few seconds after the application is up,
        // exactly like the testing application would do over FTP.
        let modification_time = login_done + SimDuration::from_secs(5);
        let outcome = client.sync_batch(&mut sim, files, modification_time);
        // Only account traffic from the modification onwards (login traffic is
        // studied separately in Fig. 1).
        let packets: Vec<PacketRecord> =
            sim.into_packets().into_iter().filter(|p| p.timestamp >= modification_time).collect();
        ExperimentRun {
            outcome,
            packets,
            benchmark_bytes: files.iter().map(|f| f.content.len() as u64).sum(),
        }
    }

    /// Runs an experiment that needs full control over the client (e.g. the
    /// dedup test's copy/delete/restore sequence or the idle experiment).
    /// The closure receives the simulator, the client and the login-completion
    /// time; the full trace is returned alongside the closure's result.
    pub fn run_scripted<R>(
        &self,
        profile: &ServiceProfile,
        rep: u64,
        script: impl FnOnce(&mut Simulator, &mut SyncClient, SimTime) -> R,
    ) -> (R, Vec<PacketRecord>) {
        let seed = self.derived_seed(0x5C417, rep);
        let mut sim = Simulator::new(seed);
        let mut client = self.client(profile);
        let login_done = client.login(&mut sim, SimTime::ZERO);
        let result = script(&mut sim, &mut client, login_done);
        (result, sim.into_packets())
    }
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed::new(0xC10DBE7C)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_workload::FileKind;

    #[test]
    fn run_sync_produces_a_trace_and_metrics() {
        let testbed = Testbed::new(1);
        let spec = BatchSpec::new(5, 20_000, FileKind::RandomBinary);
        let run = testbed.run_sync(&ServiceProfile::wuala(), &spec, 0);
        assert_eq!(run.benchmark_bytes, 100_000);
        assert!(!run.packets.is_empty());
        assert!(run.startup_delay().is_some());
        assert!(run.completion_time().is_some());
        assert!(run.overhead() > 1.0);
        assert!(run.uploaded_payload() >= 100_000);
    }

    #[test]
    fn repetitions_differ_but_are_reproducible() {
        let testbed = Testbed::new(2);
        let spec = BatchSpec::new(1, 100_000, FileKind::RandomBinary);
        let a0 = testbed.run_sync(&ServiceProfile::dropbox(), &spec, 0);
        let a0_again = testbed.run_sync(&ServiceProfile::dropbox(), &spec, 0);
        let a1 = testbed.run_sync(&ServiceProfile::dropbox(), &spec, 1);
        assert_eq!(a0.completion_time(), a0_again.completion_time(), "same rep must reproduce");
        assert_ne!(
            a0.completion_time(),
            a1.completion_time(),
            "different reps should see different jitter"
        );
        assert_ne!(testbed.derived_seed(1, 0), testbed.derived_seed(1, 1));
        assert_ne!(testbed.derived_seed(1, 0), testbed.derived_seed(2, 0));
    }

    /// The size memo changes no simulated value: two services synced on
    /// one testbed (Google Drive's counts are Dropbox's hits) give what two
    /// fresh testbeds give, and a clone shares the memo.
    #[test]
    fn a_shared_size_memo_changes_no_experiment_run() {
        let spec = BatchSpec::new(3, 60_000, FileKind::Text);
        let profiles = [ServiceProfile::dropbox(), ServiceProfile::google_drive()];
        let fields = |run: ExperimentRun| (run.outcome, run.packets, run.benchmark_bytes);
        let shared = Testbed::new(4);
        for profile in &profiles {
            let fresh = Testbed::new(4).run_sync(profile, &spec, 0);
            assert_eq!(
                fields(shared.run_sync(profile, &spec, 0)),
                fields(fresh),
                "{}",
                profile.name()
            );
        }
        let bytes = spec.total_bytes();
        let reading = |testbed: &Testbed| {
            (testbed.size_memo().offered_bytes(), testbed.size_memo().distinct_bytes())
        };
        assert_eq!(reading(&shared), (2 * bytes, bytes));
        let clone = shared.clone();
        clone.run_sync(&profiles[0], &spec, 0);
        assert_eq!(reading(&shared), (3 * bytes, bytes));
    }

    #[test]
    fn scripted_runs_expose_the_client() {
        let testbed = Testbed::default();
        let ((), packets) =
            testbed.run_scripted(&ServiceProfile::google_drive(), 0, |sim, client, t0| {
                client.idle_until(sim, t0 + SimDuration::from_secs(120));
            });
        assert!(!packets.is_empty());
        assert_eq!(testbed.seed(), Testbed::default().seed());
    }

    #[test]
    fn login_traffic_is_excluded_from_sync_runs() {
        let testbed = Testbed::new(3);
        let spec = BatchSpec::new(1, 10_000, FileKind::RandomBinary);
        let run = testbed.run_sync(&ServiceProfile::skydrive(), &spec, 0);
        // SkyDrive's login alone is ~150 kB; if it leaked into the run the
        // overhead for a 10 kB benchmark would exceed 15.
        assert!(run.overhead() < 15.0, "login traffic leaked into the benchmark window");
    }
}
