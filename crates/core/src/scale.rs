//! Fleet-scale suite: population-level server load from 100k+ lightweight
//! clients.
//!
//! The paper's server-side findings (§4.3's inter-user deduplication,
//! §5's completion behaviour under load) are claims about *populations* —
//! what the provider sees when very many clients hit it at once — but the
//! full-fidelity fleet tops out at tens of clients. This suite drives the
//! lightweight fleet-scale runner ([`cloudsim_services::scale`]) instead:
//! compact per-client state records on the discrete-event heap, seeded
//! commit instants over a virtual horizon, metadata-only chunk commits into
//! the sharded store, analytic per-link transfer times. What it reports is
//! the provider's view:
//!
//! * **commits per virtual second** over the population's active span,
//! * the **concurrency high-water mark** — most transfers in flight at any
//!   virtual instant,
//! * the **population-scale dedup ratio** of the shared content pool,
//! * the **server load curve** — commits bucketed over the horizon.
//!
//! Everything is a pure function of `(clients, seed)`, so the suite is
//! gated as `fleetscale.*` metrics and the CI fleet-scale determinism leg
//! `cmp`s two fresh JSON dumps byte for byte.

use crate::report::{gate_keys, hist_line, hist_metrics, Report};
use cloudsim_services::capture::{replay, FleetCapture, ReplayMix};
use cloudsim_services::scale::{run_scale, ScaleRun, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::{HistogramSummary, SimDuration};
use serde::Serialize;
use std::fmt::Write as _;

/// Buckets of the reported server load curve.
pub const LOAD_CURVE_BUCKETS: usize = 12;

/// The canonical fleet-scale population: `clients` lightweight uploaders,
/// two commits each of four 64 kB files (half from the population-wide
/// shared pool), spread over one virtual hour across all four link presets.
pub fn scale_spec(clients: usize, seed: u64) -> ScaleSpec {
    ScaleSpec::new(clients).with_seed(seed)
}

/// The fleet-scale suite's results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetScaleSuite {
    /// Clients the run drove.
    pub clients: usize,
    /// Commits each client performed.
    pub commits_per_client: usize,
    /// Per-commit workload label (e.g. "4x64kB").
    pub workload: String,
    /// The virtual horizon commit instants were drawn over, in seconds.
    pub horizon_s: f64,
    /// Total commits across the population.
    pub commits: u64,
    /// Total file manifests committed.
    pub files: u64,
    /// Plaintext bytes committed, in MB.
    pub logical_mb: f64,
    /// Bytes the server physically stores after inter-user dedup, in MB.
    pub physical_mb: f64,
    /// Population-scale inter-user dedup ratio.
    pub dedup_ratio: f64,
    /// The span between the first transfer's start and the last transfer's
    /// end, in virtual seconds.
    pub virtual_span_s: f64,
    /// Commits per virtual second over the active span.
    pub commits_per_vsec: f64,
    /// Most transfers in flight at any virtual instant.
    pub concurrency_peak: usize,
    /// Commits bucketed by start instant into [`LOAD_CURVE_BUCKETS`] equal
    /// slices of the active span.
    pub load_curve: Vec<u64>,
    /// Distribution of per-commit transfer durations across the population.
    pub transfer_hist: HistogramSummary,
    /// Host wall-clock seconds the run took. The one non-deterministic
    /// field: excluded from gate metrics and from JSON serialisation (the
    /// CI determinism leg `cmp`s two dumps byte for byte), reported in the
    /// text table for the "100k clients in minutes" claim.
    #[serde(skip)]
    pub wall_secs: f64,
}

impl FleetScaleSuite {
    /// Renders the fleet-scale suite: the provider's view of a 100k+ client
    /// population on the event heap — commits per virtual second, the
    /// concurrency peak, population-scale dedup and the server load curve.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} lightweight clients, {} commits each of {}, over {:.0}s of virtual time",
            self.clients, self.commits_per_client, self.workload, self.horizon_s,
        );
        let _ = writeln!(
            body,
            "\n{:>12} {:>10} {:>12} {:>12} {:>9} {:>14} {:>12} {:>9}",
            "commits",
            "files",
            "logical MB",
            "physical MB",
            "dedup x",
            "commits/vsec",
            "conc peak",
            "wall s"
        );
        let _ = writeln!(
            body,
            "{:>12} {:>10} {:>12.2} {:>12.2} {:>9.2} {:>14.2} {:>12} {:>9.2}",
            self.commits,
            self.files,
            self.logical_mb,
            self.physical_mb,
            self.dedup_ratio,
            self.commits_per_vsec,
            self.concurrency_peak,
            self.wall_secs,
        );
        body.push('\n');
        hist_line(&mut body, "transfer", &self.transfer_hist);
        let _ = writeln!(
            body,
            "\nserver load curve over the {:.0}s active span ({} buckets, commits per bucket):",
            self.virtual_span_s,
            self.load_curve.len(),
        );
        let top = self.load_curve.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in self.load_curve.iter().enumerate() {
            let bar = "#".repeat((count * 40).div_ceil(top) as usize);
            let _ = writeln!(body, "  [{i:>2}] {count:>8} {bar}");
        }
        Report {
            title: "Fleet scale: 100k+ event-driven clients against the sharded store".to_string(),
            body,
        }
    }

    /// The suite's gate metrics, as a pure function of an assembled suite:
    /// a live run and its same-mix replay name the very same
    /// `fleetscale.*` and `hist.scale_transfer.*` entries.
    /// Wall-clock time is deliberately absent — it is the one
    /// non-deterministic field.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = gate_keys(
            "fleetscale",
            &[
                ("commits", self.commits as f64),
                ("commits_per_vsec", self.commits_per_vsec),
                ("concurrency_peak", self.concurrency_peak as f64),
                ("dedup_ratio", self.dedup_ratio),
                ("logical_mb", self.logical_mb),
                ("physical_mb", self.physical_mb),
                ("virtual_span_s", self.virtual_span_s),
            ],
        );
        metrics.extend(hist_metrics("hist.scale_transfer", &self.transfer_hist));
        metrics
    }
}

/// Assembles the suite from a finished run and its workload description —
/// the one code path both the spec-derived runner and the capture replay
/// go through, so a same-mix replay derives every field with the exact
/// same arithmetic and reproduces the suite bit for bit.
pub(crate) fn assemble_suite(
    commits_per_client: usize,
    files_per_commit: usize,
    file_size: u64,
    horizon: SimDuration,
    run: &ScaleRun,
) -> FleetScaleSuite {
    let aggregate = run.aggregate();
    FleetScaleSuite {
        clients: run.clients,
        commits_per_client,
        workload: format!("{}x{}kB", files_per_commit, file_size / 1024),
        horizon_s: horizon.as_secs_f64(),
        commits: run.commits,
        files: run.files,
        logical_mb: run.logical_bytes as f64 / 1e6,
        physical_mb: aggregate.physical_bytes as f64 / 1e6,
        dedup_ratio: aggregate.dedup_ratio(),
        virtual_span_s: run.virtual_span_secs(),
        commits_per_vsec: run.commits_per_vsec(),
        concurrency_peak: run.concurrency_peak(),
        load_curve: run.load_curve(LOAD_CURVE_BUCKETS),
        transfer_hist: run.transfer_histogram().summary(),
        wall_secs: run.elapsed.as_secs_f64(),
    }
}

/// Runs the canonical fleet-scale population with one worker per host core
/// and assembles the suite.
pub fn run_fleet_scale(clients: usize, seed: u64) -> FleetScaleSuite {
    let spec = scale_spec(clients, seed);
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let run = run_scale(&spec, store, cloudsim_parallel::available_workers());
    assemble_suite(
        spec.commits_per_client,
        spec.files_per_commit,
        spec.file_size,
        spec.horizon,
        &run,
    )
}

/// Re-drives a parsed capture with one worker per host core and assembles
/// the suite from the replayed run. With [`ReplayMix::Original`] the result
/// is bit-identical to [`run_fleet_scale`] on the captured spec (the CI
/// replay-fidelity leg `cmp`s the two JSON dumps); a link or profile remap
/// is the paper-style A/B comparison over the same recorded workload.
pub fn replay_fleet_scale(
    capture: &FleetCapture,
    mix: &ReplayMix,
) -> Result<FleetScaleSuite, String> {
    let run = replay(capture, mix, cloudsim_parallel::available_workers())?;
    Ok(assemble_suite(
        capture.commits_per_client,
        capture.files_per_commit,
        capture.file_size,
        capture.horizon,
        &run,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The canonical 2000-client suite, computed once and shared by the
    /// assertions below to keep debug test time in check.
    fn canonical() -> &'static FleetScaleSuite {
        static SUITE: OnceLock<FleetScaleSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_fleet_scale(2000, 0x5CA1E))
    }

    #[test]
    fn population_level_load_metrics_are_sane() {
        let suite = canonical();
        assert_eq!(suite.clients, 2000);
        assert_eq!(suite.commits, 4000);
        assert_eq!(suite.files, 16_000);
        assert!(suite.logical_mb > suite.physical_mb, "the shared pool must dedup");
        assert!(suite.dedup_ratio > 1.5 && suite.dedup_ratio < 2.1);
        assert!(suite.virtual_span_s > 0.0 && suite.virtual_span_s <= suite.horizon_s * 1.1);
        assert!(suite.commits_per_vsec > 0.5, "4000 commits over an hour exceed 1/s");
        assert!(suite.concurrency_peak > 1, "2000 clients over an hour must overlap");
        assert!(suite.concurrency_peak <= suite.clients);
    }

    #[test]
    fn load_curve_spreads_over_the_horizon() {
        let suite = canonical();
        assert_eq!(suite.load_curve.len(), LOAD_CURVE_BUCKETS);
        assert_eq!(suite.load_curve.iter().sum::<u64>(), suite.commits);
        let populated = suite.load_curve.iter().filter(|&&c| c > 0).count();
        assert!(populated == LOAD_CURVE_BUCKETS, "uniform draws must fill every bucket");
    }

    #[test]
    fn transfer_histogram_summarises_every_commit() {
        let suite = canonical();
        assert_eq!(suite.transfer_hist.count, suite.commits);
        assert!(suite.transfer_hist.p50_s > 0.0);
        assert!(suite.transfer_hist.p50_s <= suite.transfer_hist.p999_s);
    }

    #[test]
    fn same_mix_replay_reproduces_the_suite_bit_for_bit() {
        use cloudsim_services::capture::{parse_capture, render_capture};

        let spec = scale_spec(300, 7);
        let original = run_fleet_scale(300, 7);
        let capture = parse_capture(&render_capture(&spec)).expect("capture must parse");
        let replayed = replay_fleet_scale(&capture, &ReplayMix::Original).expect("replay");

        assert_eq!(replayed.clients, original.clients);
        assert_eq!(replayed.commits_per_client, original.commits_per_client);
        assert_eq!(replayed.workload, original.workload);
        assert_eq!(replayed.commits, original.commits);
        assert_eq!(replayed.files, original.files);
        assert_eq!(replayed.load_curve, original.load_curve);
        assert_eq!(replayed.concurrency_peak, original.concurrency_peak);
        for (a, b) in [
            (replayed.horizon_s, original.horizon_s),
            (replayed.logical_mb, original.logical_mb),
            (replayed.physical_mb, original.physical_mb),
            (replayed.dedup_ratio, original.dedup_ratio),
            (replayed.virtual_span_s, original.virtual_span_s),
            (replayed.commits_per_vsec, original.commits_per_vsec),
            (replayed.transfer_hist.p50_s, original.transfer_hist.p50_s),
            (replayed.transfer_hist.p999_s, original.transfer_hist.p999_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "replayed {a} != original {b}");
        }
        // The serialised reports must be byte-identical too (`wall_secs` is
        // skipped) — the exact property the CI replay-fidelity leg `cmp`s.
        assert_eq!(
            crate::report::Report::to_json(&replayed),
            crate::report::Report::to_json(&original),
        );
    }

    #[test]
    fn cross_mix_replay_preserves_the_workload_but_not_the_timing() {
        use cloudsim_services::capture::{parse_capture, render_capture};
        use cloudsim_services::AccessLink;

        let spec = scale_spec(300, 7);
        let original = run_fleet_scale(300, 7);
        let capture = parse_capture(&render_capture(&spec)).expect("capture must parse");
        let remapped = replay_fleet_scale(&capture, &ReplayMix::Link(AccessLink::adsl()))
            .expect("link remap replay");

        // Same recorded workload: volume and dedup are invariant.
        assert_eq!(remapped.commits, original.commits);
        assert_eq!(remapped.files, original.files);
        assert_eq!(remapped.logical_mb.to_bits(), original.logical_mb.to_bits());
        assert_eq!(remapped.dedup_ratio.to_bits(), original.dedup_ratio.to_bits());
        // Different mix: everyone on ADSL stretches the timeline.
        assert!(remapped.transfer_hist.p50_s > original.transfer_hist.p50_s);
        assert_ne!(remapped.virtual_span_s.to_bits(), original.virtual_span_s.to_bits());
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        let a = run_fleet_scale(300, 7);
        let b = run_fleet_scale(300, 7);
        // `wall_secs` is host time; everything else must be bit-identical.
        assert_eq!(
            (a.commits, a.load_curve.clone(), a.concurrency_peak),
            (b.commits, b.load_curve.clone(), b.concurrency_peak)
        );
        assert_eq!(a.commits_per_vsec.to_bits(), b.commits_per_vsec.to_bits());
        assert_eq!(a.dedup_ratio.to_bits(), b.dedup_ratio.to_bits());
        assert_eq!(a.virtual_span_s.to_bits(), b.virtual_span_s.to_bits());
        assert_ne!(run_fleet_scale(300, 8).load_curve, a.load_curve);
    }
}
