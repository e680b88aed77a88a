//! Restore suite: fleets pulling other users' content back down.
//!
//! The paper's performance analysis (§6) frames both directions of the sync
//! protocol, but a single test computer only ever measured its own uploads.
//! This suite opens the read path at fleet scale: a mixed-link fleet where
//! half the slots are *downloaders* that, after every sync round, pull
//! other users' namespaces back through their own asymmetric access links.
//! It reports what the down path alone can show:
//!
//! * **restore goodput per link class** — ADSL's 1 up / 8 down split means
//!   a client restores several times faster than it uploads; the suite
//!   prints both directions side by side,
//! * **time-to-first-byte** — how long after the manifest request the first
//!   restored payload byte arrives (the §6 latency story for reads),
//! * **cross-user dedup savings on the down path** — shared-pool content a
//!   puller already holds locally never travels,
//! * **clean failures** — one pulled source hard-leaves after round 0, so
//!   every run exercises the restore-after-GC path (typed errors, counted,
//!   never a panic).
//!
//! Everything is a pure function of the seed, so the suite is part of the
//! CI bench-regression gate (`restore.*` metrics).

use crate::report::{gate_keys, hist_line, hist_metrics, Report};
use cloudsim_parallel::available_workers;
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::{AccessLink, GcPolicy, ServiceProfile};
use cloudsim_storage::ObjectStore;
use cloudsim_trace::HistogramSummary;
use std::fmt::Write as _;

/// Per-access-link row of the restore suite.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RestoreLinkRow {
    /// Stable link preset name.
    pub(crate) link: String,
    /// Pullers on this link.
    pub(crate) pullers: usize,
    /// Restore goodput in bits per simulated second (restored plaintext
    /// over the slowest puller's restore time).
    pub(crate) restore_goodput_bps: f64,
    /// Upload goodput of the same link's clients, for the asymmetry
    /// comparison.
    pub(crate) upload_goodput_bps: f64,
    /// Mean time-to-first-restored-byte in seconds.
    pub(crate) ttfb_secs: f64,
}

/// The restore suite's results.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreSuite {
    /// Number of client slots.
    pub(crate) clients: usize,
    /// Slots that pull other users' content.
    pub(crate) pullers: usize,
    /// Rounds the fleet ran.
    pub(crate) rounds: usize,
    /// Per-batch workload label (e.g. "5x128kB").
    pub(crate) workload: String,
    /// Plaintext bytes the fleet restored.
    pub(crate) restored_logical_bytes: u64,
    /// Payload bytes that actually travelled downstream.
    pub(crate) downloaded_payload: u64,
    /// Plaintext bytes the down-path dedup checks kept off the wire.
    pub(crate) dedup_saved_bytes: u64,
    /// Clean restore failures (pulls of the departed source).
    pub(crate) failures: usize,
    /// Distribution of end-to-end restore durations across every pull.
    pub(crate) restore_hist: HistogramSummary,
    /// One row per access link that hosted at least one puller.
    pub(crate) per_link: Vec<RestoreLinkRow>,
}

crate::json::objects! {
    RestoreLinkRow { link, pullers, restore_goodput_bps, upload_goodput_bps, ttfb_secs }
    RestoreSuite {
        clients, pullers, rounds, workload, restored_logical_bytes, downloaded_payload,
        dedup_saved_bytes, failures, restore_hist, per_link
    }
}

impl RestoreSuite {
    /// The row of one link, by preset name.
    #[cfg(test)]
    pub(crate) fn link(&self, name: &str) -> Option<&RestoreLinkRow> {
        self.per_link.iter().find(|r| r.link == name)
    }

    /// Fraction of the restored plaintext that never travelled (0.0–1.0).
    pub(crate) fn dedup_saved_fraction(&self) -> f64 {
        if self.restored_logical_bytes == 0 {
            0.0
        } else {
            self.dedup_saved_bytes as f64 / self.restored_logical_bytes as f64
        }
    }

    /// Renders the restore suite: per-link download goodput against the
    /// same link's upload goodput (the asymmetry table), time-to-first-byte,
    /// and the cross-user dedup savings of the down path.
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients ({} pullers), {} rounds of {}, one source departs after round 0",
            self.clients, self.pullers, self.rounds, self.workload
        );
        let _ = writeln!(body, "\nrestore vs upload goodput by access link (Mb/s, simulated):");
        let _ = writeln!(
            body,
            "{:<10} {:>8} {:>14} {:>14} {:>10}",
            "link", "pullers", "restore Mb/s", "upload Mb/s", "ttfb s"
        );
        for row in &self.per_link {
            let _ = writeln!(
                body,
                "{:<10} {:>8} {:>14.3} {:>14.3} {:>10.3}",
                row.link,
                row.pullers,
                row.restore_goodput_bps / 1e6,
                row.upload_goodput_bps / 1e6,
                row.ttfb_secs,
            );
        }
        let _ = writeln!(body, "\ndown-path volume:");
        let _ = writeln!(
            body,
            "  restored {:.2} MB, downloaded {:.2} MB, dedup saved {:.2} MB ({:.0}%), {} clean failures",
            self.restored_logical_bytes as f64 / 1e6,
            self.downloaded_payload as f64 / 1e6,
            self.dedup_saved_bytes as f64 / 1e6,
            self.dedup_saved_fraction() * 100.0,
            self.failures,
        );
        body.push('\n');
        hist_line(&mut body, "restore", &self.restore_hist);
        Report { title: "Restore: fleets pulling other users' content back down".to_string(), body }
    }

    /// The suite's gate metrics: down-path goodput and time-to-first-byte
    /// per link class, the cross-user dedup savings of the pull direction,
    /// the clean failures of the restore-after-departure path, and the
    /// `hist.restore.*` pull-latency quadruple.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = Vec::new();
        for row in &self.per_link {
            metrics.push((
                format!("restore.goodput_mbps.{}", row.link),
                row.restore_goodput_bps / 1e6,
            ));
            metrics.push((format!("restore.ttfb_s.{}", row.link), row.ttfb_secs));
        }
        metrics.extend(gate_keys(
            "restore",
            &[
                ("downloaded_mb", self.downloaded_payload as f64 / 1e6),
                ("dedup_saved_mb", self.dedup_saved_bytes as f64 / 1e6),
                ("failures", self.failures as f64),
            ],
        ));
        metrics.extend(hist_metrics("hist.restore", &self.restore_hist));
        metrics
    }
}

/// The canonical restore scenario: `clients` slots cycling through all four
/// link presets, the last half pulling two seeded sources each after every
/// round, three rounds of five 128 kB files (half shared pool). One pulled
/// source hard-leaves after round 0, so rounds 1+ exercise the clean-failure
/// path deterministically.
pub(crate) fn restore_spec(clients: usize, seed: u64) -> FleetSpec {
    assert!(clients >= 4, "the restore scenario needs at least four slots");
    let mut spec = FleetSpec::new(ServiceProfile::dropbox(), clients)
        .with_files(5, 128 * 1024)
        .with_batches(3)
        .with_seed(seed)
        .with_links(&AccessLink::all())
        .with_gc(GcPolicy::Eager)
        .with_restore_fan(clients / 2, 2);
    // Hard-churn the first source of the last puller after round 0: its
    // namespace is purged, so that puller's later rounds must fail cleanly.
    let victim = spec.slots[clients - 1].pull_from[0];
    spec.slots[victim].leave_after = Some(0);
    spec
}

/// Runs the canonical restore scenario with one OS thread per client and
/// assembles the suite.
pub fn run_restore(clients: usize, seed: u64) -> RestoreSuite {
    let spec = restore_spec(clients, seed);
    let run = run_fleet(&spec, ObjectStore::with_policy(spec.gc), available_workers());

    let restore_goodput = run.per_link_restore_goodput_bps();
    let upload_goodput = run.per_link_goodput_bps();
    let ttfb = run.per_link_restore_ttfb_secs();
    let per_link = restore_goodput
        .iter()
        .map(|(link, bps)| RestoreLinkRow {
            link: link.clone(),
            pullers: run
                .clients
                .iter()
                .filter(|c| &c.link == link && !c.restores.is_empty())
                .count(),
            restore_goodput_bps: *bps,
            upload_goodput_bps: upload_goodput
                .iter()
                .find(|(l, _)| l == link)
                .map(|(_, bps)| *bps)
                .unwrap_or(0.0),
            ttfb_secs: ttfb.iter().find(|(l, _)| l == link).map(|(_, s)| *s).unwrap_or(0.0),
        })
        .collect();

    RestoreSuite {
        clients,
        pullers: spec.slots.iter().filter(|s| !s.pull_from.is_empty()).count(),
        rounds: spec.rounds,
        workload: format!("{}x{}kB", spec.files_per_batch, spec.file_size / 1024),
        restored_logical_bytes: run.total_restored_logical_bytes(),
        downloaded_payload: run.total_downloaded_payload(),
        dedup_saved_bytes: run.restore_dedup_saved_bytes(),
        failures: run.total_restore_failures(),
        restore_hist: run.restore_duration_histogram().summary(),
        per_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The canonical 8-client suite, computed once and shared by the
    /// assertions below to keep debug test time in check.
    fn canonical() -> &'static RestoreSuite {
        static SUITE: OnceLock<RestoreSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_restore(8, 0x42))
    }

    #[test]
    fn suite_covers_every_link_and_moves_bytes() {
        let suite = canonical();
        assert_eq!(suite.clients, 8);
        assert_eq!(suite.pullers, 4);
        // Eight clients over four links put one puller behind each preset.
        assert_eq!(suite.per_link.len(), 4);
        for row in &suite.per_link {
            assert_eq!(row.pullers, 1, "{}", row.link);
            assert!(row.restore_goodput_bps > 0.0, "{}", row.link);
            assert!(row.ttfb_secs > 0.0, "{}", row.link);
        }
        assert!(suite.restored_logical_bytes > 0);
        assert!(suite.downloaded_payload > 0);
        assert!(suite.downloaded_payload < suite.restored_logical_bytes);
    }

    #[test]
    fn restore_histogram_covers_every_pull_with_ordered_quantiles() {
        let suite = canonical();
        let hist = &suite.restore_hist;
        // 4 pullers x 2 sources x 3 rounds, minus the pulls the departed
        // victim (itself a puller) never performed after round 0; failed
        // pulls of its namespace still count.
        assert_eq!(hist.count, 20);
        assert!(hist.p50_s > 0.0);
        assert!(hist.p50_s <= hist.p90_s && hist.p90_s <= hist.p99_s && hist.p99_s <= hist.p999_s);
    }

    #[test]
    fn asymmetric_links_restore_faster_than_they_upload() {
        let suite = canonical();
        let adsl = suite.link("adsl").expect("adsl row");
        assert!(
            adsl.restore_goodput_bps > 2.0 * adsl.upload_goodput_bps,
            "ADSL down path {} b/s must dwarf its up path {} b/s",
            adsl.restore_goodput_bps,
            adsl.upload_goodput_bps
        );
    }

    #[test]
    fn shared_pool_content_is_saved_on_the_down_path() {
        let suite = canonical();
        assert!(suite.dedup_saved_bytes > 0);
        let fraction = suite.dedup_saved_fraction();
        assert!(
            (0.2..1.0).contains(&fraction),
            "half-shared batches should spare a large fraction, got {fraction}"
        );
    }

    #[test]
    fn the_departed_source_produces_clean_failures() {
        let suite = canonical();
        // The victim leaves after round 0; its puller fails in rounds 1 and 2.
        assert!(suite.failures >= 2, "got {}", suite.failures);
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        assert_eq!(run_restore(4, 7), run_restore(4, 7));
        assert_ne!(run_restore(4, 7), run_restore(4, 8));
    }
}
