//! Performance benchmarks (§5 of the paper, Fig. 6).
//!
//! Eight experiments varying the number of files, file sizes and file types,
//! each repeated `repetitions` times per service. For every (service,
//! workload) pair the suite reports the three §5 metrics: synchronisation
//! start-up time, completion time and protocol overhead.

use crate::testbed::Testbed;
use cloudsim_services::ServiceProfile;
use cloudsim_trace::series::SampleStats;
use cloudsim_workload::BatchSpec;

/// Aggregated results of one (service, workload) cell of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceRow {
    /// Service name.
    pub service: String,
    /// Workload label ("100x10kB", …).
    pub workload: String,
    /// Synchronisation start-up delay in seconds (Fig. 6a).
    pub startup_secs: SampleStats,
    /// Upload completion time in seconds (Fig. 6b).
    pub completion_secs: SampleStats,
    /// Protocol overhead ratio (Fig. 6c).
    pub overhead: SampleStats,
    /// Effective upload goodput in bits per second (total payload / completion).
    pub goodput_bps: f64,
}

/// The full performance suite: every service × every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceSuite {
    /// One row per (service, workload) pair.
    pub rows: Vec<PerformanceRow>,
}

crate::json::objects! {
    PerformanceRow { service, workload, startup_secs, completion_secs, overhead, goodput_bps }
    PerformanceSuite { rows }
}

impl PerformanceSuite {
    /// Finds the row for a service and workload label.
    pub fn row(&self, service: &str, workload: &str) -> Option<&PerformanceRow> {
        self.rows.iter().find(|r| r.service == service && r.workload == workload)
    }

    /// Fig. 6's gate metrics: the completion and overhead means of the
    /// many-small-files and single-large-file cells that separate the
    /// services most sharply, keyed `fig6.<metric>.<service>.<workload>`.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        let small_files = ["Dropbox", "Google Drive", "Cloud Drive"].map(|s| (s, "100x10kB"));
        let one_megabyte = ["Dropbox", "SkyDrive"].map(|s| (s, "1x1MB"));
        let mut metrics = Vec::new();
        for (service, workload) in small_files.into_iter().chain(one_megabyte) {
            let Some(row) = self.row(service, workload) else { continue };
            let cell = format!("{}.{}", row.service.to_lowercase().replace(' ', "_"), row.workload);
            metrics.push((format!("fig6.completion_s.{cell}"), row.completion_secs.mean));
            metrics.push((format!("fig6.overhead.{cell}"), row.overhead.mean));
        }
        metrics
    }

    /// The workload labels present, in first-appearance order.
    pub fn workloads(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for row in &self.rows {
            if !labels.contains(&row.workload) {
                labels.push(row.workload.clone());
            }
        }
        labels
    }
}

/// Runs one (service, workload) cell with `repetitions` repetitions.
pub fn run_performance_cell(
    testbed: &Testbed,
    profile: &ServiceProfile,
    spec: &BatchSpec,
    repetitions: usize,
) -> PerformanceRow {
    assert!(repetitions > 0, "need at least one repetition");
    let mut startup = Vec::with_capacity(repetitions);
    let mut completion = Vec::with_capacity(repetitions);
    let mut overhead = Vec::with_capacity(repetitions);
    for rep in 0..repetitions {
        let run = testbed.run_sync(profile, spec, rep as u64);
        if let Some(s) = run.startup_delay() {
            startup.push(s.as_secs_f64());
        }
        if let Some(c) = run.completion_time() {
            completion.push(c.as_secs_f64());
        }
        overhead.push(run.overhead());
    }
    let completion_stats = SampleStats::from_samples(&completion).unwrap_or(SampleStats::zero());
    let goodput = if completion_stats.mean > 0.0 {
        spec.total_bytes() as f64 * 8.0 / completion_stats.mean
    } else {
        0.0
    };
    PerformanceRow {
        service: profile.name().to_string(),
        workload: spec.label(),
        startup_secs: SampleStats::from_samples(&startup).unwrap_or(SampleStats::zero()),
        completion_secs: completion_stats,
        overhead: SampleStats::from_samples(&overhead).unwrap_or(SampleStats::zero()),
        goodput_bps: goodput,
    }
}

/// Runs the Fig. 6 suite (the four binary workloads) for every service.
/// The paper uses 24 repetitions; the default reproduction uses fewer to keep
/// the turnaround short — pass 24 to match the paper exactly.
pub fn run_performance_suite(testbed: &Testbed, repetitions: usize) -> PerformanceSuite {
    run_suite_with_workloads(testbed, &BatchSpec::figure6_workloads(), repetitions)
}

/// Runs the full 8-experiment suite of §2.3 (binary and text workloads).
pub fn run_full_suite(testbed: &Testbed, repetitions: usize) -> PerformanceSuite {
    run_suite_with_workloads(testbed, &BatchSpec::paper_experiments(), repetitions)
}

/// Runs a custom set of workloads for every service. The (service, workload)
/// cells run on independent OS threads (the simulator itself is
/// single-threaded and deterministic); a cell is a fan-out worker, so the
/// byte pipelines and the batch generator it calls run inline on its thread.
pub fn run_suite_with_workloads(
    testbed: &Testbed,
    workloads: &[BatchSpec],
    repetitions: usize,
) -> PerformanceSuite {
    let profiles = ServiceProfile::all();
    // One cell per (service, workload), fanned out with the shared
    // order-preserving helper — the result comes back in stable
    // (service-major, workload-minor) order for reporting.
    let cells: Vec<(&ServiceProfile, &BatchSpec)> =
        profiles.iter().flat_map(|p| workloads.iter().map(move |w| (p, w))).collect();
    let rows = cloudsim_parallel::run_indexed(
        cloudsim_parallel::available_workers(),
        cells.len(),
        || (),
        |(), i| {
            let (profile, spec) = cells[i];
            run_performance_cell(testbed, profile, spec, repetitions)
        },
    );
    PerformanceSuite { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_workload::FileKind;

    #[test]
    fn single_cell_aggregates_repetitions() {
        let testbed = Testbed::new(11);
        let spec = BatchSpec::new(10, 10_000, FileKind::RandomBinary);
        let row = run_performance_cell(&testbed, &ServiceProfile::wuala(), &spec, 3);
        assert_eq!(row.startup_secs.count, 3);
        assert_eq!(row.completion_secs.count, 3);
        assert!(row.startup_secs.mean > 0.0);
        assert!(row.completion_secs.mean > 0.0);
        assert!(row.overhead.mean > 1.0);
        assert!(row.goodput_bps > 0.0);
        assert_eq!(row.workload, "10x10kB");
    }

    #[test]
    fn fig6_shape_dropbox_wins_the_many_small_files_case() {
        let testbed = Testbed::new(13);
        let spec = BatchSpec::new(100, 10_000, FileKind::RandomBinary);
        let dropbox = run_performance_cell(&testbed, &ServiceProfile::dropbox(), &spec, 2);
        let gdrive = run_performance_cell(&testbed, &ServiceProfile::google_drive(), &spec, 2);
        let clouddrive = run_performance_cell(&testbed, &ServiceProfile::cloud_drive(), &spec, 2);
        assert!(
            dropbox.completion_secs.mean * 2.0 < gdrive.completion_secs.mean,
            "Dropbox {} vs Google Drive {}",
            dropbox.completion_secs.mean,
            gdrive.completion_secs.mean
        );
        assert!(gdrive.completion_secs.mean < clouddrive.completion_secs.mean);
        // Overhead ordering of Fig. 6c: Cloud Drive is the worst by far.
        assert!(clouddrive.overhead.mean > 2.0);
        assert!(clouddrive.overhead.mean > gdrive.overhead.mean);
    }

    #[test]
    fn fig6_shape_single_file_is_rtt_bound() {
        let testbed = Testbed::new(17);
        let spec = BatchSpec::new(1, 1_000_000, FileKind::RandomBinary);
        let gdrive = run_performance_cell(&testbed, &ServiceProfile::google_drive(), &spec, 2);
        let skydrive = run_performance_cell(&testbed, &ServiceProfile::skydrive(), &spec, 2);
        assert!(gdrive.completion_secs.mean < 1.5);
        assert!(skydrive.completion_secs.mean > 2.0 * gdrive.completion_secs.mean);
    }

    #[test]
    fn suite_covers_every_service_and_workload() {
        let testbed = Testbed::new(19);
        let workloads = vec![BatchSpec::new(1, 100_000, FileKind::RandomBinary)];
        let suite = run_suite_with_workloads(&testbed, &workloads, 1);
        assert_eq!(suite.rows.len(), 5);
        assert_eq!(suite.workloads(), vec!["1x100kB".to_string()]);
        for name in ["Dropbox", "SkyDrive", "Wuala", "Google Drive", "Cloud Drive"] {
            assert!(suite.row(name, "1x100kB").is_some(), "missing {name}");
        }
        assert!(suite.row("Dropbox", "nope").is_none());
    }

    #[test]
    #[should_panic(expected = "need at least one repetition")]
    fn zero_repetitions_rejected() {
        let testbed = Testbed::new(1);
        let spec = BatchSpec::new(1, 1000, FileKind::RandomBinary);
        run_performance_cell(&testbed, &ServiceProfile::dropbox(), &spec, 0);
    }
}
