//! Report rendering: every table and figure of the paper as text.
//!
//! The `repro` binary in the bench crate calls into this module to regenerate
//! Table 1, Fig. 1–6 and the §3 architecture summary from freshly measured
//! data, printing the same rows/series the paper reports (absolute numbers
//! differ — the substrate is a simulator — but the shapes and rankings are
//! expected to hold; a ledger of that comparison is ROADMAP item 8).
//!
//! The beyond-paper suites render themselves: each result struct in
//! `fleet`, `hetero`, `restore`, `schedule`, `faults`, `scale`, `partition`
//! and `trace_overhead` has a `report()` next to its fields, so this module
//! imports no suite type. What they share lives here: the [`Report`] value,
//! [`Report::to_json`], and the latency-histogram line and gate-key helpers.

use crate::architecture::ArchitectureReport;
use crate::benchmarks::PerformanceSuite;
use crate::capability::{CapabilityMatrix, CompressionPoint, DeltaPoint};
use crate::idle::IdleSeries;
use cloudsim_trace::HistogramSummary;
use serde::Serialize;
use std::fmt::Write as _;

/// One latency-distribution line, shared by every suite that carries a
/// [`HistogramSummary`].
pub(crate) fn hist_line(body: &mut String, label: &str, hist: &HistogramSummary) {
    let _ = writeln!(
        body,
        "{label} latency (s, log-bucketed): n={} p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3}",
        hist.count, hist.p50_s, hist.p90_s, hist.p99_s, hist.p999_s,
    );
}

/// Names a suite's gate metrics: `values` become `<prefix>.<name>` keys in
/// the given order, so each suite spells its prefix once.
pub(crate) fn gate_keys(prefix: &str, values: &[(&str, f64)]) -> Vec<(String, f64)> {
    values.iter().map(|(name, value)| (format!("{prefix}.{name}"), *value)).collect()
}

/// The gate-metric quadruple (`.count`, `.p50_s`, `.p90_s`, `.p99_s`) of a
/// log-bucketed latency distribution. Quantiles are bucket lower bounds, so
/// they are exactly reproducible and safe to gate at zero tolerance.
pub(crate) fn hist_metrics(prefix: &str, hist: &HistogramSummary) -> Vec<(String, f64)> {
    gate_keys(
        prefix,
        &[
            ("count", hist.count as f64),
            ("p50_s", hist.p50_s),
            ("p90_s", hist.p90_s),
            ("p99_s", hist.p99_s),
        ],
    )
}

/// The shared body of Fig. 4 and Fig. 5: per service, file size against
/// bytes uploaded, both in MB.
fn upload_series_body<P>(series: &[(String, Vec<P>)], sizes: impl Fn(&P) -> (u64, u64)) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "{:<14} file size MB -> uploaded MB", "Service");
    for (service, points) in series {
        let _ = write!(body, "{service:<14} ");
        for (file_size, uploaded) in points.iter().map(&sizes) {
            let _ = write!(body, "{:.1}->{:.2}  ", file_size as f64 / 1e6, uploaded as f64 / 1e6);
        }
        let _ = writeln!(body);
    }
    body
}

/// A rendered report section.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Section title (e.g. "Table 1").
    pub title: String,
    /// Rendered text body (fixed-width table / series listing).
    pub body: String,
}

impl Report {
    /// Renders Table 1 (the capability matrix).
    pub fn table1(matrix: &CapabilityMatrix) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{:<14} {:>10} {:>10} {:>12} {:>14} {:>15}",
            "Service", "Chunking", "Bundling", "Compression", "Deduplication", "Delta-encoding"
        );
        for row in &matrix.rows {
            let _ = writeln!(
                body,
                "{:<14} {:>10} {:>10} {:>12} {:>14} {:>15}",
                row.service,
                row.chunking.describe(),
                if row.bundling { "yes" } else { "no" },
                row.compression,
                if row.deduplication { "yes" } else { "no" },
                if row.delta_encoding { "yes" } else { "no" },
            );
        }
        Report { title: "Table 1: capabilities implemented in each service".to_string(), body }
    }

    /// Renders Fig. 1 (idle traffic) as a per-minute cumulative-kB table.
    pub fn figure1(series: &[IdleSeries]) -> Report {
        let mut body = String::new();
        let _ = write!(body, "{:<8}", "min");
        for s in series {
            let _ = write!(body, "{:>14}", s.service);
        }
        let _ = writeln!(body);
        if let Some(first) = series.first() {
            for (i, (minute, _)) in first.points.iter().enumerate() {
                let _ = write!(body, "{:<8.0}", minute);
                for s in series {
                    let _ = write!(body, "{:>14.1}", s.points.get(i).map(|p| p.1).unwrap_or(0.0));
                }
                let _ = writeln!(body);
            }
        }
        let _ = writeln!(body);
        for s in series {
            let _ = writeln!(
                body,
                "{:<14} steady rate {:>8.0} b/s  (~{:.1} MB/day)",
                s.service, s.steady_rate_bps, s.megabytes_per_day
            );
        }
        Report {
            title: "Figure 1: background traffic while idle (cumulative kB)".to_string(),
            body,
        }
    }

    /// Renders Fig. 2 / §3.2 (architecture discovery summaries).
    pub fn figure2(reports: &[&ArchitectureReport]) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{:<14} {:>13} {:>9} {:>9} {:>16}",
            "Service", "entry points", "owners", "cities", "mean geo err km"
        );
        for r in reports {
            let _ = writeln!(
                body,
                "{:<14} {:>13} {:>9} {:>9} {:>16.0}",
                r.provider,
                r.entry_points(),
                r.owners.len(),
                r.cities.len(),
                r.mean_error_km
            );
        }
        Report {
            title: "Figure 2 / §3.2: data centres and edge nodes discovered".to_string(),
            body,
        }
    }

    /// Renders Fig. 3 (cumulative TCP SYNs while uploading 100 × 10 kB).
    pub fn figure3(series: &[(String, Vec<(f64, u64)>)]) -> Report {
        let mut body = String::new();
        for (service, points) in series {
            let total = points.last().map(|(_, v)| *v).unwrap_or(0);
            let duration = points.last().map(|(t, _)| *t).unwrap_or(0.0);
            let _ =
                writeln!(body, "{:<14} {:>4} connections over {:>6.1} s", service, total, duration);
            // A coarse 10-point resampling of the cumulative curve.
            if !points.is_empty() {
                let _ = write!(body, "    t(s)/SYNs:");
                for i in 0..=10 {
                    let target_t = duration * i as f64 / 10.0;
                    let v = points
                        .iter()
                        .take_while(|(t, _)| *t <= target_t + 1e-9)
                        .last()
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    let _ = write!(body, " {target_t:.0}/{v}");
                }
                let _ = writeln!(body);
            }
        }
        Report { title: "Figure 3: cumulative TCP SYNs, 100 files of 10 kB".to_string(), body }
    }

    /// Renders Fig. 4 (delta-encoding test series).
    pub fn figure4(series: &[(String, Vec<DeltaPoint>)], case: &str) -> Report {
        let points = |p: &DeltaPoint| (p.file_size, p.uploaded);
        Report {
            title: format!("Figure 4 ({case}): delta encoding test"),
            body: upload_series_body(series, points),
        }
    }

    /// Renders Fig. 5 (compression test series for one content type).
    pub fn figure5(series: &[(String, Vec<CompressionPoint>)], content: &str) -> Report {
        let points = |p: &CompressionPoint| (p.file_size, p.uploaded);
        Report {
            title: format!("Figure 5 ({content}): bytes uploaded during the compression test"),
            body: upload_series_body(series, points),
        }
    }

    /// Renders one Fig. 6 panel from the performance suite.
    pub fn figure6(suite: &PerformanceSuite, metric: Fig6Metric) -> Report {
        let workloads = suite.workloads();
        let mut body = String::new();
        let _ = write!(body, "{:<14}", "Service");
        for w in &workloads {
            let _ = write!(body, "{w:>12}");
        }
        let _ = writeln!(body);
        let mut services: Vec<String> = Vec::new();
        for row in &suite.rows {
            if !services.contains(&row.service) {
                services.push(row.service.clone());
            }
        }
        for service in &services {
            let _ = write!(body, "{service:<14}");
            for w in &workloads {
                let value = suite.row(service, w).map(|r| metric.extract(r)).unwrap_or(f64::NAN);
                let _ = write!(body, "{value:>12.2}");
            }
            let _ = writeln!(body);
        }
        Report { title: format!("Figure 6{}: {}", metric.panel(), metric.describe()), body }
    }

    /// Serialises any serialisable payload as pretty JSON (used by the repro
    /// harness to dump machine-readable results next to the text tables).
    pub fn to_json<T: Serialize>(value: &T) -> String {
        serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
    }
}

/// Which Fig. 6 panel to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Metric {
    /// Fig. 6a: synchronisation start-up time (seconds).
    Startup,
    /// Fig. 6b: completion time (seconds).
    Completion,
    /// Fig. 6c: protocol overhead (ratio).
    Overhead,
}

impl Fig6Metric {
    fn extract(&self, row: &crate::benchmarks::PerformanceRow) -> f64 {
        match self {
            Fig6Metric::Startup => row.startup_secs.mean,
            Fig6Metric::Completion => row.completion_secs.mean,
            Fig6Metric::Overhead => row.overhead.mean,
        }
    }

    fn panel(&self) -> &'static str {
        match self {
            Fig6Metric::Startup => "a",
            Fig6Metric::Completion => "b",
            Fig6Metric::Overhead => "c",
        }
    }

    fn describe(&self) -> &'static str {
        match self {
            Fig6Metric::Startup => "synchronization start-up time (s)",
            Fig6Metric::Completion => "completion time (s)",
            Fig6Metric::Overhead => "protocol overhead (traffic / payload)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::run_suite_with_workloads;
    use crate::capability::{ChunkingVerdict, ServiceCapabilities};
    use crate::testbed::Testbed;
    use cloudsim_workload::{BatchSpec, FileKind};

    fn sample_matrix() -> CapabilityMatrix {
        CapabilityMatrix {
            rows: vec![ServiceCapabilities {
                service: "Dropbox".to_string(),
                chunking: ChunkingVerdict::Fixed { size: 4 * 1024 * 1024 },
                bundling: true,
                compression: "always".to_string(),
                deduplication: true,
                delta_encoding: true,
            }],
        }
    }

    #[test]
    fn table1_rendering_contains_the_expected_cells() {
        let report = Report::table1(&sample_matrix());
        assert!(report.title.contains("Table 1"));
        assert!(report.body.contains("Dropbox"));
        assert!(report.body.contains("4 MB"));
        assert!(report.body.contains("always"));
        let json = Report::to_json(&sample_matrix());
        assert!(json.contains("\"bundling\": true"));
    }

    #[test]
    fn figure6_rendering_has_one_row_per_service() {
        let testbed = Testbed::new(31);
        let suite = run_suite_with_workloads(
            &testbed,
            &[BatchSpec::new(1, 50_000, FileKind::RandomBinary)],
            1,
        );
        for metric in [Fig6Metric::Startup, Fig6Metric::Completion, Fig6Metric::Overhead] {
            let report = Report::figure6(&suite, metric);
            assert!(report.body.lines().count() >= 6, "{}", report.body);
            assert!(report.body.contains("Dropbox"));
            assert!(report.body.contains("1x50kB"));
        }
    }

    #[test]
    fn figure3_and_4_and_5_render_series() {
        let fig3 = Report::figure3(&[(
            "Google Drive".to_string(),
            vec![(0.0, 1), (10.0, 50), (30.0, 100)],
        )]);
        assert!(fig3.body.contains("100 connections"));
        let fig4 = Report::figure4(
            &[(
                "Dropbox".to_string(),
                vec![DeltaPoint { file_size: 1_000_000, uploaded: 120_000 }],
            )],
            "append",
        );
        assert!(fig4.body.contains("Dropbox"));
        let fig5 = Report::figure5(
            &[(
                "Wuala".to_string(),
                vec![CompressionPoint { file_size: 1_000_000, uploaded: 1_000_000 }],
            )],
            "text",
        );
        assert!(fig5.body.contains("Wuala"));
        assert!(fig5.title.contains("text"));
    }
}
