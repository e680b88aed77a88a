//! Trace-overhead suite: what full packet capture costs at fleet scale.
//!
//! The trace recorder promises that switching capture on does not
//! perturb the simulation (the traced run's data is bit-identical to the
//! traceless run) and does not meaningfully slow it down (after the run,
//! the fleet-scale runner emits every commit's packets from its events and
//! intervals, already in canonical order, into one preallocated
//! [`cloudsim_trace::TraceShard`], so freezing the trace only scans a
//! sorted run). This suite
//! runs the canonical fleet-scale population twice — tracing off, tracing
//! on — asserts the bit-identity, and reports what the capture contains:
//! packets, flows, connection opens, wire volume, and the wire/logical
//! **overhead ratio** (the §5-style protocol-overhead figure at population
//! scale).
//!
//! Every reported number is a pure function of `(clients, seed)`, so the
//! suite is gated as `trace.*` metrics and the CI determinism leg `cmp`s
//! two fresh JSON dumps byte for byte. The two wall-clock fields are the
//! deliberate exception: serde-skipped and reported only in the text table.
//! Host time is `perf/`'s to judge (`services.scale_trace_cost_share`); the
//! `trace_overhead` Criterion bench prints the ratio and asserts only the
//! bit-identity.

use crate::report::{gate_keys, Report};
use crate::scale::scale_spec;
use cloudsim_services::scale::{run_scale, run_scale_traced};
use cloudsim_storage::{GcPolicy, ObjectStore};
use serde::Serialize;
use std::fmt::Write as _;

/// The trace-overhead suite's results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceOverheadSuite {
    /// Clients the runs drove.
    pub clients: usize,
    /// Total commits across the population.
    pub commits: u64,
    /// Packets the traced run captured.
    pub packets: u64,
    /// Distinct flows in the capture (one per commit).
    pub flows: u64,
    /// Connection-opening SYNs in the capture.
    pub syns: u64,
    /// Wire bytes captured (headers + payload), in MB.
    pub wire_mb: f64,
    /// Plaintext bytes the population committed, in MB.
    pub logical_mb: f64,
    /// Wire bytes over logical bytes — the protocol overhead the capture
    /// observes at population scale.
    pub overhead_ratio: f64,
    /// Captured packets per virtual second of the population's active span.
    pub packets_per_vsec: f64,
    /// Packets each commit contributes (SYN + one data packet per file).
    pub packets_per_commit: f64,
    /// Host wall-clock seconds of the traced run. Non-deterministic:
    /// excluded from gate metrics and JSON (the determinism leg `cmp`s
    /// dumps byte for byte).
    #[serde(skip)]
    pub traced_wall_secs: f64,
    /// Host wall-clock seconds of the traceless baseline run (serde-skipped
    /// like [`TraceOverheadSuite::traced_wall_secs`]).
    #[serde(skip)]
    pub baseline_wall_secs: f64,
}

impl TraceOverheadSuite {
    /// Renders the trace-overhead suite: what the packet capture of a
    /// fleet-scale run contains, and what it cost in host time next to the
    /// traceless baseline (the wall figures are text-only).
    pub fn report(&self) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} commits, captured on one trace shard",
            self.clients, self.commits,
        );
        let _ = writeln!(
            body,
            "\n{:>10} {:>8} {:>8} {:>10} {:>12} {:>10} {:>13} {:>11}",
            "packets",
            "flows",
            "syns",
            "wire MB",
            "logical MB",
            "overhead",
            "packets/vsec",
            "pkts/commit"
        );
        let _ = writeln!(
            body,
            "{:>10} {:>8} {:>8} {:>10.2} {:>12.2} {:>10.4} {:>13.2} {:>11.1}",
            self.packets,
            self.flows,
            self.syns,
            self.wire_mb,
            self.logical_mb,
            self.overhead_ratio,
            self.packets_per_vsec,
            self.packets_per_commit,
        );
        let _ = writeln!(
            body,
            "\nwall time: traced {:.2}s vs traceless {:.2}s ({:.2}x)",
            self.traced_wall_secs,
            self.baseline_wall_secs,
            self.traced_wall_secs / self.baseline_wall_secs.max(f64::MIN_POSITIVE),
        );
        Report { title: "Trace overhead: sharded packet capture at fleet scale".to_string(), body }
    }

    /// The suite's gate metrics. Every value is derived from the capture (a
    /// pure function of the spec, whatever the worker count); wall-clock
    /// numbers are non-deterministic and belong to `perf/`.
    pub fn gate_metrics(&self) -> Vec<(String, f64)> {
        gate_keys(
            "trace",
            &[
                ("packets", self.packets as f64),
                ("flows", self.flows as f64),
                ("syns", self.syns as f64),
                ("wire_mb", self.wire_mb),
                ("overhead_ratio", self.overhead_ratio),
                ("packets_per_vsec", self.packets_per_vsec),
            ],
        )
    }
}

/// Runs the canonical fleet-scale population twice — tracing off, then
/// tracing on — asserts the traced run's data
/// is bit-identical to the baseline, and assembles the suite from the
/// merged capture.
pub fn run_trace_overhead(clients: usize, seed: u64) -> TraceOverheadSuite {
    let spec = scale_spec(clients, seed);
    let workers = cloudsim_parallel::available_workers();
    let fresh = || ObjectStore::with_policy(GcPolicy::MarkSweep);
    let baseline = run_scale(&spec, fresh(), workers);
    let (run, trace) = run_scale_traced(&spec, fresh(), workers);

    // Capture must be a pure observer: the traced run's simulation data is
    // the traceless run's, bit for bit.
    assert_eq!(run.commits, baseline.commits, "tracing changed the commit count");
    assert_eq!(run.logical_bytes, baseline.logical_bytes, "tracing changed the volume");
    assert_eq!(run.intervals, baseline.intervals, "tracing changed the timeline");
    assert_eq!(run.aggregate(), baseline.aggregate(), "tracing changed the store state");

    let view = trace.view();
    let packets = view.len() as u64;
    let wire_bytes = view.wire_bytes_total();
    let flows = view.flow_table().len() as u64;
    let syns = view.packets().iter().filter(|p| p.is_syn()).count() as u64;
    let span = run.virtual_span_secs();
    TraceOverheadSuite {
        clients: run.clients,
        commits: run.commits,
        packets,
        flows,
        syns,
        wire_mb: wire_bytes as f64 / 1e6,
        logical_mb: run.logical_bytes as f64 / 1e6,
        overhead_ratio: wire_bytes as f64 / run.logical_bytes.max(1) as f64,
        packets_per_vsec: packets as f64 / span.max(f64::MIN_POSITIVE),
        packets_per_commit: packets as f64 / run.commits.max(1) as f64,
        traced_wall_secs: run.elapsed.as_secs_f64(),
        baseline_wall_secs: baseline.elapsed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One 2000-client suite shared by the assertions below.
    fn canonical() -> &'static TraceOverheadSuite {
        static SUITE: OnceLock<TraceOverheadSuite> = OnceLock::new();
        SUITE.get_or_init(|| run_trace_overhead(2000, 0x5CA1E))
    }

    #[test]
    fn capture_accounts_every_commit() {
        let suite = canonical();
        assert_eq!(suite.clients, 2000);
        assert_eq!(suite.commits, 4000);
        // One flow and one SYN per commit, one data packet per file.
        assert_eq!(suite.flows, suite.commits);
        assert_eq!(suite.syns, suite.commits);
        assert_eq!(suite.packets, suite.commits * 5);
        assert_eq!(suite.packets_per_commit, 5.0);
    }

    #[test]
    fn overhead_ratio_is_a_thin_tcp_margin() {
        let suite = canonical();
        // Wire = logical + TCP headers: barely above 1, far below the
        // small-file overheads of Fig. 6c (64 kB data packets amortise the
        // 40-byte headers).
        assert!(suite.wire_mb > suite.logical_mb);
        assert!(
            suite.overhead_ratio > 1.0 && suite.overhead_ratio < 1.01,
            "overhead ratio {} outside the thin-header band",
            suite.overhead_ratio
        );
        assert!(suite.packets_per_vsec > 1.0, "20k packets over an hour exceed 1/vsec");
    }

    #[test]
    fn suite_is_deterministic_for_a_seed() {
        let a = run_trace_overhead(300, 7);
        let b = run_trace_overhead(300, 7);
        assert_eq!((a.packets, a.flows, a.syns), (b.packets, b.flows, b.syns));
        assert_eq!(a.wire_mb.to_bits(), b.wire_mb.to_bits());
        assert_eq!(a.overhead_ratio.to_bits(), b.overhead_ratio.to_bits());
        assert_eq!(a.packets_per_vsec.to_bits(), b.packets_per_vsec.to_bits());
        // The serialised dump is byte-identical too (wall secs are skipped)
        // — the exact property the CI determinism leg `cmp`s.
        assert_eq!(crate::report::Report::to_json(&a), crate::report::Report::to_json(&b));
        // A different seed reshuffles the timeline the packets ride on.
        let c = run_trace_overhead(300, 8);
        assert_ne!(a.packets_per_vsec.to_bits(), c.packets_per_vsec.to_bits());
    }
}
