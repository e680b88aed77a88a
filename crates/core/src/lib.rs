//! # cloudbench
//!
//! Benchmarking personal cloud storage — a full reproduction of the
//! methodology of Drago et al., *Benchmarking Personal Cloud Storage*,
//! IMC 2013 (DOI 10.1145/2504730.2504762), over a simulated substrate.
//!
//! The paper's contribution is a methodology with three legs, each of which is
//! a module here:
//!
//! 1. **Architecture discovery** ([`architecture`]): resolve each service's
//!    DNS names from thousands of vantage points, identify address owners via
//!    whois and geolocate the front ends (§2.1, §3, Fig. 2).
//! 2. **Capability checks** ([`capability`]): crafted file batches reveal
//!    whether a client implements chunking, bundling, client-side
//!    deduplication, delta encoding and (smart) compression (§2.2, §4,
//!    Table 1, Fig. 3–5).
//! 3. **Performance benchmarks** ([`benchmarks`], [`idle`]): synchronisation
//!    start-up time, completion time and protocol overhead over the paper's
//!    workloads, each repeated many times (§2.3, §5, Fig. 1, Fig. 6).
//!
//! [`testbed`] wires the pieces together (it plays the role of the "testing
//! application" plus the instrumented test computer), and [`report`] renders
//! every table and figure of the paper from the measured data.
//!
//! Beyond the paper's single test computer, [`fleet`] scales the methodology
//! out: concurrent multi-client fleets committing into one shared object
//! store, measuring aggregate goodput, per-client completion-time
//! distributions and the server-side inter-user deduplication ratio as a
//! function of fleet size. [`hetero`] runs the scenario *matrix* on top:
//! mixed service profiles on mixed access links with seeded churn (joins and
//! leaves mid-run) against a garbage-collected store, comparing eager and
//! mark-sweep reclamation. [`restore`] opens the read path: downloader slots
//! pull other users' namespaces back through asymmetric links, measuring
//! restore goodput, time-to-first-byte and cross-user dedup savings on the
//! down direction. [`schedule`] gives the fleet its temporal shape: seeded
//! think-time distributions, idle rounds that pay §3.1 keep-alive
//! signalling, and intra-round arrival jitter on a virtual clock, measuring
//! start-up delay distributions, the concurrency high-water mark and the
//! background-vs-payload byte split. [`scale`] takes the final step to
//! provider scale: 100k+ lightweight clients on the discrete-event heap —
//! compact state records and metadata-only commits in place of full sync
//! clients — measuring commits per virtual second, the concurrency peak and
//! population-scale inter-user dedup (see `docs/ARCHITECTURE.md` for the
//! engine design). [`partition`] cuts that population into N disjoint
//! client sets, drives them in order over one shared store and merges the
//! results back bit-identically — the in-process seam for a distributed
//! agent/controller mode.
//! [`trace_overhead`] closes the observability loop: the same population
//! run with capture off and on, proving the trace recorder (one shard for
//! the whole run) is a pure observer and reporting the capture's
//! packet/flow/overhead figures.
//!
//! Each of these is one module holding the suite's result struct, its
//! runner, its text `report()` and its `gate_metrics()`; a suite is
//! registered by its `pub mod` line below and one row of the bench crate's
//! suite table, nowhere else (`docs/ARCHITECTURE.md`, "Adding a suite").
//!
//! ## Quick start
//!
//! ```
//! use cloudbench::testbed::Testbed;
//! use cloudsim_services::ServiceProfile;
//! use cloudsim_workload::{BatchSpec, FileKind};
//!
//! let testbed = Testbed::new(42);
//! let spec = BatchSpec::new(10, 10_000, FileKind::RandomBinary);
//! let run = testbed.run_sync(&ServiceProfile::dropbox(), &spec, 0);
//! assert!(run.completion_time().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod architecture;
pub mod benchmarks;
pub mod capability;
pub mod faults;
pub mod fleet;
pub mod hetero;
pub mod idle;
mod json;
pub mod partition;
pub mod report;
pub mod restore;
pub mod scale;
pub mod schedule;
pub mod testbed;
pub mod trace_overhead;

// The paper's own surface is re-exported at the root; the beyond-paper
// suites are reached through their modules.
pub use report::Report;
pub use testbed::Testbed;

// Re-exports that make the public API self-contained for downstream users.
pub use cloudsim_geo::Provider;
pub use cloudsim_services::ServiceProfile;
pub use cloudsim_workload::{BatchSpec, FileKind};

/// The JSON writer's rules one at a time; `json::tests` holds the whole
/// dump layout byte for byte.
#[cfg(test)]
mod tests {
    use crate::json::{Fields, ToJson};
    use cloudsim_trace::SimDuration;

    fn render(value: &dyn ToJson) -> String {
        let mut out = String::new();
        value.write_json(&mut out, 0);
        out
    }

    #[test]
    fn primitives_serialize() {
        assert_eq!(render(&5u64), "5");
        assert_eq!(render(&7usize), "7");
        assert_eq!(render(&true), "true");
        assert_eq!(render(&"x".to_string()), "\"x\"");
        assert_eq!(render(&f64::NAN), "null");
        assert_eq!(render(&SimDuration::from_millis(3)), "3000");
        assert_eq!(render(&vec![1u64, 2]), "[\n  1,\n  2\n]");
        assert_eq!(render(&(1u64, 2.5f64, false)), "[\n  1,\n  2.5,\n  false\n]");
    }

    #[test]
    fn pretty_format_matches_serde_json_style() {
        let name = "dropbox".to_string();
        let sizes = vec![1u64, 2];
        let fields: [(&str, &dyn ToJson); 3] =
            [("name", &name), ("bundling", &true), ("sizes", &sizes)];
        assert_eq!(
            render(&Fields(&fields)),
            "{\n  \"name\": \"dropbox\",\n  \"bundling\": true,\n  \"sizes\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(render(&"a\"b\n".to_string()), "\"a\\\"b\\n\"");
    }

    #[test]
    fn whole_floats_keep_a_decimal() {
        assert_eq!(render(&1.0f64), "1.0");
        assert_eq!(render(&1.5f64), "1.5");
    }

    /// Test builds run at `opt-level = 1` (the root `[profile.dev]`); the
    /// overflow checks of a debug build still fire there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "attempt to add with overflow")]
    fn debug_builds_still_check_overflow() {
        let _ = std::hint::black_box(u64::MAX) + 1;
    }
}
