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
//! out: concurrent multi-client fleets committing into one shared sharded
//! object store, measuring aggregate goodput, per-client completion-time
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
//! engine design). [`partition`] shards that population across N workers
//! over one shared store and merges the results back bit-identically —
//! the in-process seam for a distributed agent/controller mode.
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

pub mod architecture;
pub mod benchmarks;
pub mod capability;
pub mod faults;
pub mod fleet;
pub mod hetero;
pub mod idle;
pub mod partition;
pub mod report;
pub mod restore;
pub mod scale;
pub mod schedule;
pub mod testbed;
pub mod trace_overhead;

// The paper's own surface is re-exported at the root; the beyond-paper
// suites are reached through their modules.
pub use architecture::{discover_architecture, ArchitectureReport};
pub use benchmarks::{run_performance_suite, PerformanceRow, PerformanceSuite};
pub use capability::{CapabilityMatrix, ServiceCapabilities};
pub use idle::{idle_traffic_series, IdleSeries};
pub use report::Report;
pub use testbed::{ExperimentRun, Testbed};

// Re-exports that make the public API self-contained for downstream users.
pub use cloudsim_geo::Provider;
pub use cloudsim_services::ServiceProfile;
pub use cloudsim_workload::{BatchSpec, FileKind};
