//! # cloudbench-bench
//!
//! Benchmark harness for the IMC'13 reproduction.
//!
//! * [`suites`] is the suite table: one row per `repro` target, carrying
//!   its name, flags, gate-key prefixes, `all` membership, the function
//!   that runs it (command line → text, dumps and gate metrics) and, for a
//!   gated row, the arguments of its gate point. Adding a suite is its
//!   module in `crates/core/src`, its `pub mod` line and one row here.
//! * The `repro` binary dispatches over that table: it regenerates every
//!   table and figure of the paper from freshly simulated measurements
//!   (`cargo run -p cloudbench-bench --bin repro -- all`), runs the
//!   beyond-paper suites, and lists the gated rows (`repro suites`).
//! * [`metrics`] holds `collect`, the loop behind `repro bench-json` that
//!   runs each gated row once at its gate arguments, and the tests that
//!   hold those runs to the committed `bench_baseline.json` (metrics) and
//!   to `tests/golden` (text and dumps), byte for byte. [`gate`] renders
//!   and parses the flat metric file.
//! * [`cli`] is the shared argument-parsing surface every `repro` target
//!   goes through: one `--json [PATH|-]` convention, strict counted flags,
//!   usage-on-error with exit 2.
//! * `tests/timing_bounds.rs` holds an ignored release test that bounds
//!   host time: the concurrent fleet against its sequential replay.
//!   Host-time measurement itself lives in the `perf/` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod gate;
pub mod metrics;
pub mod suites;

#[doc(hidden)]
pub mod perf_pins;

/// Shared helper: the default testbed seed used by the harness, so the repro
/// binary, the gate and the tests measure the same simulated universe.
pub const REPRO_SEED: u64 = 0x2013_1023;

/// Reduced repetition count of `repro fig6*` (the paper uses 24 per
/// experiment; the simulation is deterministic enough that 3 repetitions give
/// stable means for the tables while keeping bench time short).
pub const BENCH_REPETITIONS: usize = 3;
