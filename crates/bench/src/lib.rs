//! # cloudbench-bench
//!
//! Benchmark harness for the IMC'13 reproduction.
//!
//! * [`suites`] is the suite table: one row per `repro` target, carrying
//!   its name, flags, gate-key prefixes, `all` membership, CI determinism
//!   target and the two function pointers that run it (command-line size →
//!   text and JSON; gate size → gate metrics). Adding a suite is its module
//!   in `crates/core/src`, its `pub mod` line and one row here.
//! * The `repro` binary dispatches over that table: it regenerates every
//!   table and figure of the paper from freshly simulated measurements
//!   (`cargo run -p cloudbench-bench --bin repro -- all`), runs the
//!   beyond-paper suites, and prints the table for CI (`repro suites`).
//! * [`metrics`] holds the gate-point sizes and `collect`, the loop over
//!   the table behind `repro bench-json`, and the gate: a test that
//!   compares the rendered metrics with the committed `bench_baseline.json`
//!   byte for byte. [`gate`] renders and parses that flat file.
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
