//! Host-time benchmark of the cloudbench simulator.
//!
//! Everything here measures the simulator from outside, by timing calls
//! into the crates' public functions; nothing under `crates/` knows this
//! crate exists. Every metric is **host time or host memory**. Simulated
//! statistics are not metrics but checks: they must be bit-identical in
//! every iteration.
//!
//! See `README.md` for what each metric means and how the pieces fit.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod host;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod record;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
