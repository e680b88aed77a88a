//! # cloudsim-workload
//!
//! Workload generation for the cloud-storage benchmarks.
//!
//! The testing application of the IMC'13 study generates "specific workloads
//! in the form of file batches" (§2): text files composed of random words
//! from a dictionary, random binary files, and *fake JPEGs* (JPEG header,
//! text body) used to probe smart compression (§4.5). No experiment behind
//! the paper's figures uses §2's images with random pixels, so none are
//! generated. The performance benchmarks of §5 then vary the number of files,
//! file sizes and file types (1×100 kB, 1×1 MB, 10×100 kB, 100×10 kB), and
//! the capability tests of §4 additionally mutate files (append, or insert
//! at a random offset), copy them between folders, delete and restore them.
//!
//! * [`dictionary`] — the embedded word list and text synthesis,
//! * [`generator`] — content generators for each [`FileKind`],
//! * [`batch`] — batch specifications, including the paper's standard
//!   workloads,
//! * [`mutate`] — file mutation operators used by the delta-encoding test,
//! * [`seed`] — the workspace's one source of randomness: the seed
//!   derivation every draw (batch content, churn, restore fans, temporal
//!   and outage schedules) shares, and the stream behind content bytes and
//!   RTT jitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod batch;
pub mod dictionary;
pub mod generator;
pub mod mutate;
pub mod seed;

pub use batch::{BatchSpec, GeneratedFile};
pub use generator::{generate, FileKind};
pub use mutate::Mutation;
