//! # cloudsim-storage
//!
//! The storage-engine substrate behind the simulated personal cloud storage
//! services.
//!
//! The IMC'13 paper probes five *client capabilities* (§4): chunking,
//! bundling, client-side deduplication, delta encoding and (smart)
//! compression. For the capability detectors of the benchmark suite to have
//! something real to discover, this crate provides functional implementations
//! of each mechanism rather than behavioural flags:
//!
//! * [`hash`] — SHA-256 content hashing (the basis of dedup and delta),
//! * [`chunker`] — fixed-size and content-defined chunking,
//! * [`mod@compress`] — an LZSS compressor with *always* / *smart* (magic-number
//!   aware) / *never* policies, mirroring Dropbox vs. Google Drive vs. the
//!   rest (§4.5), and the [`SizeMemo`] through which a run LZSS-counts each
//!   distinct content once,
//! * [`delta`] — an rsync-style rolling-hash delta encoder (Dropbox is the
//!   only service that implements it, §4.4),
//! * [`encrypt`] — convergent client-side encryption (Wuala's privacy layer,
//!   which keeps dedup possible because identical plaintexts yield identical
//!   ciphertexts, §4.3),
//! * [`store`] — the server-side object store the simulated services
//!   commit uploads to (a content-addressed chunk table with inter-user
//!   deduplication plus per-user file manifests and held chunks, behind one
//!   lock; a client that deduplicates, as Dropbox and Wuala do, §4.3, asks
//!   it which chunks its account holds),
//! * [`pipeline`] — the zero-copy upload pipeline that runs chunking,
//!   hashing, delta estimation and compression over borrowed slices with
//!   preallocated per-worker scratch, fanned out across chunks and files
//!   when the batch is large enough and the caller is not already a fan-out
//!   worker,
//! * [`restore`] — the download direction: a restore pipeline, run through
//!   the upload pipeline's per-chunk stage, that reads manifests back out of
//!   the store, skips chunks the client already holds, downloads deltas
//!   against locally held bases, prices full downloads with the LZSS size
//!   count through the run's size memo and reassembles byte-identical,
//!   SHA-256-checked
//!   content (failing with typed errors, not panics, on hard-deleted
//!   manifests).

// Denied, not forbidden: `hash.rs` allows it for one statement, the call into
// the SHA-extension kernel behind the CPU feature test (CI counts the allows).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod chunker;
pub mod compress;
pub mod delta;
pub mod encrypt;
pub mod hash;
pub mod pipeline;
pub mod restore;
pub mod store;

#[doc(hidden)]
pub mod perf_pins;

pub use chunker::{Chunk, ChunkingStrategy};
pub use compress::{compress, decompress, CompressionPolicy, SizeMemo};
pub use delta::{DeltaScript, Signature};
pub use encrypt::ConvergentCipher;
pub use hash::{sha256, ContentHash};
pub use pipeline::{FileArtifacts, FileJob, PipelineSpec};
pub use restore::{RestoreError, RestoreRequest, RestoreSource, RestoredChunk, RestoredFile};
pub use store::{
    AggregateStats, FileManifest, GcPolicy, ObjectStore, PathId, StoreFootprint, StoredChunk,
    UserId,
};

#[doc(hidden)]
pub use perf_pins::{RestorePipeline, UploadPipeline};
