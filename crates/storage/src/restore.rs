//! The download/restore pipeline.
//!
//! The upload pipeline covers one direction of the sync protocol; the
//! paper's capability and performance analysis (§4, §6) covers both. This
//! module is the way back down: given a manifest committed to the
//! [`ObjectStore`], reconstruct the file's exact bytes on a client — the
//! delete/restore test of §4.3 and the download half of the §6 performance
//! discussion.
//!
//! The pipeline mirrors the upload side's capabilities in reverse:
//!
//! * **Dedup-aware**: chunks the restoring client already holds locally (its
//!   own uploads, or content pulled in an earlier restore) are *not*
//!   re-downloaded — the cross-user savings of a shared pool apply on the
//!   down path too.
//! * **Delta-aware**: when the client holds a base revision of the path and
//!   the service delta-encodes, the server sends an rsync-style script
//!   against the same-index base chunk instead of the full chunk, whenever
//!   that is smaller.
//! * **Priced, not produced, on the wire**: a full chunk download travels
//!   in the service's compression encoding, and what it costs
//!   (`download_bytes`) is what
//!   [`crate::compress::CompressionPolicy::upload_size_with`] says for the
//!   bytes. The run's [`SizeMemo`] answers when the run counted them before
//!   (an upload of the same content, typically); otherwise they are counted
//!   on a scratch the calling thread lends, and the count enters the memo
//!   only once the served bytes hashed to the manifest hash. That price is
//!   what the delta script has to beat. The plaintext a client would decode is the stored payload
//!   itself, so once it is SHA-256-checked against the manifest's hash the
//!   stored handle is served: nothing is encoded or decoded.
//! * **One copy per byte**: a chunk the client already holds and a
//!   downloaded chunk are both appended to the file straight from their
//!   shared handles, a one-chunk delta download *is* its applied buffer,
//!   and [`RestoredFile::content`] sits behind an [`Arc`] so the client can
//!   keep it as the next delta base without cloning it.
//! * **Deterministic**: per-chunk work is pure and runs in the upload
//!   pipeline's per-chunk stage, which regroups it in file/chunk order, so
//!   content *and* byte counts do not depend on how many threads the
//!   fan-out got (one below the shared threshold or inside another
//!   fan-out's worker, the host's cores otherwise). Property tests assert
//!   upload→restore round-trips exactly.
//!
//! Every [`RestoredChunk`] carries its manifest hash and plaintext length;
//! the services layer's ranged download verifies the reassembled file
//! against exactly those, chunk by chunk, in a single further pass.
//!
//! Failure is a value, not a panic: restoring a manifest that a churning
//! fleet hard-deleted (or whose chunks GC reclaimed) returns a typed
//! [`RestoreError`], and the store's aggregate counters are untouched —
//! restores are pure reads.

use crate::chunker::ChunkSpan;
use crate::compress::{LzssScratch, SizeMemo};
use crate::delta::{DeltaScript, Signature};
use crate::hash::ContentHash;
use crate::pipeline::{per_chunk, PipelineSpec};
use crate::store::{FileManifest, ObjectStore};
use std::sync::Arc;

/// Why a restore could not reconstruct a file. Every variant names the
/// owner/path (and chunk where applicable) so a fleet harness can log the
/// failure and move on — the GC-vs-restore race of a churning fleet is an
/// expected outcome, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The owner has no live manifest at this path (never uploaded, soft- or
    /// hard-deleted, or the whole namespace was purged).
    ManifestMissing {
        /// User whose namespace was asked.
        user: String,
        /// Path that had no live manifest.
        path: String,
    },
    /// The manifest references a chunk the physical store no longer holds
    /// (hard-deleted and garbage-collected between the manifest read and the
    /// chunk fetch, or an inconsistent commit).
    ChunkMissing {
        /// User whose file was being restored.
        user: String,
        /// Path being restored.
        path: String,
        /// The missing chunk.
        hash: ContentHash,
    },
    /// The chunk exists but was committed without a payload (metadata-only
    /// simulation path), so its bytes cannot be served.
    PayloadUnavailable {
        /// User whose file was being restored.
        user: String,
        /// Path being restored.
        path: String,
        /// The payload-less chunk.
        hash: ContentHash,
    },
    /// The served bytes do not hash to the manifest's hash for the chunk.
    Corrupt {
        /// User whose file was being restored.
        user: String,
        /// Path being restored.
        path: String,
        /// The chunk that failed verification.
        hash: ContentHash,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ManifestMissing { user, path } => {
                write!(f, "no live manifest for {user}:{path}")
            }
            RestoreError::ChunkMissing { user, path, hash } => {
                write!(f, "chunk {hash} of {user}:{path} is gone from the store")
            }
            RestoreError::PayloadUnavailable { user, path, hash } => {
                write!(f, "chunk {hash} of {user}:{path} has no stored payload")
            }
            RestoreError::Corrupt { user, path, hash } => {
                write!(f, "chunk {hash} of {user}:{path} failed verification")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Where a restored chunk's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreSource {
    /// The restoring client already held the chunk — nothing travelled.
    LocalCopy,
    /// A delta script against a locally held base chunk travelled.
    Delta,
    /// The full chunk travelled in the service's compression encoding.
    Download,
}

/// One chunk of a restored file: identity plus what its reconstruction cost
/// on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoredChunk {
    /// Content hash of the chunk.
    pub hash: ContentHash,
    /// Plaintext length of the chunk.
    pub plain_len: u64,
    /// Payload bytes that travelled downstream for this chunk (0 for local
    /// copies).
    pub download_bytes: u64,
    /// How the chunk was reconstructed.
    pub source: RestoreSource,
}

/// A fully reconstructed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredFile {
    /// The user whose namespace the manifest came from.
    pub owner: String,
    /// Path of the file inside the owner's synced folder.
    pub path: String,
    /// Manifest version that was restored.
    pub version: u64,
    /// The reconstructed content — byte-identical to what was uploaded.
    /// Behind an [`Arc`] so a client can keep it as the base revision of a
    /// later delta download without copying it.
    pub content: Arc<Vec<u8>>,
    /// Per-chunk reconstruction records, in file order.
    pub chunks: Vec<RestoredChunk>,
    /// Control-plane bytes the restore cost (manifest fetch, chunk list).
    pub metadata_bytes: u64,
}

impl RestoredFile {
    /// Payload bytes that travelled downstream for this file.
    pub fn download_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.download_bytes).sum()
    }

    /// Plaintext size of the restored file.
    pub fn logical_bytes(&self) -> u64 {
        self.content.len() as u64
    }

    /// Plaintext bytes the local-copy dedup check spared the wire.
    pub fn dedup_skipped_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.source == RestoreSource::LocalCopy)
            .map(|c| c.plain_len)
            .sum()
    }
}

/// One file to restore: whose manifest, which path, and (optionally) a base
/// revision the restoring client still holds locally — the delta download's
/// reference, exactly mirroring [`crate::pipeline::FileJob::previous`].
#[derive(Debug, Clone, Copy)]
pub struct RestoreRequest<'a> {
    /// The user whose namespace holds the manifest (not necessarily the
    /// restoring client's own account — fleets pull other users' content).
    pub owner: &'a str,
    /// Path of the file inside the owner's synced folder.
    pub path: &'a str,
    /// A base revision of the path the restoring client holds locally, if
    /// any (enables delta downloads when the service delta-encodes).
    pub base: Option<&'a [u8]>,
}

/// A local chunk lookup: returns the plaintext of a chunk the restoring
/// client already holds, or `None`. Must be pure for the duration of one
/// [`RestorePipeline::restore_batch`] call.
pub type LocalChunks<'a> = &'a (dyn Fn(&ContentHash) -> Option<Arc<[u8]>> + Sync);

/// The restore pipeline: a value without state (the coder scratch is the
/// calling thread's, lent to the workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestorePipeline;

/// Everything stage 1 needs about one file, fetched under the store locks.
struct FetchedFile {
    manifest: FileManifest,
    /// Physical payloads in chunk order (`None` where the store had none).
    payloads: Vec<Option<Arc<[u8]>>>,
    /// Whether each payload-less chunk at least exists physically (separates
    /// [`RestoreError::PayloadUnavailable`] from [`RestoreError::ChunkMissing`]).
    present: Vec<bool>,
    /// Chunk spans of the base revision, when one was supplied and the
    /// service delta-encodes.
    base_spans: Vec<ChunkSpan>,
}

impl RestorePipeline {
    /// The pipeline; the same value as [`RestorePipeline::default`].
    pub fn parallel() -> RestorePipeline {
        RestorePipeline
    }

    /// Restores a batch of files, returning one result per request in
    /// request order. The store is only read, never written. It prices
    /// through a fresh [`SizeMemo`], so every coded download is counted.
    pub fn restore_batch(
        &self,
        store: &ObjectStore,
        spec: &PipelineSpec,
        requests: &[RestoreRequest<'_>],
        local: LocalChunks<'_>,
    ) -> Vec<Result<RestoredFile, RestoreError>> {
        self.restore_batch_with(store, spec, requests, local, &SizeMemo::new())
    }

    /// [`RestorePipeline::restore_batch`] pricing full downloads through
    /// `sizes`, the run's size memo: a content the run counted before is
    /// not counted again, and a count made here is recorded once the
    /// served bytes passed their SHA-256 check.
    pub fn restore_batch_with(
        &self,
        store: &ObjectStore,
        spec: &PipelineSpec,
        requests: &[RestoreRequest<'_>],
        local: LocalChunks<'_>,
        sizes: &SizeMemo,
    ) -> Vec<Result<RestoredFile, RestoreError>> {
        // Stage 0 — fetch manifests and payload handles under the store
        // locks, sequentially (lock acquisition stays out of the fan-out).
        let fetched: Vec<Result<FetchedFile, RestoreError>> = requests
            .iter()
            .map(|req| {
                let Some(manifest) = store.manifest(req.owner, req.path) else {
                    return Err(RestoreError::ManifestMissing {
                        user: req.owner.to_string(),
                        path: req.path.to_string(),
                    });
                };
                let payloads: Vec<Option<Arc<[u8]>>> =
                    manifest.chunks.iter().map(|h| store.chunk_payload(h)).collect();
                let present: Vec<bool> = manifest
                    .chunks
                    .iter()
                    .zip(&payloads)
                    .map(|(h, p)| p.is_some() || store.has_chunk_globally(h))
                    .collect();
                let base_spans = match (spec.delta_encoding, req.base) {
                    (true, Some(base)) => spec.chunking.spans(base),
                    _ => Vec::new(),
                };
                Ok(FetchedFile { manifest, payloads, present, base_spans })
            })
            .collect();

        // Stage 1 — the per-chunk stage the upload pipeline runs too:
        // local-copy check, delta against the base chunk, or full download
        // (priced by the compression policy's size count, through the memo).
        let counts: Vec<usize> =
            fetched.iter().map(|f| f.as_ref().map_or(0, |f| f.manifest.chunks.len())).collect();
        let file =
            |file_idx: usize| fetched[file_idx].as_ref().expect("only fetched files have chunks");
        let payload = |file_idx: usize, chunk_idx: usize| {
            file(file_idx).payloads[chunk_idx].as_deref().unwrap_or_default()
        };
        let outcomes =
            per_chunk(spec.compression, &counts, payload, |scratch, file_idx, chunk_idx| {
                let (req, file) = (&requests[file_idx], file(file_idx));
                restore_chunk(spec, req, file, chunk_idx, local, scratch, sizes)
            });

        // Merge — reassemble each file in chunk order; its first failing
        // chunk decides its error. A one-chunk delta download adopts its
        // applied buffer; every other byte is appended once, straight from
        // the handle it lies behind.
        fetched
            .into_iter()
            .zip(requests)
            .zip(outcomes)
            .map(|((file, req), outcomes)| {
                let manifest = file?.manifest;
                let mut content = match manifest.chunks.len() {
                    0 | 1 => Vec::new(),
                    _ => Vec::with_capacity(manifest.size as usize),
                };
                let mut chunks = Vec::with_capacity(outcomes.len());
                for outcome in outcomes {
                    let (bytes, chunk) = outcome?;
                    match bytes {
                        ChunkBytes::Owned(bytes) if content.capacity() == 0 => content = bytes,
                        ChunkBytes::Owned(bytes) => content.extend_from_slice(&bytes),
                        ChunkBytes::Shared(bytes) => content.extend_from_slice(&bytes),
                    }
                    chunks.push(chunk);
                }
                Ok(RestoredFile {
                    owner: req.owner.to_string(),
                    path: req.path.to_string(),
                    version: manifest.version,
                    content: Arc::new(content),
                    chunks,
                    // Manifest envelope plus one hash record per chunk,
                    // mirroring the upload planner's accounting.
                    metadata_bytes: 300 + 40 * manifest.chunks.len() as u64,
                })
            })
            .collect()
    }
}

/// A reconstructed chunk's plaintext on its way into the file.
enum ChunkBytes {
    /// A handle on bytes that already exist — the client's local copy or
    /// the store's payload: appended, never cloned.
    Shared(Arc<[u8]>),
    /// A delta script applied to the base chunk; a one-chunk file takes it
    /// whole.
    Owned(Vec<u8>),
}

/// Reconstructs one chunk. Pure: depends only on the fetched state, the
/// request and the spec, so the fan-out order cannot leak into the result.
/// A full download is priced through the run's size memo and served from
/// the stored payload, so nothing is encoded or decoded.
fn restore_chunk(
    spec: &PipelineSpec,
    req: &RestoreRequest<'_>,
    file: &FetchedFile,
    chunk_idx: usize,
    local: LocalChunks<'_>,
    scratch: &mut LzssScratch,
    sizes: &SizeMemo,
) -> Result<(ChunkBytes, RestoredChunk), RestoreError> {
    let hash = file.manifest.chunks[chunk_idx];
    // Dedup on the down path: a chunk the client already holds (its own
    // uploads or an earlier restore) costs nothing on the wire.
    if let Some(bytes) = local(&hash) {
        let chunk = RestoredChunk {
            hash,
            plain_len: bytes.len() as u64,
            download_bytes: 0,
            source: RestoreSource::LocalCopy,
        };
        return Ok((ChunkBytes::Shared(bytes), chunk));
    }

    let corrupt =
        || RestoreError::Corrupt { user: req.owner.to_string(), path: req.path.to_string(), hash };
    let Some(stored) = &file.payloads[chunk_idx] else {
        let err = if file.present[chunk_idx] {
            RestoreError::PayloadUnavailable {
                user: req.owner.to_string(),
                path: req.path.to_string(),
                hash,
            }
        } else {
            RestoreError::ChunkMissing {
                user: req.owner.to_string(),
                path: req.path.to_string(),
                hash,
            }
        };
        return Err(err);
    };
    let payload: &[u8] = stored;
    // No payload pre-verification here: whichever branch wins below hashes
    // the content it serves against `hash`, which covers a corrupt stored
    // payload too — hashing it twice would only slow the hot per-chunk
    // path down.

    // What the full download costs on the wire: the size count of the
    // payload under the policy, from the memo when the run counted the
    // content before. A count made here is recorded only once the served
    // bytes hashed to `hash`; a corrupt payload priced from the true
    // content's count still ends in `Corrupt` on either branch.
    let (full_wire, counted) = sizes.price(spec.compression, scratch, &hash, payload);
    let record = || {
        if let Some(count) = counted {
            sizes.record(hash, payload.len(), count);
        }
    };

    // Delta download: the server diffs the target chunk against the
    // same-index chunk of the base revision the client still holds, and
    // sends the script when it beats the full (compressed) transfer.
    if let (Some(base), Some(span)) = (req.base, file.base_spans.get(chunk_idx)) {
        let base_chunk = &base[span.range()];
        if base_chunk != payload {
            let signature = Signature::new(base_chunk);
            let script = DeltaScript::compute(&signature, payload);
            if script.wire_size() < full_wire {
                let content = script.apply(base_chunk);
                if crate::hash::sha256(&content) != hash {
                    return Err(corrupt());
                }
                // The script rebuilt the payload, and it verified.
                record();
                let chunk = RestoredChunk {
                    hash,
                    plain_len: content.len() as u64,
                    download_bytes: script.wire_size(),
                    source: RestoreSource::Delta,
                };
                return Ok((ChunkBytes::Owned(content), chunk));
            }
        }
    }

    // Full download: the stored payload is the plaintext it decodes to;
    // verify it before serving its handle.
    if crate::hash::sha256(payload) != hash {
        return Err(corrupt());
    }
    record();
    let chunk = RestoredChunk {
        hash,
        plain_len: payload.len() as u64,
        download_bytes: full_wire,
        source: RestoreSource::Download,
    };
    Ok((ChunkBytes::Shared(stored.clone()), chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::ChunkingStrategy;
    use crate::compress::CompressionPolicy;
    use crate::hash::sha256;
    use crate::pipeline::{FileJob, UploadPipeline};
    use crate::store::{GcPolicy, StoredChunk};

    /// One request through [`RestorePipeline::restore_batch`].
    fn restore_file(
        store: &ObjectStore,
        spec: &PipelineSpec,
        request: RestoreRequest<'_>,
        local: LocalChunks<'_>,
    ) -> Result<RestoredFile, RestoreError> {
        RestorePipeline.restore_batch(store, spec, &[request], local).pop().unwrap()
    }

    fn spec() -> PipelineSpec {
        PipelineSpec {
            chunking: ChunkingStrategy::Fixed { size: 64 * 1024 },
            compression: CompressionPolicy::Always,
            delta_encoding: true,
        }
    }

    fn no_local(_: &ContentHash) -> Option<Arc<[u8]>> {
        None
    }

    fn text(len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            out.extend_from_slice(b"personal cloud storage restore path ");
        }
        out.truncate(len);
        out
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xD1B54A32D192ED03) | 1;
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Uploads `content` as `user:path` with payloads, mirroring how the
    /// services planner commits (chunk, put with payload, manifest).
    fn upload(store: &ObjectStore, spec: &PipelineSpec, user: &str, path: &str, content: &[u8]) {
        let chunks = spec.chunking.chunk(content);
        for chunk in &chunks {
            let data = &content[chunk.offset as usize..chunk.end() as usize];
            store.put_chunk_with_payload(
                user,
                StoredChunk {
                    hash: chunk.hash,
                    stored_len: chunk.len.max(1),
                    plain_len: chunk.len,
                },
                data,
            );
        }
        let manifest = FileManifest::from_chunks(path, &chunks, 0);
        store.commit_manifest(user, manifest);
    }

    #[test]
    fn upload_restore_round_trips_byte_identically() {
        let store = ObjectStore::new();
        let spec = spec();
        let content = text(200_000);
        upload(&store, &spec, "alice", "docs/a.txt", &content);
        let restored = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "docs/a.txt", base: None },
            &no_local,
        )
        .unwrap();
        assert_eq!(*restored.content, content);
        assert_eq!(restored.owner, "alice");
        assert_eq!(restored.version, 1);
        assert_eq!(restored.chunks.len(), 4);
        assert!(restored.chunks.iter().all(|c| c.source == RestoreSource::Download));
        // Compressible text travels compressed on the down path too.
        assert!(restored.download_bytes() < content.len() as u64 / 2);
        assert_eq!(restored.logical_bytes(), content.len() as u64);
        assert!(restored.metadata_bytes >= 300);
    }

    /// Restored files do not depend on the thread count: one batch just over
    /// the threshold, a local copy, a delta base and a missing manifest
    /// included. The local-chunk lookup runs once per chunk on the thread
    /// that rebuilds it.
    #[test]
    fn parallel_and_sequential_restores_are_bit_identical() {
        use crate::pipeline::{tests::top_level_equals_nested, PARALLEL_THRESHOLD_BYTES};

        let store = ObjectStore::new();
        let spec = spec();
        let a = text(300_000);
        let b = pseudo_random(4_000_000, 3);
        upload(&store, &spec, "alice", "a.txt", &a);
        upload(&store, &spec, "alice", "b.bin", &b);
        assert!((a.len() + b.len()) as u64 >= PARALLEL_THRESHOLD_BYTES);
        let mut base = b.clone();
        for byte in &mut base[100_000..100_500] {
            *byte ^= 0xFF;
        }
        let held = sha256(&a[..64 * 1024]);
        let held_bytes: Arc<[u8]> = Arc::from(&a[..64 * 1024]);
        let requests = [
            RestoreRequest { owner: "alice", path: "a.txt", base: None },
            RestoreRequest { owner: "alice", path: "b.bin", base: Some(&base) },
            RestoreRequest { owner: "alice", path: "missing.bin", base: None },
        ];
        let Some(restored) = top_level_equals_nested(|note| {
            RestorePipeline.restore_batch(&store, &spec, &requests, &|hash| {
                note();
                (*hash == held).then(|| held_bytes.clone())
            })
        }) else {
            return;
        };
        let file_a = restored[0].as_ref().unwrap();
        let file_b = restored[1].as_ref().unwrap();
        assert_eq!((&*file_a.content, &*file_b.content), (&a, &b));
        assert_eq!(file_a.chunks[0].source, RestoreSource::LocalCopy);
        assert_eq!(file_b.chunks[1].source, RestoreSource::Delta);
        assert!(matches!(restored[2], Err(RestoreError::ManifestMissing { .. })));
    }

    #[test]
    fn local_copies_cost_nothing_on_the_wire() {
        let store = ObjectStore::new();
        let spec = spec();
        let content = pseudo_random(150_000, 9);
        upload(&store, &spec, "alice", "shared.bin", &content);

        // The restoring client already holds every chunk (e.g. the shared
        // pool uploaded from its own folder).
        let chunks = spec.chunking.chunk(&content);
        let local: std::collections::HashMap<ContentHash, Arc<[u8]>> = chunks
            .iter()
            .map(|c| (c.hash, Arc::from(&content[c.offset as usize..c.end() as usize])))
            .collect();
        let restored = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "shared.bin", base: None },
            &|h| local.get(h).cloned(),
        )
        .unwrap();
        assert_eq!(*restored.content, content);
        assert_eq!(restored.download_bytes(), 0);
        assert_eq!(restored.dedup_skipped_bytes(), content.len() as u64);
        assert!(restored.chunks.iter().all(|c| c.source == RestoreSource::LocalCopy));
    }

    #[test]
    fn delta_downloads_track_the_modification_size() {
        let store = ObjectStore::new();
        let spec = spec();
        let base = pseudo_random(256 * 1024, 5);
        let mut new = base.clone();
        for b in &mut new[1000..2000] {
            *b ^= 0xFF;
        }
        upload(&store, &spec, "alice", "doc.bin", &new);
        let restored = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "doc.bin", base: Some(&base) },
            &no_local,
        )
        .unwrap();
        assert_eq!(*restored.content, new);
        // Only the first 64 kB chunk differs; it travels as a delta far
        // smaller than the chunk, the rest as identical-chunk deltas or
        // plain downloads of identical content… identical same-index chunks
        // short-circuit to full downloads of incompressible data, so check
        // the modified chunk specifically.
        assert_eq!(restored.chunks[0].source, RestoreSource::Delta);
        assert!(
            restored.chunks[0].download_bytes < 10_000,
            "delta should track the 1 kB flip, got {}",
            restored.chunks[0].download_bytes
        );
    }

    #[test]
    fn restore_after_hard_delete_returns_a_typed_error() {
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let spec = spec();
        let content = pseudo_random(100_000, 7);
        upload(&store, &spec, "alice", "gone.bin", &content);
        let before = store.aggregate();
        store.delete_manifest("alice", "gone.bin").unwrap();

        let err = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "gone.bin", base: None },
            &no_local,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RestoreError::ManifestMissing { user: "alice".into(), path: "gone.bin".into() }
        );
        assert!(!err.to_string().is_empty());

        // Purging the whole namespace behaves the same.
        store.purge_user("alice");
        let err = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "gone.bin", base: None },
            &no_local,
        )
        .unwrap_err();
        assert!(matches!(err, RestoreError::ManifestMissing { .. }));

        // Restores are pure reads: counters moved only by the deletes, and
        // nothing went negative.
        let after = store.aggregate();
        assert_eq!(after.referenced_bytes, 0);
        assert_eq!(after.physical_bytes, 0);
        assert_eq!(after.chunk_puts, before.chunk_puts);
        assert_eq!(after.server_dedup_hits, before.server_dedup_hits);
    }

    #[test]
    fn payload_less_chunks_report_payload_unavailable() {
        let store = ObjectStore::new();
        let spec = spec();
        let data = b"metadata only commit".to_vec();
        let hash = sha256(&data);
        store.put_chunk(
            "alice",
            StoredChunk { hash, stored_len: data.len() as u64, plain_len: data.len() as u64 },
        );
        store.commit_manifest(
            "alice",
            FileManifest {
                path: "m.bin".into(),
                size: data.len() as u64,
                chunks: vec![hash],
                version: 0,
            },
        );
        let err = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "m.bin", base: None },
            &no_local,
        )
        .unwrap_err();
        assert!(matches!(err, RestoreError::PayloadUnavailable { .. }), "{err}");
        // A local copy still reconstructs a payload-less chunk.
        let bytes: Arc<[u8]> = Arc::from(&data[..]);
        let restored = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "m.bin", base: None },
            &|h| (*h == hash).then(|| bytes.clone()),
        )
        .unwrap();
        assert_eq!(*restored.content, data);
    }

    /// The store does not verify what it is handed, so a payload that does
    /// not hash to its manifest hash can be committed. The restore's
    /// SHA-256 check is what keeps it from being served, whether it would
    /// travel whole or as a delta against a base. It also keeps the corrupt
    /// payload's count out of the run's size memo, and a memo that already
    /// holds the true content's count changes no verdict.
    #[test]
    fn a_payload_that_fails_its_hash_is_corrupt() {
        let store = ObjectStore::new();
        let spec = spec();
        let good = pseudo_random(40_000, 13);
        let hash = sha256(&good);
        let mut bad = good.clone();
        bad[20_000] ^= 0xFF;
        store.put_chunk_with_payload(
            "alice",
            StoredChunk { hash, stored_len: 40_000, plain_len: 40_000 },
            &bad,
        );
        store.commit_manifest(
            "alice",
            FileManifest { path: "c.bin".into(), size: 40_000, chunks: vec![hash], version: 0 },
        );
        // A base one byte away from the stored payload: its delta script
        // beats the full download.
        let mut near = bad.clone();
        near[100] ^= 0xFF;
        let script = DeltaScript::compute(&Signature::new(&near), &bad);
        assert!(script.wire_size() < spec.compression.upload_size(&bad));
        let knows_the_truth = SizeMemo::new();
        knows_the_truth.record(hash, good.len(), LzssScratch::new().count(&good));
        let corrupt = RestoreError::Corrupt { user: "alice".into(), path: "c.bin".into(), hash };
        for base in [None, Some(&near[..])] {
            let fresh = SizeMemo::new();
            for sizes in [&fresh, &knows_the_truth] {
                let request = RestoreRequest { owner: "alice", path: "c.bin", base };
                let err = RestorePipeline
                    .restore_batch_with(&store, &spec, &[request], &no_local, sizes)
                    .pop()
                    .expect("one result per request")
                    .unwrap_err();
                assert_eq!(err, corrupt, "base: {}", base.is_some());
                assert!(err.to_string().ends_with("failed verification"), "{err}");
            }
            // The payload was counted, but its count never entered the memo.
            assert_eq!(fresh.offered_bytes(), bad.len() as u64);
            assert!(!fresh.holds(&hash) && fresh.distinct_bytes() == 0, "base: {}", base.is_some());
        }
    }

    #[test]
    fn cross_user_restores_read_the_owners_namespace() {
        let store = ObjectStore::new();
        let spec = spec();
        let content = text(120_000);
        upload(&store, &spec, "bob", "folder/report.txt", &content);
        // Alice pulls Bob's file; her own namespace stays empty.
        let restored = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "bob", path: "folder/report.txt", base: None },
            &no_local,
        )
        .unwrap();
        assert_eq!(*restored.content, content);
        assert_eq!(restored.owner, "bob");
        assert_eq!(store.stats("alice").chunks, 0);
        // The wrong owner gets a typed miss, not Bob's bytes.
        let err = restore_file(
            &store,
            &spec,
            RestoreRequest { owner: "alice", path: "folder/report.txt", base: None },
            &no_local,
        )
        .unwrap_err();
        assert!(matches!(err, RestoreError::ManifestMissing { .. }));
    }

    #[test]
    fn never_and_smart_policies_serve_uncompressed_wire_forms() {
        for compression in [CompressionPolicy::Never, CompressionPolicy::Smart] {
            let spec = PipelineSpec { compression, ..spec() };
            let store = ObjectStore::new();
            let mut fake_jpeg = b"\xFF\xD8\xFF\xE0".to_vec();
            fake_jpeg.extend_from_slice(&text(50_000));
            upload(&store, &spec, "alice", "photo.jpg", &fake_jpeg);
            let restored = restore_file(
                &store,
                &spec,
                RestoreRequest { owner: "alice", path: "photo.jpg", base: None },
                &no_local,
            )
            .unwrap();
            assert_eq!(*restored.content, fake_jpeg, "{compression:?}");
            // Neither policy compresses a (fake) JPEG: full size travels.
            assert!(
                restored.download_bytes() >= fake_jpeg.len() as u64,
                "{compression:?}: {}",
                restored.download_bytes()
            );
        }
    }

    #[test]
    fn one_encode_prices_and_serves_the_full_download() {
        // Every policy × every payload kind of Fig. 5, one chunk per file:
        // a full download costs exactly what the upload side's
        // `upload_size` says for the same bytes, the delta decision is
        // taken against that same figure, and either way the served
        // content is the payload.
        let mut fake_jpeg = b"\xFF\xD8\xFF\xE0".to_vec();
        fake_jpeg.extend_from_slice(&text(40_000));
        let payloads =
            [("text", text(40_000)), ("random", pseudo_random(40_000, 21)), ("jpeg", fake_jpeg)];
        let (mut delta_won, mut delta_lost) = (0, 0);
        for compression in
            [CompressionPolicy::Never, CompressionPolicy::Always, CompressionPolicy::Smart]
        {
            let spec = PipelineSpec { compression, ..spec() };
            for (kind, payload) in &payloads {
                let store = ObjectStore::new();
                upload(&store, &spec, "alice", "f", payload);
                let full = compression.upload_size(payload);
                // A base differing in a few bytes (delta wins), an
                // unrelated one (its script carries the whole chunk as
                // literals), and none.
                let mut near = payload.clone();
                near[20_000] ^= 0xFF;
                let far = pseudo_random(40_000, 99);
                for base in [None, Some(&near), Some(&far)] {
                    let restored = restore_file(
                        &store,
                        &spec,
                        RestoreRequest { owner: "alice", path: "f", base: base.map(|b| &b[..]) },
                        &no_local,
                    )
                    .unwrap();
                    let label = format!("{compression:?}/{kind}/base={}", base.is_some());
                    assert_eq!(*restored.content, *payload, "{label}");
                    let delta = base.map(|b| DeltaScript::compute(&Signature::new(b), payload));
                    let expected = match delta {
                        Some(script) if script.wire_size() < full => {
                            (RestoreSource::Delta, script.wire_size())
                        }
                        _ => (RestoreSource::Download, full),
                    };
                    let chunk = restored.chunks[0];
                    assert_eq!((chunk.source, chunk.download_bytes), expected, "{label}");
                    match (base, chunk.source) {
                        (Some(_), RestoreSource::Delta) => delta_won += 1,
                        (Some(_), _) => delta_lost += 1,
                        (None, _) => {}
                    }
                }
            }
        }
        // Both branches ran with a base on offer — including the cell where
        // a near-identical base still loses to the compressed download.
        assert!(delta_won > 0 && delta_lost > 0, "{delta_won} won, {delta_lost} lost");
    }

    #[test]
    fn upload_pipeline_artifacts_restore_identically() {
        // End-to-end over the two pipelines: process a batch with the
        // upload pipeline, commit it with payloads, restore it back.
        let spec = spec();
        let store = ObjectStore::new();
        let contents: Vec<Vec<u8>> =
            (0..4).map(|i| pseudo_random(80_000 + i * 30_000, 40 + i as u64)).collect();
        let jobs: Vec<FileJob<'_>> =
            contents.iter().map(|c| FileJob { content: c, previous: None }).collect();
        let artifacts = UploadPipeline.process(&spec, &jobs);
        for (i, (content, file)) in contents.iter().zip(&artifacts).enumerate() {
            let path = format!("f{i}.bin");
            for art in &file.chunks {
                let data = &content[art.chunk.offset as usize..art.chunk.end() as usize];
                store.put_chunk_with_payload(
                    "alice",
                    StoredChunk {
                        hash: art.chunk.hash,
                        stored_len: art.full_upload_bytes.max(1),
                        plain_len: art.chunk.len,
                    },
                    data,
                );
            }
            store.commit_manifest("alice", FileManifest::from_chunks(&path, &file.chunk_list(), 0));
        }
        for (i, content) in contents.iter().enumerate() {
            let path = format!("f{i}.bin");
            let restored = restore_file(
                &store,
                &spec,
                RestoreRequest { owner: "alice", path: &path, base: None },
                &no_local,
            )
            .unwrap();
            assert_eq!(&*restored.content, content, "{path}");
        }
    }
}
