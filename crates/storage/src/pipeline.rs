//! The zero-copy upload pipeline.
//!
//! The paper's capability experiments (§4, Figs. 4–6) all flow through the
//! client-side processing chain — chunk → hash → dedup probe → delta →
//! compress — and a realistic benchmark harness must not be bottlenecked on
//! that chain running single-threaded with per-call scratch allocations.
//! This module makes the chain a first-class, measured subsystem:
//!
//! * **Zero-copy**: every stage works on borrowed slices of the original
//!   file content ([`FileJob`] holds `&[u8]`); nothing is copied until a
//!   result must be owned.
//! * **Preallocated scratch**: each worker codes with a
//!   [`crate::compress::LzssScratch`] the calling thread owns and lends it,
//!   so the LZSS coder performs no per-chunk heap allocation and no table is
//!   allocated on a spawned thread; the content-defined chunker reads a
//!   `static` gear table.
//! * **Fanned out where it pays**: work is spread across *chunks and files*
//!   by `cloudsim_parallel` — first the per-file boundary scans, then the
//!   flattened `(file, chunk)` hash/delta/size-count units, so one huge file
//!   parallelises as well as many small ones — and a chunk coded on the
//!   calling thread splits its LZSS size count across the cores in turn
//!   ([`crate::compress::LzssScratch::upload_size`]). How many threads a
//!   stage gets is worked out, never chosen, by
//!   [`cloudsim_parallel::auto_workers`]: one when its work is under
//!   `PARALLEL_THRESHOLD_BYTES` — content bytes for the scans, and for the
//!   chunk units content bytes plus `LZSS_BYTE_COST` per byte the policy
//!   codes — one when the caller is already a fan-out worker (a fleet wave,
//!   a benchmark cell), the host's cores otherwise.
//! * **One per-chunk stage for both directions**: the chunk units are
//!   flattened, weighed, fanned out and regrouped per file by one helper,
//!   `per_chunk`, which the restore pipeline ([`crate::restore`]) calls
//!   too. A full download is priced by the same size count as a full
//!   upload, so the two directions differ only in what they do per chunk.
//! * **Each content counted once per run**: both directions price a chunk
//!   the policy codes through the run's [`SizeMemo`], keyed by its
//!   SHA-256, so content the run already counted — Google Drive's copy of
//!   a file Dropbox synced, a base synced again, a restore of an uploaded
//!   chunk — is looked up, not counted. [`UploadPipeline::process`] counts
//!   on a fresh memo.
//! * **Deterministic**: workers tag every result with its work-item index
//!   and the merge step reassembles them in file/chunk order, so the
//!   produced artifacts — and therefore every downstream byte count — do not
//!   depend on the thread count. A test compares a top-level call with the
//!   same call nested in a worker.
//!
//! The pipeline computes the *pure* per-chunk quantities (hash, compressed
//! upload size, candidate delta estimate). The stateful decisions — dedup
//! index queries, server commits — stay sequential in
//! `cloudsim_services::UploadPlanner`, which consumes these artifacts in
//! deterministic file order.

use crate::chunker::{Chunk, ChunkSpan, ChunkingStrategy};
use crate::compress::{with_lent, CompressionPolicy, LzssScratch, SizeMemo};
use crate::delta::{DeltaScript, Signature};
use crate::hash::ContentHash;
use cloudsim_parallel::{auto_workers, run_indexed, run_with_contexts};

/// Batches with less work than this run on the calling thread: the
/// scoped-thread fan-out costs more than the work. Counted in hashed bytes
/// — a batch's content bytes for the boundary scans, plus `LZSS_BYTE_COST`
/// per coded byte for the per-chunk stage of either direction.
pub(crate) const PARALLEL_THRESHOLD_BYTES: u64 = 4 * 1024 * 1024;

/// What counting one byte through the LZSS coder costs, in hashed bytes:
/// about 25 ns against 1 ns (SHA-256 on the CPU's extensions) on the
/// benchmark host. A batch that codes more than ~160 kB fans out.
///
/// That holds for content that can shrink. Random bytes are settled by the
/// coder's repeat pass without a parse (see
/// [`crate::compress::LzssScratch`]), at about 3 ns per byte, so a batch
/// of them fans out sooner than its work alone would call for. The weight
/// does not look at the content and stays one figure.
const LZSS_BYTE_COST: u64 = 25;

/// What the pipeline computes per chunk (see [`ChunkArtifacts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEstimate {
    /// Wire size of the delta script against the previous revision's
    /// same-index chunk.
    pub wire_bytes: u64,
    /// Wire size of the block signature the client must download/compare
    /// (control-plane cost of the delta protocol).
    pub signature_bytes: u64,
}

/// Per-chunk pipeline output: identity plus the byte counts every upload
/// decision needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkArtifacts {
    /// The chunk (offset, length, SHA-256).
    pub chunk: Chunk,
    /// Bytes a full upload of this chunk would transfer under the service's
    /// compression policy. `0` when the estimate is provably never read:
    /// the chunk was skipped by the known-chunk filter of
    /// [`UploadPipeline::process_filtered`] (a dedup hit uploads nothing) or
    /// its [`DeltaEstimate`] already wins over any full upload.
    pub full_upload_bytes: u64,
    /// Candidate delta transfer, present only when the service delta-encodes
    /// and the previous revision has a differing same-index chunk (and the
    /// chunk was not skipped by the known-chunk filter).
    pub delta: Option<DeltaEstimate>,
}

/// Per-file pipeline output, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileArtifacts {
    /// Chunk artifacts in chunk order.
    pub chunks: Vec<ChunkArtifacts>,
}

impl FileArtifacts {
    /// The plain [`Chunk`] list (identical to what
    /// [`ChunkingStrategy::chunk`] returns for the same content).
    pub fn chunk_list(&self) -> Vec<Chunk> {
        self.chunks.iter().map(|c| c.chunk.clone()).collect()
    }
}

/// One file to process: borrowed content plus the borrowed previous revision
/// (when the service delta-encodes and the path has history).
#[derive(Debug, Clone, Copy)]
pub struct FileJob<'a> {
    /// The new revision's content.
    pub content: &'a [u8],
    /// The previous revision the server holds for this path, if any.
    pub previous: Option<&'a [u8]>,
}

/// The capability parameters the pipeline applies (a projection of the
/// service profile that `cloudsim_storage` can see without depending on the
/// services crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Chunking strategy.
    pub chunking: ChunkingStrategy,
    /// Compression policy for full chunk uploads.
    pub compression: CompressionPolicy,
    /// Whether the service delta-encodes modified files.
    pub delta_encoding: bool,
}

/// The upload pipeline: a value without state (the coder scratch is the
/// calling thread's, lent to the workers). `sequential()`, `parallel()` and
/// `default()` are names for it that `perf/` imports; none of them chooses
/// anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UploadPipeline;

impl UploadPipeline {
    /// The pipeline; the same value as [`UploadPipeline::parallel`].
    pub fn sequential() -> UploadPipeline {
        UploadPipeline
    }

    /// The pipeline; the same value as [`UploadPipeline::default`].
    pub fn parallel() -> UploadPipeline {
        UploadPipeline
    }

    /// Runs the full chain over a batch of files, returning artifacts in
    /// file order. It prices through a fresh [`SizeMemo`], so every coded
    /// content of the batch is counted.
    pub fn process(&self, spec: &PipelineSpec, jobs: &[FileJob<'_>]) -> Vec<FileArtifacts> {
        self.process_filtered(spec, jobs, &|_| false, &SizeMemo::new())
    }

    /// [`UploadPipeline::process`] with a *known-chunk filter*: chunks whose
    /// hash the filter recognises (typically a read-only dedup-index lookup)
    /// skip the expensive upload estimates — a dedup hit uploads nothing, so
    /// neither the compressed size nor a delta script would ever be read.
    /// The filter sees the batch's *initial* state only (it must be pure);
    /// chunks that become duplicates within the batch still carry estimates,
    /// which the merge step simply ignores. A chunk the policy codes is
    /// priced through `sizes`, the run's size memo: a content the run
    /// counted before is not counted again.
    pub fn process_filtered(
        &self,
        spec: &PipelineSpec,
        jobs: &[FileJob<'_>],
        known: &(dyn Fn(&ContentHash) -> bool + Sync),
        sizes: &SizeMemo,
    ) -> Vec<FileArtifacts> {
        let total_bytes: u64 = jobs.iter().map(|j| j.content.len() as u64).sum();

        // Stage 1 — boundary scans, fanned out over files: spans of the new
        // revision, plus spans of the previous revision when delta encoding
        // will want same-index chunk pairs.
        let boundaries: Vec<(Vec<ChunkSpan>, Vec<ChunkSpan>)> = run_indexed(
            auto_workers(jobs.len(), total_bytes, PARALLEL_THRESHOLD_BYTES),
            jobs.len(),
            || (),
            |(), file_idx| {
                let job = &jobs[file_idx];
                let new_spans = spec.chunking.spans(job.content);
                let old_spans = match (spec.delta_encoding, job.previous) {
                    (true, Some(old)) => spec.chunking.spans(old),
                    _ => Vec::new(),
                };
                (new_spans, old_spans)
            },
        );

        // Stage 2 — the per-chunk stage: SHA-256, then (unless the chunk is
        // already known to the server) LZSS size count and delta estimate.
        let counts: Vec<usize> = boundaries.iter().map(|(new_spans, _)| new_spans.len()).collect();
        let data = |file_idx: usize, chunk_idx: usize| {
            &jobs[file_idx].content[boundaries[file_idx].0[chunk_idx].range()]
        };
        let chunks = per_chunk(spec.compression, &counts, data, |scratch, file_idx, chunk_idx| {
            let (new_spans, old_spans) = &boundaries[file_idx];
            let span = new_spans[chunk_idx];
            let data = data(file_idx, chunk_idx);
            let chunk = Chunk::from_slice(span.offset, data);
            if known(&chunk.hash) {
                return ChunkArtifacts { chunk, full_upload_bytes: 0, delta: None };
            }
            let delta = match (jobs[file_idx].previous, old_spans.get(chunk_idx)) {
                (Some(old), Some(old_span)) => {
                    let old_data = &old[old_span.range()];
                    if old_data != data {
                        let signature = Signature::new(old_data);
                        let script = DeltaScript::compute(&signature, data);
                        Some(DeltaEstimate {
                            wire_bytes: script.wire_size(),
                            signature_bytes: signature.wire_size(),
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            // A winning delta (the merge step's condition) means the full
            // upload size is never read — skip the LZSS pass entirely,
            // matching the old sequential planner's early return.
            let full_upload_bytes = match delta {
                Some(est) if est.wire_bytes < span.len => 0,
                _ => sizes.upload_size(spec.compression, scratch, &chunk.hash, data),
            };
            ChunkArtifacts { chunk, full_upload_bytes, delta }
        });
        chunks.into_iter().map(|chunks| FileArtifacts { chunks }).collect()
    }
}

/// The per-chunk stage of both byte pipelines: runs `chunk(scratch, file,
/// index)` for every chunk of a batch of files (`counts[file]` chunks
/// each) and returns the results per file, in chunk order.
///
/// The fan-out weighs each chunk in hashed bytes: the `bytes(file, index)`
/// it hashes, plus `LZSS_BYTE_COST` per byte if the policy codes them.
/// One worker runs on the calling thread, where a large chunk's size count
/// splits in turn; more borrow the calling thread's lent scratches, so no
/// coder table is allocated on a spawned thread.
pub(crate) fn per_chunk<'a, T: Send>(
    compression: CompressionPolicy,
    counts: &[usize],
    bytes: impl Fn(usize, usize) -> &'a [u8],
    chunk: impl Fn(&mut LzssScratch, usize, usize) -> T + Sync,
) -> Vec<Vec<T>> {
    let units: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(file, &n)| (0..n).map(move |index| (file, index)))
        .collect();
    let work: u64 = units
        .iter()
        .map(|&(file, index)| {
            let data = bytes(file, index);
            data.len() as u64 * (1 + LZSS_BYTE_COST * u64::from(compression.compresses(data)))
        })
        .sum();
    let workers = auto_workers(units.len(), work, PARALLEL_THRESHOLD_BYTES);
    let mut own = LzssScratch::new();
    let results = with_lent(&mut own, workers - 1, |scratches| {
        run_with_contexts(scratches, units.len(), |scratch, unit| {
            let (file, index) = units[unit];
            chunk(scratch, file, index)
        })
    });
    let mut results = results.into_iter();
    counts.iter().map(|&n| results.by_ref().take(n).collect()).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread;

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

    fn text(len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            out.extend_from_slice(b"benchmarking personal cloud storage services ");
        }
        out.truncate(len);
        out
    }

    fn spec() -> PipelineSpec {
        PipelineSpec {
            chunking: ChunkingStrategy::Fixed { size: 256 * 1024 },
            compression: CompressionPolicy::Always,
            delta_encoding: true,
        }
    }

    /// The harness of both pipelines' thread-count tests: runs `batch` at
    /// top level and again nested in a fan-out worker, checks the two
    /// results equal and returns one. `batch` calls the `note` it is handed
    /// from every unit of work, on the thread doing it: at top level none of
    /// those may be the caller's (the batch fanned out), nested all of them
    /// must be the worker's (`cloudsim_parallel` ran it inline). `None` on a
    /// one-core host, where there is no fan-out to compare.
    pub(crate) fn top_level_equals_nested<T: PartialEq + std::fmt::Debug + Send>(
        batch: impl Fn(&(dyn Fn() + Sync)) -> T + Sync,
    ) -> Option<T> {
        if cloudsim_parallel::available_workers() < 2 {
            println!("skipped: one core");
            return None;
        }
        let run = || {
            let threads = Mutex::new(HashSet::new());
            let out = batch(&|| {
                threads.lock().unwrap().insert(thread::current().id());
            });
            (out, threads.into_inner().unwrap())
        };
        let (top_level, threads) = run();
        assert!(!threads.contains(&thread::current().id()), "over the threshold: fanned out");
        let nested = run_indexed(
            2,
            2,
            || (),
            |(), i| {
                (i == 0).then(|| {
                    let (out, threads) = run();
                    assert_eq!(threads, HashSet::from([thread::current().id()]), "inline");
                    out
                })
            },
        );
        assert_eq!(nested[0].as_ref(), Some(&top_level));
        Some(top_level)
    }

    /// Artifacts do not depend on the thread count: one batch just over the
    /// threshold, a delta job and a known-chunk filter included. The filter
    /// runs once per chunk on the thread that hashes it.
    #[test]
    fn parallel_and_sequential_artifacts_are_identical() {
        let file_a = pseudo_random(3_000_000, 2);
        let file_b = pseudo_random(1_000_000, 3);
        let mut file_b_v2 = file_b.clone();
        file_b_v2.extend_from_slice(&pseudo_random(50_000, 4));
        let file_c = text(300_000);
        let jobs = [
            FileJob { content: &file_a, previous: None },
            FileJob { content: &file_b_v2, previous: Some(&file_b) },
            FileJob { content: &file_c, previous: None },
            FileJob { content: &[], previous: None },
        ];
        let total: u64 = jobs.iter().map(|j| j.content.len() as u64).sum();
        assert!((PARALLEL_THRESHOLD_BYTES..PARALLEL_THRESHOLD_BYTES * 2).contains(&total));
        let spec = spec();
        let known_hash = crate::hash::sha256(&file_a[..256 * 1024]);
        let Some(artifacts) = top_level_equals_nested(|note| {
            let known = |hash: &ContentHash| {
                note();
                *hash == known_hash
            };
            UploadPipeline.process_filtered(&spec, &jobs, &known, &SizeMemo::new())
        }) else {
            return;
        };
        assert_eq!(artifacts[0].chunks[0].full_upload_bytes, 0, "the filter's hit");
        assert!(artifacts[1].chunks.iter().any(|c| c.delta.is_some()), "the delta job");
    }

    /// The chunk fan-out counts work, not bytes: 400 kB the policy codes is
    /// over the threshold (a coded byte costs `LZSS_BYTE_COST` hashed ones),
    /// the same bytes under `Never` are not.
    #[test]
    fn coded_batches_fan_out_far_below_the_byte_threshold() {
        let files: Vec<Vec<u8>> = (0..8).map(|i| text(50_000 + i)).collect();
        let jobs: Vec<FileJob<'_>> =
            files.iter().map(|content| FileJob { content, previous: None }).collect();
        let coded = spec();
        top_level_equals_nested(|note| {
            let known = |_: &ContentHash| {
                note();
                false
            };
            UploadPipeline.process_filtered(&coded, &jobs, &known, &SizeMemo::new())
        });
        let plain = PipelineSpec { compression: CompressionPolicy::Never, ..coded };
        let threads = Mutex::new(HashSet::new());
        let known = |_: &ContentHash| {
            threads.lock().unwrap().insert(thread::current().id());
            false
        };
        UploadPipeline.process_filtered(&plain, &jobs, &known, &SizeMemo::new());
        assert_eq!(threads.into_inner().unwrap(), HashSet::from([thread::current().id()]));
    }

    #[test]
    fn artifacts_match_the_standalone_substrates() {
        let content = pseudo_random(900_000, 9);
        let jobs = vec![FileJob { content: &content, previous: None }];
        let spec = spec();
        let arts = UploadPipeline.process(&spec, &jobs);
        assert_eq!(arts.len(), 1);
        assert_eq!(arts[0].chunk_list(), spec.chunking.chunk(&content));
        for art in &arts[0].chunks {
            let data =
                &content[art.chunk.offset as usize..(art.chunk.offset + art.chunk.len) as usize];
            assert_eq!(art.full_upload_bytes, spec.compression.upload_size(data));
            assert!(art.delta.is_none());
        }
    }

    /// The size memo changes no artifact: Dropbox's spec, then Google
    /// Drive's, over the same files on one memo (the second call reads the
    /// first's counts) equal the same calls on fresh memos.
    #[test]
    fn a_shared_size_memo_changes_no_artifact() {
        let mut fake_jpeg = b"\xFF\xD8\xFF\xE0".to_vec();
        fake_jpeg.extend_from_slice(&text(90_000));
        let files = [text(300_000), pseudo_random(200_000, 12), fake_jpeg];
        let jobs: Vec<FileJob<'_>> =
            files.iter().map(|content| FileJob { content, previous: None }).collect();
        let dropbox = PipelineSpec {
            chunking: ChunkingStrategy::DROPBOX,
            compression: CompressionPolicy::Always,
            delta_encoding: true,
        };
        let google_drive = PipelineSpec {
            chunking: ChunkingStrategy::GOOGLE_DRIVE,
            compression: CompressionPolicy::Smart,
            delta_encoding: false,
        };
        let shared = SizeMemo::new();
        for spec in [dropbox, google_drive] {
            let fresh = UploadPipeline.process_filtered(&spec, &jobs, &|_| false, &SizeMemo::new());
            assert_eq!(UploadPipeline.process_filtered(&spec, &jobs, &|_| false, &shared), fresh);
        }
        // Google Drive skipped the JPEG and counted nothing new.
        let total: u64 = files.iter().map(|f| f.len() as u64).sum();
        assert_eq!(shared.offered_bytes(), 2 * total - files[2].len() as u64);
        assert_eq!(shared.distinct_bytes(), total);
    }

    #[test]
    fn delta_estimates_appear_only_for_differing_same_index_chunks() {
        let old = pseudo_random(600_000, 5);
        let mut new = old.clone();
        // Mutate only the second 256 kB chunk.
        for b in &mut new[300_000..300_100] {
            *b ^= 0xFF;
        }
        let jobs = vec![FileJob { content: &new, previous: Some(&old) }];
        let arts = UploadPipeline.process(&spec(), &jobs);
        let chunks = &arts[0].chunks;
        assert_eq!(chunks.len(), 3);
        assert!(chunks[0].delta.is_none(), "identical chunk needs no delta");
        let est = chunks[1].delta.expect("modified chunk must carry a delta estimate");
        assert!(est.wire_bytes < chunks[1].chunk.len, "delta must beat a full upload");
        assert!(chunks[2].delta.is_none());
    }

    #[test]
    fn no_delta_estimates_when_the_capability_is_off() {
        let old = pseudo_random(100_000, 6);
        let new = pseudo_random(100_000, 7);
        let jobs = vec![FileJob { content: &new, previous: Some(&old) }];
        let mut spec = spec();
        spec.delta_encoding = false;
        let arts = UploadPipeline.process(&spec, &jobs);
        assert!(arts[0].chunks.iter().all(|c| c.delta.is_none()));
    }

    #[test]
    fn known_chunk_filter_skips_estimates_without_changing_identity() {
        let content = pseudo_random(600_000, 11);
        let jobs = vec![FileJob { content: &content, previous: None }];
        let spec = spec();
        let unfiltered = UploadPipeline.process(&spec, &jobs);
        // Mark the middle chunk as already known to the server.
        let known_hash = unfiltered[0].chunks[1].chunk.hash;
        let filtered =
            UploadPipeline.process_filtered(&spec, &jobs, &|h| *h == known_hash, &SizeMemo::new());
        assert_eq!(filtered[0].chunk_list(), unfiltered[0].chunk_list());
        assert_eq!(filtered[0].chunks[1].full_upload_bytes, 0, "skipped estimate");
        assert!(filtered[0].chunks[1].delta.is_none());
        assert_eq!(filtered[0].chunks[0], unfiltered[0].chunks[0]);
        assert_eq!(filtered[0].chunks[2], unfiltered[0].chunks[2]);
    }
}
