//! What only `perf/` calls: the two pipeline values its `storage.*` rows
//! time, each method a one-line forward to the library's own entry point
//! on a fresh size memo. The values are re-exported at the crate root,
//! where `perf/` imports them. No library code outside a test calls into
//! this module (`tests/repo_rules.rs` checks); deleting it and re-pointing
//! `perf/`'s imports is ROADMAP item 1c.

use crate::compress::SizeMemo;
use crate::pipeline::{process_filtered, FileArtifacts, FileJob, PipelineSpec};
use crate::restore::{restore_batch_with, LocalChunks, RestoreError, RestoreRequest, RestoredFile};
use crate::store::ObjectStore;

/// The upload pipeline as `perf/` names it; it chooses nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadPipeline;

impl UploadPipeline {
    /// The pipeline.
    pub fn sequential() -> UploadPipeline {
        UploadPipeline
    }

    /// The same pipeline.
    pub fn parallel() -> UploadPipeline {
        UploadPipeline
    }

    /// [`process_filtered`] with no known chunks, on a fresh size memo.
    pub fn process(&self, spec: &PipelineSpec, jobs: &[FileJob<'_>]) -> Vec<FileArtifacts> {
        process_filtered(spec, jobs, &|_| false, &SizeMemo::new())
    }
}

/// The restore pipeline as `perf/` names it; it chooses nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestorePipeline;

impl RestorePipeline {
    /// The pipeline.
    pub fn parallel() -> RestorePipeline {
        RestorePipeline
    }

    /// [`restore_batch_with`] on a fresh size memo.
    pub fn restore_batch(
        &self,
        store: &ObjectStore,
        spec: &PipelineSpec,
        requests: &[RestoreRequest<'_>],
        local: LocalChunks<'_>,
    ) -> Vec<Result<RestoredFile, RestoreError>> {
        restore_batch_with(store, spec, requests, local, &SizeMemo::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::ChunkingStrategy;
    use crate::compress::CompressionPolicy;
    use crate::store::{FileManifest, StoredChunk};

    #[test]
    fn each_shim_returns_what_its_honest_function_returns() {
        let spec = PipelineSpec {
            chunking: ChunkingStrategy::Fixed { size: 16 * 1024 },
            compression: CompressionPolicy::Always,
            delta_encoding: true,
        };
        let text: Vec<u8> = (0..100_000u32).map(|i| b"pinned shim "[i as usize % 12]).collect();
        let noise: Vec<u8> = (0..70_000u64).map(|i| ((i * 2_654_435_761) >> 13) as u8).collect();
        let jobs = [
            FileJob { content: &text, previous: None },
            FileJob { content: &noise, previous: Some(&text) },
        ];
        let honest = process_filtered(&spec, &jobs, &|_| false, &SizeMemo::new());
        assert_eq!(UploadPipeline::sequential().process(&spec, &jobs), honest);
        assert_eq!(UploadPipeline::parallel().process(&spec, &jobs), honest);

        let store = ObjectStore::new();
        for (path, (job, file)) in ["t.txt", "n.bin"].into_iter().zip(jobs.iter().zip(&honest)) {
            for c in &file.chunks {
                let bytes = &job.content[c.chunk.offset as usize..c.chunk.end() as usize];
                let stored = StoredChunk {
                    hash: c.chunk.hash,
                    stored_len: c.full_upload_bytes.max(1),
                    plain_len: c.chunk.len,
                };
                store.put_chunk_with_payload("owner", stored, bytes);
            }
            store.commit_manifest("owner", FileManifest::from_chunks(path, &file.chunk_list(), 0));
        }
        let requests = [
            RestoreRequest { owner: "owner", path: "t.txt", base: None },
            RestoreRequest { owner: "owner", path: "n.bin", base: Some(&text) },
            RestoreRequest { owner: "owner", path: "gone", base: None },
        ];
        let honest = restore_batch_with(&store, &spec, &requests, &|_| None, &SizeMemo::new());
        let pinned = RestorePipeline::parallel().restore_batch(&store, &spec, &requests, &|_| None);
        assert_eq!(pinned, honest);
    }
}
