//! Upload planning: how many bytes a client actually has to send.
//!
//! Given a file's new content and the client's knowledge of the server state,
//! the planner applies the service's capabilities in the order a real client
//! does — chunking, client-side deduplication, delta encoding against the
//! previous revision, compression (convergent encryption preserves sizes, so
//! it adds nothing to the count) — and returns the per-chunk byte counts
//! that must travel. The §4 capability tests and the
//! Fig. 4 / Fig. 5 byte-volume plots are direct observations of this logic
//! through the network trace.

use crate::profile::ServiceProfile;
use cloudsim_storage::{
    ContentHash, DedupIndex, FileArtifacts, FileJob, FileManifest, ObjectStore, PipelineSpec,
    RestoreError, RestorePipeline, RestoreRequest, RestoredFile, SizeMemo, StoredChunk,
    UploadPipeline,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The plan for one chunk of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Payload bytes that must be uploaded for this chunk (0 when the chunk is
    /// already on the server).
    pub upload_bytes: u64,
    /// Plaintext length of the chunk.
    pub plain_bytes: u64,
    /// True when client-side dedup avoided the upload entirely.
    pub deduplicated: bool,
    /// True when the chunk is transmitted as a delta against its previous
    /// revision rather than in full.
    pub delta_encoded: bool,
}

/// The plan for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilePlan {
    /// Path of the file.
    pub path: String,
    /// Plaintext size of the file.
    pub logical_bytes: u64,
    /// Per-chunk upload plans, in file order.
    pub chunks: Vec<ChunkPlan>,
    /// Metadata bytes exchanged with the control plane for this file
    /// (manifest, dedup queries, delta signatures).
    pub metadata_bytes: u64,
}

impl FilePlan {
    /// Total payload bytes that travel to the storage servers for this file.
    pub fn upload_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.upload_bytes).sum()
    }
}

/// One file the client holds locally: an own upload or pulled content.
#[derive(Debug)]
struct Held {
    /// Its chunk hashes in file order, so superseding or deleting the file
    /// releases exactly its references.
    hashes: Vec<ContentHash>,
    /// Its bytes, the base of the path's next delta — kept only when the
    /// service delta-encodes. A pulled file shares the allocation of the
    /// [`RestoredFile`] the pull returned.
    base: Option<Arc<Vec<u8>>>,
}

/// The stateful planner: one per (service, user account) pair.
#[derive(Debug)]
pub struct UploadPlanner {
    profile: ServiceProfile,
    store: ObjectStore,
    dedup: DedupIndex,
    /// The live revision of each own path, as the server knows it.
    own: HashMap<String, Held>,
    /// Content pulled down by restores, keyed `owner/path` (the planner's
    /// own namespace included when it restores itself).
    pulled: HashMap<String, Held>,
    /// The client's local chunk view: every chunk of every file it
    /// currently holds (own uploads + pulled content), with a count of the
    /// holding files. Maintained incrementally as files are committed,
    /// deleted, pulled and re-pulled — the restore pipeline's dedup check
    /// reads it directly instead of re-chunking the whole local state on
    /// every pull. The bytes are the store's own payload allocation where
    /// it has one.
    local_chunks: HashMap<ContentHash, (Arc<[u8]>, usize)>,
    /// The LZSS size counts of the run the planner belongs to, shared with
    /// the run's other clients (its own when it was built alone).
    sizes: Arc<SizeMemo>,
    user: String,
    /// Batches planned so far. The temporal fleet scheduler's invariant —
    /// idle rounds never touch the planner — is checked against this.
    batches_planned: usize,
}

impl UploadPlanner {
    /// Creates a planner for a fresh user account of the given service.
    pub fn new(profile: ServiceProfile) -> UploadPlanner {
        UploadPlanner::for_user(profile, UploadPipeline, ObjectStore::new(), "benchmark-user")
    }

    /// [`UploadPlanner::new`]. `_pipeline` is ignored: there is one
    /// [`UploadPipeline`] and nothing to choose about it.
    pub fn with_pipeline(profile: ServiceProfile, _pipeline: UploadPipeline) -> UploadPlanner {
        UploadPlanner::new(profile)
    }

    /// Creates a planner for a named user account committing into a shared
    /// (sharded) object store. This is the constructor the fleet harness
    /// uses: every client keeps its own client-side dedup index and delta
    /// state, while the server-side store is shared across the whole fleet
    /// so inter-user deduplication is exercised. `_pipeline` is ignored, as
    /// in [`UploadPlanner::with_pipeline`].
    pub fn for_user(
        profile: ServiceProfile,
        _pipeline: UploadPipeline,
        store: ObjectStore,
        user: &str,
    ) -> UploadPlanner {
        UploadPlanner {
            profile,
            store,
            dedup: DedupIndex::new(),
            own: HashMap::new(),
            pulled: HashMap::new(),
            local_chunks: HashMap::new(),
            sizes: Arc::new(SizeMemo::new()),
            user: user.to_string(),
            batches_planned: 0,
        }
    }

    /// This planner, pricing its uploads and downloads through `sizes` —
    /// the size memo of the run it belongs to — instead of a memo of its
    /// own.
    pub fn with_size_memo(mut self, sizes: Arc<SizeMemo>) -> UploadPlanner {
        self.sizes = sizes;
        self
    }

    /// The user account this planner commits as.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The profile this planner applies.
    pub fn profile(&self) -> &ServiceProfile {
        &self.profile
    }

    /// The server-side object store backing the account.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Number of batches planned since the account was created. One sync
    /// activation plans exactly one batch; idle rounds plan none — the
    /// fleet's schedule accounting cross-checks against this counter.
    pub fn batches_planned(&self) -> usize {
        self.batches_planned
    }

    /// Plans (and commits) a batch of file revisions.
    ///
    /// The pure per-chunk work — chunking, SHA-256, candidate delta scripts,
    /// LZSS size counts (through the run's size memo) — runs through the
    /// [`UploadPipeline`] (fanned out across
    /// chunks and files when the batch is large and the caller is not
    /// already a fan-out worker). The stateful decisions — dedup index
    /// queries, server-side commits — are then applied sequentially in file
    /// order, so the resulting [`FilePlan`]s do not depend on the thread
    /// count, and are identical to planning the files one batch each.
    pub fn plan_batch(&mut self, files: &[(&str, &[u8])]) -> Vec<FilePlan> {
        self.batches_planned += 1;
        let spec = self.pipeline_spec();

        // The delta basis of each file: the server's previous revision of
        // its path — or, when the same path appears twice in one batch, the
        // most recent earlier occurrence (it will have been committed by the
        // time the later file is processed).
        let mut latest_in_batch: HashMap<&str, usize> = HashMap::new();
        let jobs: Vec<FileJob<'_>> = files
            .iter()
            .enumerate()
            .map(|(i, (path, content))| {
                let previous = match latest_in_batch.get(path) {
                    Some(&j) => Some(files[j].1),
                    None => Self::base_of(self.own.get(*path)),
                };
                latest_in_batch.insert(path, i);
                FileJob { content, previous }
            })
            .collect();

        // Known-chunk prefilter: when the service deduplicates client-side,
        // chunks already in the index at batch start are guaranteed dedup
        // hits (entries are never removed, §4.3), so the pipeline skips
        // their upload estimates. The merge step below re-checks against the
        // live index as state evolves within the batch.
        let (dedup, deduplicates) = (&self.dedup, self.profile.dedup);
        let known = |hash: &ContentHash| deduplicates && dedup.contains(hash);
        let artifacts = UploadPipeline.process_filtered(&spec, &jobs, &known, &self.sizes);

        files
            .iter()
            .zip(artifacts)
            .map(|((path, content), file_artifacts)| {
                self.commit_file(path, content, file_artifacts)
            })
            .collect()
    }

    /// Sequential merge step: consumes one file's pipeline artifacts, makes
    /// the stateful upload decisions and commits the results server-side.
    fn commit_file(&mut self, path: &str, content: &[u8], artifacts: FileArtifacts) -> FilePlan {
        let mut plans = Vec::with_capacity(artifacts.chunks.len());
        let mut metadata_bytes = 300u64; // manifest / commit envelope

        for art in &artifacts.chunks {
            let chunk = &art.chunk;
            // Dedup works on the plaintext hash: convergent encryption keeps
            // identical plaintexts identical on the wire (§4.3, Wuala).
            let already_stored = if self.profile.dedup {
                metadata_bytes += 40; // hash query per chunk
                self.dedup.check_and_record(&chunk.hash)
            } else {
                // Services without client-side dedup upload unconditionally,
                // even when the server already holds identical content.
                false
            };

            let plan = if already_stored {
                ChunkPlan {
                    upload_bytes: 0,
                    plain_bytes: chunk.len,
                    deduplicated: true,
                    delta_encoded: false,
                }
            } else {
                // Delta encoding: the pipeline estimated the script against
                // the same-index chunk of the previous revision of the *same
                // path* (how Dropbox's block-level sync behaves; shifted
                // content beyond a chunk boundary is re-sent, the Fig. 4
                // right-hand observation). The client only uses the delta
                // when it actually saves traffic; otherwise it falls back to
                // a full (compressed) upload.
                match art.delta {
                    Some(est) if est.wire_bytes < chunk.len => {
                        // Delta literals of the benchmark's random content do
                        // not compress, so the raw delta size is what travels
                        // (matching Fig. 4: uploaded volume ≈ modified data).
                        metadata_bytes += est.signature_bytes.min(4096);
                        ChunkPlan {
                            upload_bytes: est.wire_bytes,
                            plain_bytes: chunk.len,
                            deduplicated: false,
                            delta_encoded: true,
                        }
                    }
                    _ => ChunkPlan {
                        upload_bytes: art.full_upload_bytes,
                        plain_bytes: chunk.len,
                        deduplicated: false,
                        delta_encoded: false,
                    },
                }
            };

            // Commit the chunk server-side (the stored size is what we upload,
            // or the existing copy for dedup hits). The plaintext payload
            // rides along so the restore pipeline can serve the bytes back.
            if !already_stored {
                self.store.put_chunk_with_payload(
                    &self.user,
                    StoredChunk {
                        hash: chunk.hash,
                        stored_len: plan.upload_bytes.max(1),
                        plain_len: chunk.len,
                    },
                    &content[chunk.offset as usize..chunk.end() as usize],
                );
            }
            // Reference tracking happens for every service; the difference is
            // only whether the client *queries* the index before uploading.
            self.dedup.add_reference(chunk.hash);
            plans.push(plan);
        }

        if !artifacts.chunks.is_empty() {
            let manifest = FileManifest::from_chunks(path, &artifacts.chunk_list(), 0);
            self.store.commit_manifest(&self.user, manifest);
        }
        // The committed revision enters the local chunk view (hashes come
        // from the pipeline artifacts — nothing is re-hashed here); the
        // superseded revision's chunks leave it.
        let chunks = artifacts.chunks.iter().map(|a| (a.chunk.hash, a.chunk.len));
        self.hold(true, path.to_string(), chunks, content, || Arc::new(content.to_vec()));

        FilePlan {
            path: path.to_string(),
            logical_bytes: content.len() as u64,
            chunks: plans,
            metadata_bytes,
        }
    }

    /// Plans the deletion of a file: drops the manifest and the live
    /// references, but — like Dropbox and Wuala — keeps the chunk index so a
    /// later restore deduplicates (§4.3).
    pub fn plan_delete(&mut self, path: &str) {
        // The held record lists the live revision's chunk hashes in file
        // order — what re-chunking and re-hashing its bytes would give.
        if let Some(held) = self.own.remove(path) {
            for hash in &held.hashes {
                self.dedup.remove_reference(hash);
            }
            Self::release(&mut self.local_chunks, &held.hashes);
        }
        self.store.delete_file(&self.user, path);
    }

    /// Plans the restore of every live file of `owner` — the download
    /// mirror of [`UploadPlanner::plan_batch`]. Convenience wrapper over
    /// [`UploadPlanner::plan_restore_paths`] for the whole namespace.
    pub fn plan_restore_user(&mut self, owner: &str) -> Vec<Result<RestoredFile, RestoreError>> {
        let paths = self.store.list_files(owner);
        self.plan_restore_paths(owner, &paths)
    }

    /// Plans (and locally applies) the restore of `owner`'s files at the
    /// given paths. The restore pipeline runs in the same execution mode as
    /// the planner's upload pipeline; results are byte-identical either way.
    ///
    /// Capabilities mirror the upload direction:
    /// * chunks already in the client's local view (its own uploads or
    ///   earlier pulls) are not re-downloaded,
    /// * when the service delta-encodes and the client holds a base revision
    ///   of the path (its own previous upload for self-restores, the last
    ///   pulled revision for cross-user pulls), differing chunks travel as
    ///   delta scripts,
    /// * full downloads travel in the service's compression encoding.
    ///
    /// Successes are recorded in the planner's local view, so a repeat pull
    /// of unchanged content costs nothing on the wire. Failures (e.g. a
    /// manifest a churning owner hard-deleted) are typed values, never
    /// panics, and leave no local state behind.
    pub fn plan_restore_paths(
        &mut self,
        owner: &str,
        paths: &[String],
    ) -> Vec<Result<RestoredFile, RestoreError>> {
        let spec = self.pipeline_spec();
        let local = &self.local_chunks;
        let own = owner == self.user;
        let requests: Vec<RestoreRequest<'_>> = paths
            .iter()
            .map(|path| RestoreRequest {
                owner,
                path,
                base: Self::base_of(if own {
                    self.own.get(path)
                } else {
                    self.pulled.get(&format!("{owner}/{path}"))
                }),
            })
            .collect();
        let store = self.store.clone();
        let held = |hash: &ContentHash| local.get(hash).map(|(bytes, _)| bytes.clone());
        let results =
            RestorePipeline.restore_batch_with(&store, &spec, &requests, &held, &self.sizes);
        for restored in results.iter().flatten() {
            let chunks = restored.chunks.iter().map(|c| (c.hash, c.plain_len));
            let content = &restored.content;
            self.hold(false, format!("{owner}/{}", restored.path), chunks, content, || {
                content.clone()
            });
        }
        results
    }

    /// The profile's capabilities as both byte pipelines read them.
    fn pipeline_spec(&self) -> PipelineSpec {
        PipelineSpec {
            chunking: self.profile.chunking,
            compression: self.profile.compression,
            delta_encoding: self.profile.delta_encoding,
        }
    }

    /// The delta base a held file offers, if it kept one.
    fn base_of(held: Option<&Held>) -> Option<&[u8]> {
        Some(held?.base.as_ref()?.as_slice())
    }

    /// Releases one held file's chunk references; chunks no other held file
    /// shares leave the local view.
    fn release(
        local_chunks: &mut HashMap<ContentHash, (Arc<[u8]>, usize)>,
        hashes: &[ContentHash],
    ) {
        for hash in hashes {
            if let Some((_, refs)) = local_chunks.get_mut(hash) {
                *refs -= 1;
                if *refs == 0 {
                    local_chunks.remove(hash);
                }
            }
        }
    }

    /// Records (or replaces) one locally held file — `own` says in which
    /// table — and enters it in the chunk view: `chunks` are its chunk
    /// hashes and plaintext lengths, tiling `content` in file order. A chunk
    /// new to the view shares the store's payload (hash-equal, so the same
    /// bytes) instead of copying them out of `content`; the copy is for a
    /// chunk the store no longer serves, e.g. one a departing owner's purge
    /// reclaimed between the pull and this call. `base` is asked for the
    /// bytes only when the service delta-encodes (the restore pipeline
    /// ignores a base otherwise).
    fn hold(
        &mut self,
        own: bool,
        key: String,
        chunks: impl Iterator<Item = (ContentHash, u64)>,
        content: &[u8],
        base: impl FnOnce() -> Arc<Vec<u8>>,
    ) {
        let files = if own { &mut self.own } else { &mut self.pulled };
        if let Some(old) = files.remove(&key) {
            Self::release(&mut self.local_chunks, &old.hashes);
        }
        let store = &self.store;
        let mut hashes = Vec::with_capacity(chunks.size_hint().0);
        let mut offset = 0usize;
        for (hash, len) in chunks {
            let range = offset..offset + len as usize;
            offset = range.end;
            hashes.push(hash);
            let entry = self.local_chunks.entry(hash).or_insert_with(|| {
                let bytes = store.chunk_payload(&hash);
                (bytes.unwrap_or_else(|| Arc::from(&content[range])), 0)
            });
            entry.1 += 1;
        }
        files.insert(key, Held { hashes, base: self.profile.delta_encoding.then(base) });
    }

    /// Hard-deletes the whole account server-side: every live manifest is
    /// deleted (releasing its chunk references for the store's GC), retained
    /// revisions are purged, and the client-side dedup/delta state is reset.
    /// Returns the number of live manifests deleted. This is the departure
    /// path of a churning fleet client — the opposite of the §4.3
    /// retention-friendly [`UploadPlanner::plan_delete`].
    pub fn purge_account(&mut self) -> usize {
        let deleted = self.store.list_files(&self.user).len();
        // One namespace purge releases every live manifest plus whatever
        // retention kept (superseded or soft-deleted revisions) — identical
        // accounting to deleting the manifests one by one, without taking
        // the shard locks once per file.
        self.store.purge_user(&self.user);
        self.own.clear();
        self.pulled.clear();
        self.local_chunks.clear();
        self.dedup = DedupIndex::new();
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ServiceProfile;
    use cloudsim_workload::{generate, FileKind, Mutation};

    /// One file revision through [`UploadPlanner::plan_batch`].
    fn plan_file(planner: &mut UploadPlanner, path: &str, content: &[u8]) -> FilePlan {
        planner.plan_batch(&[(path, content)]).pop().unwrap()
    }

    /// True when every chunk was deduplicated (nothing travels to storage).
    fn fully_deduplicated(plan: &FilePlan) -> bool {
        !plan.chunks.is_empty() && plan.chunks.iter().all(|c| c.deduplicated)
    }

    /// Dedup queries answered from the index vs. uploads.
    fn dedup_stats(planner: &UploadPlanner) -> (u64, u64) {
        (planner.dedup.hits(), planner.dedup.misses())
    }

    #[test]
    fn plain_upload_moves_roughly_the_file_size() {
        for profile in [ServiceProfile::skydrive(), ServiceProfile::cloud_drive()] {
            let mut planner = UploadPlanner::new(profile.clone());
            let content = generate(FileKind::RandomBinary, 500_000, 1);
            let plan = plan_file(&mut planner, "a.bin", &content);
            assert_eq!(plan.logical_bytes, 500_000);
            let up = plan.upload_bytes();
            assert!((500_000..=502_000).contains(&up), "{}: uploaded {up}", profile.name());
            assert!(!fully_deduplicated(&plan));
        }
    }

    #[test]
    fn dropbox_compresses_text_but_not_random_data() {
        let mut planner = UploadPlanner::new(ServiceProfile::dropbox());
        let text = generate(FileKind::Text, 1_000_000, 2);
        let plan = plan_file(&mut planner, "notes.txt", &text);
        assert!(plan.upload_bytes() < 550_000, "text should compress: {}", plan.upload_bytes());

        let random = generate(FileKind::RandomBinary, 1_000_000, 3);
        let plan = plan_file(&mut planner, "noise.bin", &random);
        assert!(plan.upload_bytes() >= 1_000_000);
    }

    #[test]
    fn google_drive_skips_fake_jpegs_dropbox_does_not() {
        let fake = generate(FileKind::FakeJpeg, 800_000, 4);
        let mut gdrive = UploadPlanner::new(ServiceProfile::google_drive());
        let gplan = plan_file(&mut gdrive, "photo.jpg", &fake);
        assert_eq!(gplan.upload_bytes(), 800_000, "smart policy must skip JPEG headers");

        let mut dropbox = UploadPlanner::new(ServiceProfile::dropbox());
        let dplan = plan_file(&mut dropbox, "photo.jpg", &fake);
        assert!(dplan.upload_bytes() < 500_000, "Dropbox compresses even fake JPEGs");
    }

    #[test]
    fn dedup_detects_copies_and_survives_delete_restore() {
        let mut planner = UploadPlanner::new(ServiceProfile::wuala());
        let content = generate(FileKind::RandomBinary, 300_000, 5);
        let first = plan_file(&mut planner, "folder1/original.bin", &content);
        assert!(!fully_deduplicated(&first));
        assert!(first.upload_bytes() >= 300_000);

        // Same payload, different name, second folder.
        let copy = plan_file(&mut planner, "folder2/replica.bin", &content);
        assert!(fully_deduplicated(&copy));
        assert_eq!(copy.upload_bytes(), 0);

        // Copy to a third folder.
        let copy2 = plan_file(&mut planner, "folder3/copy.bin", &content);
        assert_eq!(copy2.upload_bytes(), 0);

        // Delete everything, then restore the original: still deduplicated.
        planner.plan_delete("folder1/original.bin");
        planner.plan_delete("folder2/replica.bin");
        planner.plan_delete("folder3/copy.bin");
        let restored = plan_file(&mut planner, "folder1/original.bin", &content);
        assert!(fully_deduplicated(&restored), "dedup must survive delete/restore");

        let (hits, misses) = dedup_stats(&planner);
        assert!(hits >= 3);
        assert_eq!(misses, 1);
    }

    /// `plan_delete` releases the live revision's references from the
    /// local view's hash list; the oracle re-chunks the bytes, as the
    /// planner itself used to. §4.3 for all five profiles: the delete moves
    /// no dedup counter, and the restore is free exactly where the service
    /// deduplicates.
    #[test]
    fn delete_releases_the_live_revisions_references_for_every_profile() {
        let a = generate(FileKind::RandomBinary, 300_000, 5);
        let b1 = generate(FileKind::Text, 120_000, 6);
        let b2 = Mutation::Append { len: 40_000 }.apply(&b1, 7);
        for profile in ServiceProfile::all() {
            let name = profile.name();
            let hashes = |content: &[u8]| -> Vec<ContentHash> {
                profile.chunking.chunk(content).iter().map(|c| c.hash).collect()
            };
            let mut planner = UploadPlanner::new(profile.clone());
            let mut expected: HashMap<ContentHash, u64> = HashMap::new();
            let uploads: [(&str, &[u8]); 4] =
                [("f/a.bin", &a), ("g/copy.bin", &a), ("f/b.txt", &b1), ("f/b.txt", &b2)];
            for (path, content) in uploads {
                plan_file(&mut planner, path, content);
                for hash in hashes(content) {
                    *expected.entry(hash).or_default() += 1;
                }
            }
            let stats = dedup_stats(&planner);

            // Deleting twice, or a path never uploaded, releases nothing more.
            for path in ["f/a.bin", "f/b.txt", "f/a.bin", "f/never.bin"] {
                planner.plan_delete(path);
            }
            for hash in hashes(&a).into_iter().chain(hashes(&b2)) {
                *expected.get_mut(&hash).unwrap() -= 1;
            }
            for (hash, refs) in &expected {
                assert_eq!(planner.dedup.references(hash), *refs, "{name}");
            }
            assert_eq!(dedup_stats(&planner), stats, "{name}: a delete asks the index nothing");
            assert!(!planner.own.contains_key("f/a.bin"), "{name}");
            assert!(planner.own.contains_key("g/copy.bin"), "{name}");

            let restored = plan_file(&mut planner, "f/a.bin", &a);
            assert_eq!(fully_deduplicated(&restored), profile.dedup, "{name}");
            let (hits, misses) = dedup_stats(&planner);
            if profile.dedup {
                assert_eq!(restored.upload_bytes(), 0, "{name}");
                assert_eq!((hits, misses), (stats.0 + hashes(&a).len() as u64, stats.1), "{name}");
            } else {
                assert!(restored.upload_bytes() >= 300_000, "{name}");
                assert_eq!((hits, misses), (0, 0), "{name}");
            }
        }
    }

    /// One copy per uploaded byte: the local view holds the store's own
    /// payload allocation, and only a delta-encoding service keeps the
    /// revision's bytes as the next delta's base.
    #[test]
    fn committed_chunks_share_the_stores_payload() {
        let content = generate(FileKind::RandomBinary, 200_000, 15);
        for profile in ServiceProfile::all() {
            let mut planner = UploadPlanner::new(profile.clone());
            plan_file(&mut planner, "a.bin", &content);
            assert_eq!(planner.own["a.bin"].base.is_some(), profile.delta_encoding);
            assert!(!planner.local_chunks.is_empty());
            for (hash, (bytes, _)) in &planner.local_chunks {
                let stored = planner.store.chunk_payload(hash).expect("committed with payload");
                assert!(Arc::ptr_eq(bytes, &stored), "{}", profile.name());
            }
        }
    }

    /// A delete forgets the path's delta base and its chunk references in
    /// one step: the re-upload of a near-identical revision travels in full
    /// (or as dedup hits) for every profile, never as a delta against the
    /// deleted bytes.
    #[test]
    fn delete_forgets_the_delta_base_and_the_references_together() {
        let original = generate(FileKind::RandomBinary, 300_000, 16);
        let appended = Mutation::Append { len: 20_000 }.apply(&original, 17);
        for profile in ServiceProfile::all() {
            let name = profile.name();
            let mut planner = UploadPlanner::new(profile.clone());
            let first = plan_file(&mut planner, "doc.bin", &original);
            assert_eq!(planner.own["doc.bin"].hashes.len(), first.chunks.len(), "{name}");
            assert_eq!(planner.own["doc.bin"].base.is_some(), profile.delta_encoding, "{name}");

            planner.plan_delete("doc.bin");
            assert!(planner.own.is_empty() && planner.local_chunks.is_empty(), "{name}");
            for chunk in profile.chunking.chunk(&original) {
                assert_eq!(planner.dedup.references(&chunk.hash), 0, "{name}");
            }

            let again = plan_file(&mut planner, "doc.bin", &appended);
            assert!(again.chunks.iter().all(|c| !c.delta_encoded), "{name}: delta after a delete");
            if !profile.dedup {
                assert!(again.upload_bytes() >= 300_000, "{name}");
            }
        }
    }

    /// A pull keeps the pulled bytes only as a delta base: a service that
    /// does not delta-encode holds no second reference to them, and Dropbox
    /// still re-pulls a modified file as a delta against the one it kept.
    #[test]
    fn pulled_content_is_kept_only_as_a_delta_base() {
        let content = generate(FileKind::RandomBinary, 300_000, 18);
        let appended = Mutation::Append { len: 30_000 }.apply(&content, 19);
        let paths = ["f.bin".to_string()];
        for profile in ServiceProfile::all() {
            let name = profile.name();
            let store = ObjectStore::new();
            let pipeline = UploadPipeline;
            let mut owner = UploadPlanner::for_user(profile.clone(), pipeline, store.clone(), "o");
            let mut puller = UploadPlanner::for_user(profile.clone(), pipeline, store, "p");
            plan_file(&mut owner, "f.bin", &content);

            let pulled = puller.plan_restore_paths("o", &paths).pop().unwrap().unwrap();
            assert_eq!(*pulled.content, content, "{name}");
            let holders = if profile.delta_encoding { 2 } else { 1 };
            assert_eq!(Arc::strong_count(&pulled.content), holders, "{name}");
            assert_eq!(puller.pulled["o/f.bin"].hashes.len(), pulled.chunks.len(), "{name}");

            plan_file(&mut owner, "f.bin", &appended);
            let repull = puller.plan_restore_paths("o", &paths).pop().unwrap().unwrap();
            assert_eq!(*repull.content, appended, "{name}");
            if profile.delta_encoding {
                let down = repull.download_bytes();
                assert!((1..100_000).contains(&down), "{name}: delta re-pull, got {down}");
            }
        }
    }

    #[test]
    fn services_without_dedup_reupload_copies() {
        let mut planner = UploadPlanner::new(ServiceProfile::google_drive());
        let content = generate(FileKind::RandomBinary, 200_000, 6);
        plan_file(&mut planner, "a.bin", &content);
        let copy = plan_file(&mut planner, "b.bin", &content);
        assert!(copy.upload_bytes() >= 200_000, "no dedup: full re-upload expected");
        assert!(!fully_deduplicated(&copy));
    }

    #[test]
    fn delta_encoding_tracks_appended_bytes_for_dropbox() {
        let mut planner = UploadPlanner::new(ServiceProfile::dropbox());
        let original = generate(FileKind::RandomBinary, 1_000_000, 7);
        plan_file(&mut planner, "doc.bin", &original);
        let appended = Mutation::Append { len: 100_000 }.apply(&original, 8);
        let plan = plan_file(&mut planner, "doc.bin", &appended);
        let up = plan.upload_bytes();
        assert!(
            (90_000..200_000).contains(&up),
            "delta upload should track the 100 kB append, got {up}"
        );
        assert!(plan.chunks.iter().any(|c| c.delta_encoded));
    }

    #[test]
    fn services_without_delta_reupload_modified_files() {
        let mut planner = UploadPlanner::new(ServiceProfile::skydrive());
        let original = generate(FileKind::RandomBinary, 1_000_000, 9);
        plan_file(&mut planner, "doc.bin", &original);
        let appended = Mutation::Append { len: 100_000 }.apply(&original, 10);
        let plan = plan_file(&mut planner, "doc.bin", &appended);
        assert!(plan.upload_bytes() >= 1_000_000, "no delta: full re-upload expected");
    }

    #[test]
    fn wuala_dedup_spares_unmodified_chunks_of_large_files() {
        // Fig. 4 (right): a 10 MB Wuala file with an insertion only re-uploads
        // the chunks the insertion touched.
        let mut planner = UploadPlanner::new(ServiceProfile::wuala());
        let original = generate(FileKind::RandomBinary, 10_000_000, 11);
        plan_file(&mut planner, "big.bin", &original);
        let modified = Mutation::InsertRandom { len: 100_000 }.apply(&original, 12);
        let plan = plan_file(&mut planner, "big.bin", &modified);
        let up = plan.upload_bytes();
        assert!(up < 8_000_000, "variable chunking + dedup should spare most chunks, got {up}");
        assert!(up >= 100_000);
        assert!(plan.chunks.iter().any(|c| c.deduplicated));
    }

    #[test]
    fn chunk_counts_follow_the_chunking_strategy() {
        let content = generate(FileKind::RandomBinary, 9_000_000, 13);
        let mut dropbox = UploadPlanner::new(ServiceProfile::dropbox());
        assert_eq!(plan_file(&mut dropbox, "x.bin", &content).chunks.len(), 3); // 4+4+1 MB
        let mut gdrive = UploadPlanner::new(ServiceProfile::google_drive());
        assert_eq!(plan_file(&mut gdrive, "x.bin", &content).chunks.len(), 2); // 8+1 MB
        let mut clouddrive = UploadPlanner::new(ServiceProfile::cloud_drive());
        assert_eq!(plan_file(&mut clouddrive, "x.bin", &content).chunks.len(), 1);
        // single object
    }

    /// Plans do not depend on the pipeline's thread count: for any profile,
    /// a planner called at top level (its 9 MB batches fan out on a
    /// multi-core host) and one called from a fan-out worker (where
    /// `cloudsim_parallel` runs the pipeline inline) produce identical plans,
    /// including stateful dedup/delta interactions.
    #[test]
    fn parallel_and_sequential_planners_produce_identical_plans() {
        // A batch exercising dedup (duplicate content), delta (same path
        // re-uploaded within one batch), compression (text) and chunking
        // (a multi-chunk file).
        let text = generate(FileKind::Text, 400_000, 1);
        let big = generate(FileKind::RandomBinary, 9_000_000, 2);
        let copy = text.clone();
        let appended = Mutation::Append { len: 60_000 }.apply(&text, 3);
        let batch: Vec<(&str, &[u8])> = vec![
            ("a/notes.txt", &text),
            ("b/big.bin", &big),
            ("c/copy.txt", &copy),
            ("a/notes.txt", &appended),
        ];
        // A second batch re-uploading modified content must still agree
        // (delta now runs against planner state from the first batch).
        let mutated = Mutation::InsertRandom { len: 30_000 }.apply(&big, 4);
        let batch2: Vec<(&str, &[u8])> = vec![("b/big.bin", &mutated)];

        for profile in ServiceProfile::all() {
            let plan_both = || {
                let mut planner = UploadPlanner::new(profile.clone());
                (planner.plan_batch(&batch), planner.plan_batch(&batch2), dedup_stats(&planner))
            };
            let top_level = plan_both();
            let nested =
                cloudsim_parallel::run_indexed(2, 2, || (), |(), i| (i == 0).then(plan_both));
            assert_eq!(nested[0].as_ref(), Some(&top_level), "{}", profile.name());
        }
    }

    /// `plan_batch` must equal per-file `plan_file` calls — the pipeline is
    /// an execution strategy, not a semantic change.
    #[test]
    fn plan_batch_equals_sequential_plan_file_calls() {
        for profile in [ServiceProfile::dropbox(), ServiceProfile::wuala()] {
            let mut batched = UploadPlanner::new(profile.clone());
            let mut one_by_one = UploadPlanner::new(profile.clone());
            let files: Vec<Vec<u8>> = (0..6)
                .map(|i| generate(FileKind::RandomBinary, 150_000 + i * 10_000, 50 + i as u64))
                .collect();
            let mut batch: Vec<(&str, &[u8])> = Vec::new();
            let paths: Vec<String> = (0..6).map(|i| format!("f/{i}.bin")).collect();
            for (path, content) in paths.iter().zip(&files) {
                batch.push((path, content));
            }
            // Duplicate content at a new path to exercise dedup ordering.
            batch.push(("f/dup.bin", &files[0]));

            let batch_plans = batched.plan_batch(&batch);
            let file_plans: Vec<FilePlan> =
                batch.iter().map(|(p, c)| plan_file(&mut one_by_one, p, c)).collect();
            assert_eq!(batch_plans, file_plans, "{}", profile.name());
        }
    }

    #[test]
    fn cross_user_restores_round_trip_and_dedup_shared_content() {
        // Two Dropbox users share a store; bob uploads one shared file (the
        // same bytes alice also has) and one private file. Alice pulls bob's
        // namespace: the shared file costs nothing on the wire, the private
        // one downloads, and both come back byte-identical.
        let store = ObjectStore::new();
        let pipeline = UploadPipeline;
        let mut alice =
            UploadPlanner::for_user(ServiceProfile::dropbox(), pipeline, store.clone(), "alice");
        let mut bob =
            UploadPlanner::for_user(ServiceProfile::dropbox(), pipeline, store.clone(), "bob");

        let shared = generate(FileKind::RandomBinary, 400_000, 21);
        let private = generate(FileKind::RandomBinary, 300_000, 22);
        plan_file(&mut alice, "pool/shared.bin", &shared);
        plan_file(&mut bob, "pool/shared.bin", &shared);
        plan_file(&mut bob, "own/private.bin", &private);

        let results = alice.plan_restore_user("bob");
        assert_eq!(results.len(), 2);
        let by_path = |p: &str| {
            results.iter().flatten().find(|r| r.path == p).unwrap_or_else(|| panic!("{p} restored"))
        };
        let pulled_private = by_path("own/private.bin");
        assert_eq!(*pulled_private.content, private);
        assert!(pulled_private.download_bytes() >= 300_000, "random data travels in full");
        let pulled_shared = by_path("pool/shared.bin");
        assert_eq!(*pulled_shared.content, shared);
        assert_eq!(pulled_shared.download_bytes(), 0, "alice already holds these chunks");
        assert_eq!(pulled_shared.dedup_skipped_bytes(), 400_000);

        // A repeat pull of unchanged content is free: the first pull entered
        // alice's local view.
        let again = alice.plan_restore_user("bob");
        assert!(again.iter().flatten().all(|r| r.download_bytes() == 0));

        // Bob appends; the re-pull travels roughly the appended bytes as a
        // delta against the previously pulled revision.
        let appended = Mutation::Append { len: 50_000 }.apply(&private, 23);
        plan_file(&mut bob, "own/private.bin", &appended);
        let repull = alice.plan_restore_paths("bob", &["own/private.bin".to_string()]);
        let repull = repull[0].as_ref().unwrap();
        assert_eq!(*repull.content, appended);
        let down = repull.download_bytes();
        assert!((1..200_000).contains(&down), "delta re-pull should be small, got {down}");
    }

    #[test]
    fn restore_of_a_purged_account_fails_cleanly() {
        let store = ObjectStore::new();
        let pipeline = UploadPipeline;
        let mut owner =
            UploadPlanner::for_user(ServiceProfile::wuala(), pipeline, store.clone(), "owner");
        let mut puller =
            UploadPlanner::for_user(ServiceProfile::wuala(), pipeline, store.clone(), "puller");
        plan_file(&mut owner, "f.bin", &generate(FileKind::RandomBinary, 100_000, 31));
        let paths = store.list_files("owner");
        owner.purge_account();

        let results = puller.plan_restore_paths("owner", &paths);
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0].as_ref().unwrap_err(),
            cloudsim_storage::RestoreError::ManifestMissing { .. }
        ));
        // A purged namespace lists no files, so the whole-user restore is
        // empty rather than an error.
        assert!(puller.plan_restore_user("owner").is_empty());
        // Counters never went negative: the purge released every reference,
        // and a mark-sweep pass reclaims the physical bytes it left behind.
        assert_eq!(store.aggregate().referenced_bytes, 0);
        store.collect_garbage();
        assert_eq!(store.aggregate().physical_bytes, 0);
    }

    #[test]
    fn self_restore_after_soft_delete_downloads_nothing() {
        // §4.3: delete then restore — dedup keeps the wire silent in both
        // directions. The planner holds the old revision locally, so even
        // the restore pipeline's download step is skipped entirely.
        let mut planner = UploadPlanner::new(ServiceProfile::dropbox());
        let content = generate(FileKind::RandomBinary, 200_000, 41);
        plan_file(&mut planner, "docs/keep.bin", &content);
        let restored = planner.plan_restore_paths("benchmark-user", &["docs/keep.bin".into()]);
        let restored = restored[0].as_ref().unwrap();
        assert_eq!(*restored.content, content);
        assert_eq!(restored.download_bytes(), 0);
    }

    #[test]
    fn metadata_bytes_are_accounted() {
        let mut planner = UploadPlanner::new(ServiceProfile::dropbox());
        let plan = plan_file(&mut planner, "a.bin", &generate(FileKind::RandomBinary, 50_000, 14));
        assert!(plan.metadata_bytes >= 300);
        assert!(planner.store().stats("benchmark-user").files == 1);
        assert_eq!(planner.profile().provider, cloudsim_geo::Provider::Dropbox);
    }
}
