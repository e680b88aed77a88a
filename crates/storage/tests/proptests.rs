//! Property-based tests over the storage-engine invariants.
//!
//! These complement the unit tests with randomised inputs: compression and
//! encryption must round-trip for *any* byte string, delta scripts must
//! reconstruct *any* new revision from *any* old one, and chunking must tile
//! the input exactly regardless of strategy.

use cloudsim_storage::delta::{roll, weak_sum};
use cloudsim_storage::pipeline::process_filtered;
use cloudsim_storage::restore::restore_batch_with;
use cloudsim_storage::{
    compress, decompress, sha256, Chunk, ChunkingStrategy, CompressionPolicy, ConvergentCipher,
    DeltaScript, FileJob, FileManifest, GcPolicy, ObjectStore, PipelineSpec, RestoreRequest,
    Signature, SizeMemo, StoredChunk,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compression_roundtrips_any_input(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let compressed = compress(&data);
        prop_assert_eq!(decompress(&compressed).unwrap(), data.clone());
        // Stored-mode fallback bounds the expansion to one tag byte.
        prop_assert!(compressed.len() <= data.len() + 1);
        // The size count both pipelines price with is the written length.
        prop_assert_eq!(CompressionPolicy::Always.upload_size(&data), compressed.len() as u64);
    }

    #[test]
    fn convergent_encryption_roundtrips_and_is_deterministic(
        data in proptest::collection::vec(any::<u8>(), 0..10_000)
    ) {
        let cipher = ConvergentCipher::new();
        let key = cipher.derive_key(&data);
        let ct1 = cipher.encrypt(&data);
        let ct2 = cipher.encrypt(&data);
        prop_assert_eq!(&ct1, &ct2);
        prop_assert_eq!(ct1.len(), data.len());
        prop_assert_eq!(cipher.decrypt(&key, &ct1), data.clone());
        if data.len() > 32 {
            prop_assert_ne!(ct1, data.clone());
        }
    }

    #[test]
    fn delta_scripts_reconstruct_the_new_revision(
        old in proptest::collection::vec(any::<u8>(), 0..30_000),
        new in proptest::collection::vec(any::<u8>(), 0..30_000),
    ) {
        let signature = Signature::with_block_size(&old, 512);
        let delta = DeltaScript::compute(&signature, &new);
        prop_assert_eq!(delta.apply(&old), new.clone());
        prop_assert!(delta.literal_bytes() <= new.len() as u64);
    }

    #[test]
    fn delta_of_identical_revisions_carries_little_data(
        data in proptest::collection::vec(any::<u8>(), 2_048..20_000)
    ) {
        let signature = Signature::with_block_size(&data, 1_024);
        let delta = DeltaScript::compute(&signature, &data);
        prop_assert_eq!(delta.apply(&data), data.clone());
        // Only the trailing partial block may travel as a literal.
        prop_assert!(delta.literal_bytes() < 1_024);
    }

    #[test]
    fn chunking_tiles_the_file_exactly(
        data in proptest::collection::vec(any::<u8>(), 0..200_000),
        strategy_idx in 0usize..3,
    ) {
        let strategy = match strategy_idx {
            0 => ChunkingStrategy::None,
            1 => ChunkingStrategy::Fixed { size: 16 * 1024 },
            _ => ChunkingStrategy::ContentDefined { min: 4 * 1024, avg: 16 * 1024, max: 64 * 1024 },
        };
        let chunks: Vec<Chunk> = strategy.chunk(&data);
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        prop_assert_eq!(total, data.len() as u64);
        // Chunks are contiguous, in order, and hash their exact slice.
        let mut offset = 0u64;
        for chunk in &chunks {
            prop_assert_eq!(chunk.offset, offset);
            let slice = &data[chunk.offset as usize..chunk.end() as usize];
            prop_assert_eq!(chunk.hash, sha256(slice));
            offset = chunk.end();
        }
    }

    #[test]
    fn rolled_weak_checksum_equals_recomputation_at_every_offset(
        data in proptest::collection::vec(any::<u8>(), 600..4_000),
        block_exp in 4u32..9,
    ) {
        // The rolling update must agree with a from-scratch weak_sum() at
        // every window offset of a random buffer — the invariant that lets
        // the delta encoder find matches at arbitrary byte positions.
        let block = 1usize << block_exp; // 16..256, always < data.len()
        let mut rolled = weak_sum(&data[0..block]);
        for i in 0..=data.len() - block {
            prop_assert_eq!(rolled, weak_sum(&data[i..i + block]));
            if i + block < data.len() {
                rolled = roll(rolled, data[i], data[i + block], block);
            }
        }
    }

    #[test]
    fn pipeline_artifacts_are_mode_independent(
        file_a in proptest::collection::vec(any::<u8>(), 0..60_000),
        file_b in proptest::collection::vec(any::<u8>(), 0..60_000),
        prefix in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        // The acceptance property of the pipeline: chunks, hashes, upload
        // byte counts and delta estimates identical to what the standalone
        // chunker, `sha256`, `upload_size` and delta encoder say, for any
        // content, including a delta job against a mutated previous
        // revision.
        let mut file_b_v2 = prefix;
        file_b_v2.extend_from_slice(&file_b);
        let jobs = vec![
            FileJob { content: &file_a, previous: None },
            FileJob { content: &file_b_v2, previous: Some(&file_b) },
        ];
        let spec = PipelineSpec {
            chunking: ChunkingStrategy::Fixed { size: 8 * 1024 },
            compression: CompressionPolicy::Always,
            delta_encoding: true,
        };
        let artifacts = process_filtered(&spec, &jobs, &|_| false, &SizeMemo::new());
        prop_assert_eq!(artifacts.len(), jobs.len());
        for (job, file) in jobs.iter().zip(&artifacts) {
            prop_assert_eq!(file.chunk_list(), spec.chunking.chunk(job.content));
            let old_chunks = job.previous.map(|old| spec.chunking.chunk(old)).unwrap_or_default();
            for (i, art) in file.chunks.iter().enumerate() {
                let data = &job.content[art.chunk.offset as usize..art.chunk.end() as usize];
                prop_assert_eq!(art.chunk.hash, sha256(data));
                let old_data = old_chunks.get(i).map(|c| {
                    &job.previous.expect("chunked above")[c.offset as usize..c.end() as usize]
                });
                let delta = old_data.filter(|old| *old != data).map(|old| {
                    DeltaScript::compute(&Signature::new(old), data).wire_size()
                });
                prop_assert_eq!(art.delta.map(|est| est.wire_bytes), delta);
                // A winning delta means the full upload size is never read.
                let full = match delta {
                    Some(wire) if wire < art.chunk.len => 0,
                    _ => spec.compression.upload_size(data),
                };
                prop_assert_eq!(art.full_upload_bytes, full);
            }
        }
    }

    #[test]
    fn sha256_is_stable_under_split_updates(
        data in proptest::collection::vec(any::<u8>(), 0..5_000),
        split in 0usize..5_000,
    ) {
        let split = split.min(data.len());
        let mut hasher = cloudsim_storage::hash::Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), sha256(&data));
    }

    #[test]
    fn concurrent_commits_equal_sequential_replay(
        users in 2usize..8,
        plan in proptest::collection::vec(any::<u16>(), 16..64),
    ) {
        // The acceptance property of the shared store: K threads (one per
        // user) committing interleaved batches of chunks and manifests end
        // with bit-identical per-user `StoreStats`, manifests and aggregate
        // accounting to the same batches replayed sequentially on one
        // thread. The `plan` vector seeds the batch structure; a small
        // payload alphabet forces heavy cross-user chunk overlap so the
        // inter-user dedup path is exercised, and varying stored sizes per
        // uploader exercise the commutative-min canonical-size rule.
        let batches_of = |user: usize| -> Vec<Vec<StoredChunk>> {
            let mut batches = Vec::new();
            let mut chunk_batch = Vec::new();
            for (i, &v) in plan.iter().enumerate() {
                // Payload identity: a small alphabet shared by every user,
                // so most chunks collide across users.
                let payload_id = v % 23;
                let stored_len = 100 + u64::from(v % 7) * 50 + user as u64;
                chunk_batch.push(StoredChunk {
                    hash: sha256(&payload_id.to_le_bytes()),
                    stored_len,
                    plain_len: 1000,
                });
                if v % 5 == 0 || i + 1 == plan.len() {
                    batches.push(std::mem::take(&mut chunk_batch));
                }
            }
            batches
        };
        let sync_user = |store: &ObjectStore, user: usize| {
            let name = format!("prop-user-{user}");
            for (b, batch) in batches_of(user).iter().enumerate() {
                for chunk in batch {
                    store.put_chunk(&name, chunk.clone());
                }
                let manifest = FileManifest {
                    path: format!("batch-{b}.bin"),
                    size: batch.iter().map(|c| c.plain_len).sum(),
                    chunks: batch.iter().map(|c| c.hash).collect(),
                    version: 0,
                };
                store.commit_manifest(&name, manifest);
            }
        };

        let concurrent = ObjectStore::new();
        std::thread::scope(|scope| {
            let sync_user = &sync_user;
            for user in 0..users {
                let store = concurrent.clone();
                scope.spawn(move || sync_user(&store, user));
            }
        });

        let sequential = ObjectStore::new();
        for user in 0..users {
            sync_user(&sequential, user);
        }

        prop_assert_eq!(concurrent.aggregate(), sequential.aggregate());
        prop_assert_eq!(concurrent.users(), sequential.users());
        for user in 0..users {
            let name = format!("prop-user-{user}");
            prop_assert_eq!(concurrent.stats(&name), sequential.stats(&name));
            prop_assert_eq!(concurrent.list_files(&name), sequential.list_files(&name));
            for path in concurrent.list_files(&name) {
                prop_assert_eq!(
                    concurrent.manifest(&name, &path),
                    sequential.manifest(&name, &path)
                );
            }
        }
    }

    #[test]
    fn upload_restore_round_trips_byte_identically(
        files in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40_000), 1..4),
        base in proptest::collection::vec(any::<u8>(), 0..40_000),
        policy_idx in 0usize..3,
    ) {
        // The acceptance property of the restore pipeline: whatever was
        // uploaded (any content, any compression policy, with or without a
        // delta base held locally) comes back byte-identical.
        let compression = match policy_idx {
            0 => CompressionPolicy::Never,
            1 => CompressionPolicy::Always,
            _ => CompressionPolicy::Smart,
        };
        let spec = PipelineSpec {
            chunking: ChunkingStrategy::Fixed { size: 8 * 1024 },
            compression,
            delta_encoding: true,
        };
        let store = ObjectStore::new();
        for (i, content) in files.iter().enumerate() {
            let chunks = spec.chunking.chunk(content);
            for chunk in &chunks {
                let data = &content[chunk.offset as usize..chunk.end() as usize];
                store.put_chunk_with_payload(
                    "prop-user",
                    StoredChunk {
                        hash: chunk.hash,
                        stored_len: chunk.len.max(1),
                        plain_len: chunk.len,
                    },
                    data,
                );
            }
            store.commit_manifest(
                "prop-user",
                FileManifest::from_chunks(&format!("f{i}.bin"), &chunks, 0),
            );
        }

        let paths: Vec<String> = (0..files.len()).map(|i| format!("f{i}.bin")).collect();
        let requests: Vec<RestoreRequest<'_>> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| RestoreRequest {
                owner: "prop-user",
                path,
                // The first file restores against a random local base
                // revision, exercising the delta-vs-full decision.
                base: (i == 0).then_some(base.as_slice()),
            })
            .collect();
        let no_local =
            |_: &cloudsim_storage::ContentHash| -> Option<std::sync::Arc<[u8]>> { None };
        let restored = restore_batch_with(&store, &spec, &requests, &no_local, &SizeMemo::new());
        prop_assert_eq!(restored.len(), files.len());
        for (content, restored) in files.iter().zip(&restored) {
            let restored = restored.as_ref().expect("every uploaded file restores");
            prop_assert_eq!(&*restored.content, content);
        }
    }

    #[test]
    fn gc_after_deleting_every_manifest_returns_the_store_to_zero(
        users in 1usize..6,
        plan in proptest::collection::vec(any::<u16>(), 8..48),
        eager in any::<bool>(),
    ) {
        // Per-user batches with heavy cross-user overlap (small payload
        // alphabet), committed as one manifest per batch — then every
        // manifest is hard-deleted. Whatever the GC policy and overlap
        // pattern, a final sweep must return the physical store to zero
        // bytes and zero chunks, and every reclaimed byte must be counted.
        let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
        let store = ObjectStore::with_policy(policy);
        for user in 0..users {
            let name = format!("gc-user-{user}");
            let mut batch: Vec<StoredChunk> = Vec::new();
            let mut batch_no = 0usize;
            for (i, &v) in plan.iter().enumerate() {
                let payload_id = (v % 17, user as u8 * (v % 3) as u8);
                batch.push(StoredChunk {
                    hash: sha256(&[payload_id.0 as u8, payload_id.1]),
                    stored_len: 64 + u64::from(v % 5) * 32,
                    plain_len: 256,
                });
                if v % 4 == 0 || i + 1 == plan.len() {
                    let manifest = FileManifest {
                        path: format!("batch-{batch_no}.bin"),
                        size: batch.iter().map(|c| c.plain_len).sum(),
                        chunks: batch.iter().map(|c| c.hash).collect(),
                        version: 0,
                    };
                    for chunk in batch.drain(..) {
                        store.put_chunk(&name, chunk);
                    }
                    store.commit_manifest(&name, manifest);
                    batch_no += 1;
                }
            }
        }
        let before = store.aggregate();
        prop_assert!(before.physical_bytes > 0);

        for user in 0..users {
            let name = format!("gc-user-{user}");
            for path in store.list_files(&name) {
                prop_assert!(store.delete_manifest(&name, &path).is_some());
            }
        }
        store.collect_garbage();

        let agg = store.aggregate();
        prop_assert_eq!(agg.users, 0);
        prop_assert_eq!(agg.files, 0);
        prop_assert_eq!(agg.unique_chunks, 0);
        prop_assert_eq!(agg.physical_bytes, 0);
        prop_assert_eq!(agg.referenced_bytes, 0);
        prop_assert_eq!(agg.reclaimed_bytes, before.physical_bytes);
        prop_assert_eq!(agg.freed_chunks, before.unique_chunks);
    }

    #[test]
    fn gc_never_frees_a_still_referenced_chunk(
        keep_refs in proptest::collection::vec(any::<u8>(), 4..24),
        drop_paths in proptest::collection::vec(any::<u8>(), 1..16),
        eager in any::<bool>(),
    ) {
        // Two users share an overlapping chunk population; one user deletes
        // an arbitrary subset of its manifests. However the subsets land,
        // every chunk the *surviving* manifests reference must still be
        // resolvable afterwards, under both policies.
        let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
        let store = ObjectStore::with_policy(policy);
        let commit = |user: &str, path: &str, ids: &[u8]| {
            let chunks: Vec<StoredChunk> = ids
                .iter()
                .map(|&id| StoredChunk {
                    hash: sha256(&[id % 13]),
                    stored_len: 128,
                    plain_len: 128,
                })
                .collect();
            for c in &chunks {
                store.put_chunk(user, c.clone());
            }
            let manifest = FileManifest {
                path: path.to_string(),
                size: chunks.iter().map(|c| c.plain_len).sum(),
                chunks: chunks.iter().map(|c| c.hash).collect(),
                version: 0,
            };
            store.commit_manifest(user, manifest);
        };
        commit("keeper", "kept.bin", &keep_refs);
        for (i, &id) in drop_paths.iter().enumerate() {
            commit("dropper", &format!("drop-{i}.bin"), &[id, id.wrapping_add(1)]);
        }

        // Dropper hard-deletes every other manifest, then GC runs.
        for (i, path) in store.list_files("dropper").into_iter().enumerate() {
            if i % 2 == 0 {
                store.delete_manifest("dropper", &path);
            }
        }
        store.collect_garbage();

        // Every chunk of the keeper's manifest and of the dropper's
        // surviving manifests must still exist physically.
        for user in ["keeper", "dropper"] {
            for path in store.list_files(user) {
                let manifest = store.manifest(user, &path).unwrap();
                for hash in &manifest.chunks {
                    prop_assert!(
                        store.has_chunk_globally(hash),
                        "{policy:?}: freed chunk still referenced by {user}/{path}"
                    );
                    prop_assert!(store.chunk(user, hash).is_some());
                }
            }
        }
    }
}
