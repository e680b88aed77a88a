//! `workload.*` and `storage.*`: generation, the upload pipeline's stages,
//! restore, and the sharded object store.

use super::{hash_from_lanes, Bench};
use crate::host;
use cloudsim_services::{ServiceProfile, UploadPlanner};
use cloudsim_storage::{
    compress, decompress, sha256, ChunkingStrategy, ContentHash, ConvergentCipher, DeltaScript,
    FileJob, FileManifest, GcPolicy, ObjectStore, PipelineSpec, RestorePipeline, RestoreRequest,
    Signature, StoredChunk, UploadPipeline,
};
use cloudsim_workload::seed::derive_seed;
use cloudsim_workload::{generate, BatchSpec, FileKind, Mutation};

const MB: f64 = 1e6;

/// Chunks each user of a populated store holds; half come from a pool
/// every user shares, as in the fleet-scale population.
const CHUNKS_PER_USER: usize = 4;

/// A store population: per user a name, its chunks and its manifests.
pub struct Population {
    pub users: Vec<String>,
    pub chunks: Vec<Vec<StoredChunk>>,
}

impl Population {
    pub fn new(users: usize, seed: u64) -> Population {
        let hash = |user: u64, slot: usize| {
            hash_from_lanes(|lane| derive_seed(seed, user, slot as u64, lane))
        };
        let chunks = (0..users)
            .map(|u| {
                (0..CHUNKS_PER_USER)
                    .map(|slot| {
                        let owner = if slot < CHUNKS_PER_USER / 2 { u64::MAX } else { u as u64 };
                        StoredChunk {
                            hash: hash(owner, slot),
                            stored_len: 65_536,
                            plain_len: 65_536,
                        }
                    })
                    .collect()
            })
            .collect();
        Population { users: (0..users).map(|u| format!("layer-{u:06}")).collect(), chunks }
    }

    pub fn ops(&self) -> f64 {
        (self.users.len() * CHUNKS_PER_USER) as f64
    }

    pub fn put_user(&self, store: &ObjectStore, u: usize) {
        for chunk in &self.chunks[u] {
            store.put_chunk(&self.users[u], chunk.clone());
        }
    }

    pub fn manifests_of(&self, u: usize) -> Vec<FileManifest> {
        self.chunks[u]
            .iter()
            .enumerate()
            .map(|(slot, chunk)| FileManifest {
                path: format!("file_{slot:03}"),
                size: chunk.plain_len,
                chunks: vec![chunk.hash],
                version: 0,
            })
            .collect()
    }

    pub fn commit_user(&self, store: &ObjectStore, u: usize, manifests: Vec<FileManifest>) {
        for manifest in manifests {
            store.commit_manifest(&self.users[u], manifest);
        }
    }

    /// A store holding every user's chunks and manifests.
    pub fn populated(&self, policy: GcPolicy) -> ObjectStore {
        let store = ObjectStore::with_policy(policy);
        for u in 0..self.users.len() {
            self.put_user(&store, u);
            self.commit_user(&store, u, self.manifests_of(u));
        }
        store
    }
}

fn dropbox_spec() -> PipelineSpec {
    let p = ServiceProfile::dropbox();
    PipelineSpec {
        chunking: p.chunking,
        compression: p.compression,
        delta_encoding: p.delta_encoding,
    }
}

pub fn run(b: &mut Bench) {
    store(b);
    generation(b);
    stages(b);
}

fn generation(b: &mut Bench) {
    let (bytes, seed) = (b.sizes.bytes, b.seed);
    // Ten files per repetition: random bytes come out at gigabytes per
    // second, and one file would be over in a fraction of a millisecond.
    const FILES: usize = 10;
    for (name, kind) in [
        ("workload.generate_text_mb_per_s", FileKind::Text),
        ("workload.generate_random_mb_per_s", FileKind::RandomBinary),
        ("workload.generate_jpeg_mb_per_s", FileKind::FakeJpeg),
    ] {
        b.rate(
            name,
            (bytes * FILES) as f64 / MB,
            || (),
            |()| (0..FILES as u64).map(|i| generate(kind, bytes, seed ^ i).len()).sum::<usize>(),
        );
    }
    let small = BatchSpec::new(100, bytes / 100, FileKind::RandomBinary);
    b.rate("workload.batch_small_files_per_s", 100.0, || (), |()| small.generate(seed));
    let base = generate(FileKind::RandomBinary, bytes, seed);
    let mutation = Mutation::InsertRandom { len: bytes / 10 };
    b.rate(
        "workload.mutate_mb_per_s",
        ((bytes + bytes / 10) * FILES) as f64 / MB,
        || (),
        |()| (0..FILES as u64).map(|i| mutation.apply(&base, seed ^ i).len()).sum::<usize>(),
    );
}

fn stages(b: &mut Bench) {
    let (bytes, seed) = (b.sizes.bytes, b.seed);
    let mb = bytes as f64 / MB;
    let text = generate(FileKind::Text, bytes, seed ^ 1);
    let random = generate(FileKind::RandomBinary, bytes, seed ^ 2);

    b.rate(
        "storage.chunker_cdc_mb_per_s",
        mb,
        || (),
        |()| ChunkingStrategy::VARIABLE.chunk(&random),
    );
    b.rate("storage.hash_sha256_mb_per_s", mb, || (), |()| sha256(&random));
    b.rate("storage.compress_lzss_text_mb_per_s", mb, || (), |()| compress(&text));
    b.rate("storage.compress_lzss_random_mb_per_s", mb, || (), |()| compress(&random));
    let packed = compress(&text);
    b.rate("storage.compress_lzss_decode_mb_per_s", mb, || (), |()| decompress(&packed));
    b.rate("storage.delta_signature_mb_per_s", mb, || (), |()| Signature::new(&random));
    let appended = Mutation::Append { len: bytes / 10 }.apply(&random, seed ^ 3);
    let signature = Signature::new(&random);
    b.rate(
        "storage.delta_compute_mb_per_s",
        appended.len() as f64 / MB,
        || (),
        |()| DeltaScript::compute(&signature, &appended),
    );
    let cipher = ConvergentCipher::new();
    b.rate("storage.encrypt_mb_per_s", mb, || (), |()| cipher.encrypt(&random));

    // Four text and four random files through the whole client chain.
    let spec = dropbox_spec();
    let files: Vec<Vec<u8>> = (0..8u64)
        .map(|i| {
            let kind = if i % 2 == 0 { FileKind::Text } else { FileKind::RandomBinary };
            generate(kind, bytes / 2, seed ^ (16 + i))
        })
        .collect();
    let jobs: Vec<FileJob<'_>> =
        files.iter().map(|f| FileJob { content: f, previous: None }).collect();
    let total = files.iter().map(Vec::len).sum::<usize>() as f64 / MB;
    b.rate(
        "storage.pipeline_seq_mb_per_s",
        total,
        || (),
        |()| UploadPipeline::sequential().process(&spec, &jobs),
    );
    b.rate(
        "storage.pipeline_par_mb_per_s",
        total,
        || (),
        |()| UploadPipeline::parallel().process(&spec, &jobs),
    );
    let small = BatchSpec::new(100, bytes / 100, FileKind::RandomBinary).generate(seed ^ 4);
    let small_jobs: Vec<FileJob<'_>> =
        small.iter().map(|f| FileJob { content: &f.content, previous: None }).collect();
    b.rate(
        "storage.pipeline_small_files_per_s",
        100.0,
        || (),
        |()| UploadPipeline::parallel().process(&spec, &small_jobs),
    );

    // Restore: an owner uploads through the planner (which commits the
    // payloads), then a device holding nothing pulls everything back.
    let shared = ObjectStore::new();
    let profile = ServiceProfile::dropbox();
    let mut planner =
        UploadPlanner::for_user(profile, UploadPipeline::sequential(), shared.clone(), "owner");
    let batch: Vec<(String, &[u8])> =
        files.iter().enumerate().map(|(i, f)| (format!("restore/f{i}"), f.as_slice())).collect();
    let refs: Vec<(&str, &[u8])> = batch.iter().map(|(p, c)| (p.as_str(), *c)).collect();
    planner.plan_batch(&refs);
    let requests: Vec<RestoreRequest<'_>> =
        batch.iter().map(|(path, _)| RestoreRequest { owner: "owner", path, base: None }).collect();
    b.rate(
        "storage.restore_batch_mb_per_s",
        total,
        || (),
        |()| {
            let restored =
                RestorePipeline::parallel().restore_batch(&shared, &spec, &requests, &|_| None);
            assert!(
                restored.iter().all(Result::is_ok),
                "the layer benchmark's restore must succeed"
            );
            restored
        },
    );
}

fn store(b: &mut Bench) {
    let users = b.sizes.users;
    let workers = cloudsim_parallel::available_workers();
    let pop = Population::new(users, b.seed);
    let fresh = || ObjectStore::with_policy(GcPolicy::MarkSweep);

    // Resident bytes per user, as the growth of VmRSS while one store is
    // populated. One sample, taken before anything else has run.
    let before = host::current_rss_mb();
    let resident = pop.populated(GcPolicy::MarkSweep);
    let after = host::current_rss_mb();
    b.set("storage.store_rss_bytes_per_user", ((after - before) * MB / users as f64).max(0.0));
    let stats = resident.aggregate();
    b.set(
        "storage.store_dedup_hit_share",
        stats.server_dedup_hits as f64 / stats.chunk_puts as f64,
    );
    b.rate("storage.store_aggregate_users_per_s", users as f64, || (), |()| resident.aggregate());
    let reads = (users * CHUNKS_PER_USER * 2) as f64;
    b.rate(
        "storage.store_read_ops_per_s",
        reads,
        || (),
        |()| {
            let mut found = 0usize;
            for u in 0..users {
                for slot in 0..CHUNKS_PER_USER {
                    let manifest = resident.manifest(&pop.users[u], &format!("file_{slot:03}"));
                    let hash = manifest.expect("the manifest was committed").chunks[0];
                    found += usize::from(resident.chunk(&pop.users[u], &hash).is_some());
                }
            }
            found
        },
    );
    drop(resident);

    b.rate("storage.store_put_chunk_ops_per_s_1t", pop.ops(), fresh, |store| {
        (0..users).for_each(|u| pop.put_user(&store, u));
        store
    });
    b.rate("storage.store_put_chunk_ops_per_s_nt", pop.ops(), fresh, |store| {
        cloudsim_parallel::run_indexed(workers, users, || (), |(), u| pop.put_user(&store, u));
        store
    });
    let with_chunks = || {
        let store = fresh();
        (0..users).for_each(|u| pop.put_user(&store, u));
        let manifests: Vec<Vec<FileManifest>> = (0..users).map(|u| pop.manifests_of(u)).collect();
        (store, manifests)
    };
    b.rate(
        "storage.store_commit_manifest_ops_per_s_1t",
        pop.ops(),
        with_chunks,
        |(store, manifests)| {
            for (u, m) in manifests.into_iter().enumerate() {
                pop.commit_user(&store, u, m);
            }
            store
        },
    );
    b.rate(
        "storage.store_commit_manifest_ops_per_s_nt",
        pop.ops(),
        with_chunks,
        |(store, manifests)| {
            let slots: Vec<std::sync::Mutex<Option<Vec<FileManifest>>>> =
                manifests.into_iter().map(|m| std::sync::Mutex::new(Some(m))).collect();
            cloudsim_parallel::run_indexed(
                workers,
                users,
                || (),
                |(), u| {
                    let m = slots[u].lock().expect("no worker panics holding a slot").take();
                    pop.commit_user(&store, u, m.expect("each slot is taken once"));
                },
            );
            store
        },
    );
    b.rate(
        "storage.store_drop_users_per_s",
        users as f64,
        || pop.populated(GcPolicy::MarkSweep),
        drop,
    );
    let unique = (users * CHUNKS_PER_USER / 2 + CHUNKS_PER_USER / 2) as f64;
    b.rate(
        "storage.store_purge_gc_chunks_per_s",
        unique,
        || pop.populated(GcPolicy::MarkSweep),
        |store| {
            for user in &pop.users {
                store.purge_user(user);
            }
            let freed = store.collect_garbage();
            (store, freed)
        },
    );

    // Payload-carrying puts: distinct 16 kB chunks, as a full-fidelity
    // client commits them.
    let chunk_len = 16 * 1024;
    let payload_chunks = (b.sizes.bytes * 32 / chunk_len).max(4);
    let payloads: Vec<Vec<u8>> = (0..payload_chunks)
        .map(|i| generate(FileKind::RandomBinary, chunk_len, b.seed ^ (0x9A10 + i as u64)))
        .collect();
    let hashes: Vec<ContentHash> = payloads.iter().map(|p| sha256(p)).collect();
    b.rate(
        "storage.store_put_payload_mb_per_s",
        (payload_chunks * chunk_len) as f64 / MB,
        ObjectStore::new,
        |store| {
            for (hash, payload) in hashes.iter().zip(&payloads) {
                let len = payload.len() as u64;
                let chunk = StoredChunk { hash: *hash, stored_len: len, plain_len: len };
                store.put_chunk_with_payload("payload-user", chunk, payload);
            }
            store
        },
    );
}
