//! Server-side object store, sharded for concurrent multi-client fleets.
//!
//! The storage back-end the simulated services commit uploads to: a
//! content-addressed chunk store plus per-user file manifests. It backs the
//! capability experiments end-to-end — e.g. the deduplication test of §4.3
//! uploads, copies, deletes and restores files, and the chunks the store
//! holds for the user determine how many bytes actually had to travel.
//!
//! # Sharding
//!
//! The store serves two very different callers: a handful of full-fidelity
//! sync clients (one OS thread per simulated user) and the fleet-scale
//! runner's 10⁵–10⁶ lightweight clients. Both commit into one shared store
//! split into two independent arrays of lock shards:
//!
//! * **user shards** — everything one user owns, sharded by an FNV hash of
//!   the user *name*. A shard is a dense `Vec` of per-user records, and a
//!   user's rows live **in the user's record**: the version counter, the
//!   logical bytes, the held chunks (the user's view of each chunk and its
//!   live-manifest reference count) as one list sorted by content hash, and
//!   the live manifests (a single-chunk manifest held inline) as one list
//!   sorted by path id, both searched by bisection. There is no map per
//!   user and no shard-wide table of users' rows: in personal storage a
//!   user's rows are only ever read and written together, so they sit
//!   together, and a four-file commit touches the few cache lines of one
//!   record instead of eight random ones of a table the whole shard shares.
//! * **chunk shards** — the physical content-addressed chunk table shared by
//!   *all* users, sharded by the leading bytes of the chunk hash. This is
//!   where server-side inter-user deduplication (§4.3) happens: the second
//!   user to upload a chunk adds a reference instead of new bytes.
//!
//! Names are interned once: [`ObjectStore::intern_user`] and
//! [`ObjectStore::intern_path`] hand out [`UserId`]s and [`PathId`]s, and
//! [`ObjectStore::commit_files_by_id`] is the fleet-scale write path — no
//! string is hashed, cloned or allocated per call. The `&str` methods
//! intern (writes) or look up (reads) under the same single lock
//! acquisition. An id encodes its shard, and a name's shard is a pure
//! function of the name, so nothing observable depends on the order names
//! were first seen in. The physical table hashes its keys with a
//! pass-through hasher over eight bytes of the (uniform) content hash; the
//! name index keeps std's keyed hasher, because names come from outside
//! the program.
//!
//! The cost of sorted rows, accepted and written down: inserting or
//! removing a row is O(rows of that user). Measured with one-file commits
//! against the shard-wide hash tables this layout replaced (which stay
//! near 0.4 µs per commit at any size): growing a user from empty, paths
//! in the order they were interned, averages 0.54 µs per commit on the
//! way to 1 000 rows, 6.1 µs to 20 000 and 41 µs to 100 000; the worst
//! case, a commit or a hard delete *at* that size with both keys landing
//! mid-list, is 1.5 µs, 34 µs and 240 µs. The layouts cross near 128 rows
//! (0.44 vs 0.45 µs; at eight rows 0.29 vs 0.38), and the largest user of
//! every workload and every `repro` target holds 100 — there a bisection
//! is seven comparisons inside memory the commit has just touched. A unit
//! test drives one user to 20 000 rows and back against the naive model.
//!
//! The three writes — [`ObjectStore::put_chunk`],
//! [`ObjectStore::commit_manifest`] and the batch — only scope locks; what
//! a write *does* is written once, as methods of the shard a lock guards:
//! `UserShard::hold` (the user holds a chunk), `UserShard::reference` and
//! `UserShard::publish` (a manifest's chunks are counted; it becomes the
//! path's live revision) and `ChunkShard::admit` (the physical entry gains
//! an owner). A put is hold, then admit; a commit is reference + publish;
//! the batch is hold + publish per file under **one** user-shard lock,
//! then one admit per chunk that was new to the user. The two shard arrays
//! are never locked at once: the user shard is released before the first
//! chunk shard is taken.
//!
//! That is the bundling of the paper's §5 applied to the store's own
//! client: a four-file commit written as four puts and four commits takes
//! **twelve** locks (user + chunk shard per put, user shard per commit) and
//! searches the user's held rows three times per file; as one batch it
//! takes **five** — one user shard plus one per chunk new to the user,
//! fewer when the user already holds some — and searches once per file. A
//! unit test counts them. [`ObjectStore::reserve`] is the other half: a
//! caller that knows its population sizes the records, the name index and
//! the physical table once, up front, instead of letting each double its
//! way up, and says how many rows a user will hold, so each of a record's
//! two lists is one exact allocation made on its first row.
//!
//! Aggregate accounting (physical bytes, per-user referenced bytes,
//! server-side dedup hits, …) is plain per-shard counters updated under the
//! shard's lock and summed by [`ObjectStore::aggregate`]. Every update is
//! order-independent (counts of distinct keys, sums of per-user values, a
//! commutative `min` for the canonical stored size), so a concurrent run
//! ends with **bit-identical** [`AggregateStats`] to a sequential replay of
//! the same per-user operations — the property the `fleet_scaling` bench and
//! the storage property tests assert.
//!
//! # Garbage collection
//!
//! Originally the store never freed a byte — matching the delete/restore
//! observation of §4.3, where providers retain chunks so a restored file
//! needs no re-upload. Long-lived churning fleets (clients leaving and
//! hard-deleting their accounts) need reclamation, so each user's chunk
//! keeps a count of live-manifest references and the store supports two
//! hard-delete entry points:
//!
//! * [`ObjectStore::delete_manifest`] removes one manifest and releases the
//!   user's chunks that no remaining live manifest references;
//! * [`ObjectStore::purge_user`] hard-deletes a whole namespace (a departing
//!   fleet client), releasing every chunk the user still holds — including
//!   chunks retained only for soft-deleted or superseded revisions.
//!
//! A released chunk decrements the physical entry's owner count. What happens
//! at zero owners is the [`GcPolicy`]: `Eager` frees the bytes immediately
//! inside the release; `MarkSweep` leaves the entry in place until a
//! [`ObjectStore::collect_garbage`] pass sweeps all owner-less entries.
//! Releases only ever *decrement*, so concurrent releases commute, and the
//! fleet harness phase-separates commits from releases per round — which
//! keeps a churning concurrent run bit-identical to its sequential replay.
//! (The §4.3 soft [`ObjectStore::delete_file`] still frees nothing.)

use crate::chunker::Chunk;
use crate::hash::ContentHash;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde::Serialize;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A chunk as stored on the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoredChunk {
    /// Content hash of the (possibly transformed) chunk payload.
    pub hash: ContentHash,
    /// Stored size in bytes (after compression/encryption, i.e. what occupies
    /// server capacity).
    pub stored_len: u64,
    /// Original plaintext length of the chunk.
    pub plain_len: u64,
}

/// The manifest of one file version: the ordered list of chunk hashes plus
/// bookkeeping metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FileManifest {
    /// Path of the file inside the synced folder.
    pub path: String,
    /// Total plaintext size.
    pub size: u64,
    /// Ordered chunk hashes making up the content.
    pub chunks: Vec<ContentHash>,
    /// Monotonically increasing version number.
    pub version: u64,
}

impl FileManifest {
    /// Builds a manifest from the chunk list produced by a
    /// [`crate::chunker::ChunkingStrategy`].
    pub fn from_chunks(path: &str, chunks: &[Chunk], version: u64) -> FileManifest {
        FileManifest {
            path: path.to_string(),
            size: chunks.iter().map(|c| c.len).sum(),
            chunks: chunks.iter().map(|c| c.hash).collect(),
            version,
        }
    }
}

/// Statistics about the state of one user's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct StoreStats {
    /// Number of live file manifests.
    pub files: usize,
    /// Number of distinct chunks held.
    pub chunks: usize,
    /// Bytes occupied by chunk payloads on the server.
    pub stored_bytes: u64,
    /// Sum of the plaintext sizes of live files (logical size).
    pub logical_bytes: u64,
}

/// Aggregate statistics of the whole store, across every user namespace.
///
/// All fields are order-independent functions of the set of per-user
/// operations performed, so a concurrent fleet and a sequential replay of
/// the same per-user commits produce bit-identical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct AggregateStats {
    /// Number of user namespaces that hold at least one chunk or file.
    pub users: usize,
    /// Live file manifests summed over all users.
    pub files: usize,
    /// Plaintext bytes of live files summed over all users.
    pub logical_bytes: u64,
    /// Distinct chunk hashes in the physical store (after inter-user dedup).
    pub unique_chunks: u64,
    /// Bytes the server physically stores (each unique chunk counted once,
    /// at the most compact representation any user uploaded).
    pub physical_bytes: u64,
    /// Bytes the server would store without inter-user dedup: the sum of
    /// every user's own view of their stored chunks.
    pub referenced_bytes: u64,
    /// Chunk commits that found the payload already present in the physical
    /// store (uploaded earlier by the same or another user).
    pub server_dedup_hits: u64,
    /// Total accepted chunk commits (new to the committing user).
    pub chunk_puts: u64,
    /// Manifests hard-deleted via [`ObjectStore::delete_manifest`] or
    /// [`ObjectStore::purge_user`] (the soft §4.3 delete is not counted).
    pub manifest_deletes: u64,
    /// Bytes reclaimed by garbage collection (eager frees and mark-sweep
    /// passes combined).
    pub reclaimed_bytes: u64,
    /// Physical chunk entries freed by garbage collection.
    pub freed_chunks: u64,
}

impl AggregateStats {
    /// Server-side deduplication ratio: logical chunk bytes over physical
    /// bytes (1.0 = no redundancy across users, higher = more savings).
    /// 0.0 when the store holds no physical bytes — an empty store, or one
    /// churn + GC fully reclaimed — never NaN or infinite.
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            0.0
        } else {
            self.referenced_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// When (if ever) the store frees chunk entries whose owner count reaches
/// zero after manifest hard-deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum GcPolicy {
    /// Free the physical entry the moment its last owner releases it.
    Eager,
    /// Leave owner-less entries in place until a [`ObjectStore::collect_garbage`]
    /// pass sweeps them. Without such passes this is the original
    /// never-collect behaviour, so it is the default.
    #[default]
    MarkSweep,
}

impl GcPolicy {
    /// Stable lowercase label (used in report rows and metric keys).
    pub fn label(&self) -> &'static str {
        match self {
            GcPolicy::Eager => "eager",
            GcPolicy::MarkSweep => "mark_sweep",
        }
    }
}

/// What one garbage-collection pass (or eager release) freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct GcStats {
    /// Physical chunk entries removed.
    pub freed_chunks: u64,
    /// Stored bytes reclaimed.
    pub freed_bytes: u64,
}

/// An interned user name, handed out by [`ObjectStore::intern_user`]. Valid
/// only for the store (and its clones) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(u32);

/// An interned file path, handed out by [`ObjectStore::intern_path`]. Paths
/// are shared across users — a population committing the same eight paths
/// interns eight. Valid only for the store (and its clones) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(u32);

/// Interning would need an id past `u32::MAX`: the store cannot index
/// another user or path. An error, never a wrapped id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpaceExhausted {
    what: &'static str,
}

impl std::fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the store cannot index another {}: its u32 id space is exhausted", self.what)
    }
}

impl std::error::Error for IdSpaceExhausted {}

/// Packs a shard-local slot and its shard into one id (`slot * shards +
/// shard`), so an id names its shard without a lookup. `None` past
/// `u32::MAX`.
fn pack_id(slot: usize, shard: usize, shards: usize) -> Option<u32> {
    slot.checked_mul(shards)?.checked_add(shard).and_then(|id| u32::try_from(id).ok())
}

/// The inverse of [`pack_id`]: `(shard, slot)`.
fn unpack_id(id: u32, shards: usize) -> (usize, usize) {
    (id as usize % shards, id as usize / shards)
}

/// One shard of a name interner: names in first-seen order, and their
/// index. The `Arc` is shared between the two, so a name is stored once.
#[derive(Debug, Default)]
struct Names {
    slots: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Names {
    /// The slot of `name`, interning it when new. `shard` of `shards` is
    /// where this interner sits, so a slot whose id would not fit is
    /// refused before anything is inserted.
    fn intern(&mut self, name: &str, shard: usize, shards: usize) -> Option<u32> {
        if let Some(&slot) = self.slots.get(name) {
            return Some(slot);
        }
        pack_id(self.names.len(), shard, shards)?;
        let slot = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.slots.insert(name.clone(), slot);
        self.names.push(name);
        Some(slot)
    }
}

/// A hasher for keys that hash themselves: the key writes one already
/// mixed `u64` and the table uses it as is.
#[derive(Debug, Default, Clone, Copy)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("store table keys hash themselves through write_u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Table<K, V> = HashMap<K, V, BuildHasherDefault<PreHashed>>;

/// Eight bytes of a content hash as the in-table hash word. Not the
/// leading bytes: those pick the chunk shard, so inside one shard some of
/// their bits are constant.
fn hash_word(hash: &ContentHash) -> u64 {
    u64::from_le_bytes(hash.0[8..16].try_into().expect("eight bytes"))
}

/// One chunk as one user holds it.
#[derive(Debug)]
struct UserChunk {
    /// The user's own uploaded representation, not the canonical one.
    stored_len: u64,
    plain_len: u64,
    /// Occurrences across the user's *live* manifests. A chunk at zero
    /// stays held (retention for §4.3 restores and client-side dedup
    /// consistency) until a hard delete releases it.
    refs: u32,
    /// The count once dropped to zero through a *supersede* (a manifest
    /// replacing the same path). The retention promise of
    /// [`ObjectStore::commit_manifest`] then covers the chunk even if a
    /// later manifest re-references it and is hard-deleted — only
    /// [`ObjectStore::purge_user`] releases it.
    retained: bool,
}

/// A manifest's chunk list; the one-chunk case (every fleet-scale file)
/// needs no allocation.
#[derive(Debug)]
enum ChunkList {
    One(ContentHash),
    Many(Box<[ContentHash]>),
}

impl ChunkList {
    fn as_slice(&self) -> &[ContentHash] {
        match self {
            ChunkList::One(hash) => std::slice::from_ref(hash),
            ChunkList::Many(hashes) => hashes,
        }
    }
}

impl From<&[ContentHash]> for ChunkList {
    fn from(hashes: &[ContentHash]) -> ChunkList {
        match hashes {
            [hash] => ChunkList::One(*hash),
            _ => ChunkList::Many(hashes.into()),
        }
    }
}

/// One live manifest.
#[derive(Debug)]
struct FileEntry {
    size: u64,
    version: u64,
    chunks: ChunkList,
}

/// Everything the store keeps for one user: the counters and the user's
/// two row lists, each sorted by its key and searched by bisection.
#[derive(Debug, Default)]
struct UserRecord {
    next_version: u64,
    /// Plaintext bytes of the live manifests.
    logical_bytes: u64,
    /// The chunks the user holds, sorted by hash.
    held: Vec<(ContentHash, UserChunk)>,
    /// The live manifests, sorted by path id.
    files: Vec<(PathId, FileEntry)>,
}

impl UserRecord {
    fn is_empty(&self) -> bool {
        self.held.is_empty() && self.files.is_empty()
    }

    /// Where `hash` is held (`Ok`) or would be inserted (`Err`).
    fn find_held(&self, hash: &ContentHash) -> Result<usize, usize> {
        self.held.binary_search_by(|(held, _)| held.cmp(hash))
    }

    /// Where `path` has its live manifest (`Ok`) or would get one (`Err`).
    fn find_file(&self, path: PathId) -> Result<usize, usize> {
        self.files.binary_search_by_key(&path.0, |(live, _)| live.0)
    }

    fn held_mut(&mut self, hash: &ContentHash) -> Option<&mut UserChunk> {
        self.find_held(hash).ok().map(|at| &mut self.held[at].1)
    }
}

/// Inserts a row at the place its key's bisection reported. A list's first
/// row sizes it to `capacity` ([`ObjectStore::reserve`]'s per-user number;
/// a refused request is ignored and the list grows by doubling as usual).
fn insert_row<T>(rows: &mut Vec<T>, at: usize, row: T, capacity: usize) {
    if rows.capacity() == 0 {
        let _ = rows.try_reserve_exact(capacity);
    }
    rows.insert(at, row);
}

/// One user shard: the users whose name hashes here, one record each.
#[derive(Debug, Default)]
struct UserShard {
    names: Names,
    /// Parallel to `names.names`.
    records: Vec<UserRecord>,
    /// What a record's `held` and `files` lists are sized to on their
    /// first row.
    held_capacity: usize,
    files_capacity: usize,
    chunk_puts: u64,
    referenced_bytes: u64,
    manifest_deletes: u64,
}

/// Key of the physical table. The chunk shard already consumed the hash's
/// leading bytes, so the table hashes another word of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhysicalKey(ContentHash);

impl Hash for PhysicalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(hash_word(&self.0));
    }
}

/// One entry of the physical content-addressed chunk table.
#[derive(Debug)]
struct ChunkEntry {
    /// The most compact representation any committer reported.
    stored_len: u64,
    plain_len: u64,
    /// Number of distinct users referencing the chunk.
    owners: u64,
    /// The plaintext chunk payload, when the committer provided it (see
    /// [`ObjectStore::put_chunk_with_payload`]). Restores are served from
    /// here; metadata-only commits leave it `None` and a restore of such a
    /// chunk reports [`crate::restore::RestoreError::PayloadUnavailable`].
    /// `Arc` because concurrent restores share the bytes without copying.
    payload: Option<Arc<[u8]>>,
}

/// One chunk shard: its slice of the physical table and of the counters.
#[derive(Debug, Default)]
struct ChunkShard {
    table: Table<PhysicalKey, ChunkEntry>,
    physical_bytes: u64,
    server_dedup_hits: u64,
    reclaimed_bytes: u64,
    freed_chunks: u64,
}

impl ChunkShard {
    /// The physical half of a put: one more owner for the chunk when it is
    /// `new_to_user` (its first owner creates the entry; a later one is a
    /// server-side dedup hit and may bring a more compact representation),
    /// and the payload for an entry that has none.
    fn admit(&mut self, chunk: &StoredChunk, new_to_user: bool, payload: Option<&[u8]>) {
        match self.table.entry(PhysicalKey(chunk.hash)) {
            Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if new_to_user {
                    entry.owners += 1;
                    if chunk.stored_len < entry.stored_len {
                        self.physical_bytes -= entry.stored_len - chunk.stored_len;
                        entry.stored_len = chunk.stored_len;
                        entry.plain_len = chunk.plain_len;
                    }
                    self.server_dedup_hits += 1;
                }
                if entry.payload.is_none() {
                    entry.payload = payload.map(Arc::from);
                }
            }
            // A user holding a chunk implies its physical entry, so only a
            // chunk new to the user creates one.
            Entry::Vacant(vacant) if new_to_user => {
                self.physical_bytes += chunk.stored_len;
                vacant.insert(ChunkEntry {
                    stored_len: chunk.stored_len,
                    plain_len: chunk.plain_len,
                    owners: 1,
                    payload: payload.map(Arc::from),
                });
            }
            Entry::Vacant(_) => {}
        }
    }

    /// Frees an owner-less entry's bytes in the counters (the caller
    /// removes the entry itself).
    fn account_freed(&mut self, chunks: u64, bytes: u64) {
        self.physical_bytes -= bytes;
        self.reclaimed_bytes += bytes;
        self.freed_chunks += chunks;
    }
}

#[cfg(test)]
thread_local! {
    /// Shard write locks a write path took on this thread.
    static WRITE_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one shard write lock taken by a write path, for the test that
/// pins the locks a commit costs; compiled out of everything else.
fn count_write_lock() {
    #[cfg(test)]
    WRITE_LOCKS.with(|locks| locks.set(locks.get() + 1));
}

#[derive(Debug)]
struct StoreInner {
    user_shards: Box<[RwLock<UserShard>]>,
    chunk_shards: Box<[RwLock<ChunkShard>]>,
    path_shards: Box<[RwLock<Names>]>,
    policy: GcPolicy,
}

/// The server-side object store, shared by control and storage servers of a
/// simulated service — and, since the fleet harness exists, by every client
/// of a multi-user fleet. Clones share the same underlying shards.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    inner: Arc<StoreInner>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::new()
    }
}

/// Default shard count for every shard array. Enough to keep a 32-client
/// fleet's writers on distinct locks with high probability while staying
/// cheap to iterate for aggregate reads.
pub const DEFAULT_SHARDS: usize = 16;

fn shard_for_name(name: &str, shards: usize) -> usize {
    // FNV-1a over the name; stable across runs (no RandomState).
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards as u64) as usize
}

fn shard_for_chunk(hash: &ContentHash, shards: usize) -> usize {
    // SHA-256 output is uniform: the first bytes are an ideal shard key.
    (u16::from_be_bytes([hash.0[0], hash.0[1]]) as usize) % shards
}

fn shards_of<T: Default>(shards: usize) -> Box<[RwLock<T>]> {
    (0..shards).map(|_| RwLock::new(T::default())).collect()
}

impl ObjectStore {
    /// Creates an empty store with [`DEFAULT_SHARDS`] lock shards and the
    /// default (never-collecting-until-swept) [`GcPolicy::MarkSweep`].
    pub fn new() -> Self {
        ObjectStore::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store with an explicit shard count (1 = the original
    /// single-lock layout, used as the contention baseline in benches).
    pub fn with_shards(shards: usize) -> Self {
        ObjectStore::with_shards_and_policy(shards, GcPolicy::default())
    }

    /// Creates an empty default-sharded store with an explicit GC policy.
    pub fn with_policy(policy: GcPolicy) -> Self {
        ObjectStore::with_shards_and_policy(DEFAULT_SHARDS, policy)
    }

    /// Creates an empty store with explicit shard count and GC policy.
    pub fn with_shards_and_policy(shards: usize, policy: GcPolicy) -> Self {
        let shards = shards.max(1);
        ObjectStore {
            inner: Arc::new(StoreInner {
                user_shards: shards_of(shards),
                chunk_shards: shards_of(shards),
                path_shards: shards_of(shards),
                policy,
            }),
        }
    }

    /// Number of lock shards in each shard array.
    pub fn shard_count(&self) -> usize {
        self.inner.user_shards.len()
    }

    /// The garbage-collection policy this store was built with.
    pub fn gc_policy(&self) -> GcPolicy {
        self.inner.policy
    }

    /// Interns a user name. The same name always yields the same id; a new
    /// name creates an (empty) record in the shard its name hashes to.
    /// Fails instead of wrapping once that shard's ids pass `u32::MAX` — a
    /// default-sharded store indexes at least `u32::MAX / DEFAULT_SHARDS`
    /// users.
    pub fn intern_user(&self, name: &str) -> Result<UserId, IdSpaceExhausted> {
        let shards = self.shard_count();
        let shard = shard_for_name(name, shards);
        let slot = self.inner.user_shards[shard].write().intern(name, shard, shards)?;
        Ok(UserId(pack_id(slot as usize, shard, shards).expect("interned slots fit")))
    }

    /// Interns a file path; see [`ObjectStore::intern_user`] for the
    /// contract. Paths are interned store-wide, not per user.
    pub fn intern_path(&self, path: &str) -> Result<PathId, IdSpaceExhausted> {
        // Steady state is a hit: look under the read lock first.
        if let Some(known) = self.known_path(path) {
            return Ok(known);
        }
        let shards = self.shard_count();
        let shard = shard_for_name(path, shards);
        let slot = self.inner.path_shards[shard]
            .write()
            .intern(path, shard, shards)
            .ok_or(IdSpaceExhausted { what: "path" })?;
        Ok(PathId(pack_id(slot as usize, shard, shards).expect("interned slots fit")))
    }

    /// The id of a path some commit already interned.
    fn known_path(&self, path: &str) -> Option<PathId> {
        let shards = self.shard_count();
        let shard = shard_for_name(path, shards);
        let slot = self.inner.path_shards[shard].read().slots.get(path).copied()?;
        pack_id(slot as usize, shard, shards).map(PathId)
    }

    fn path_name(&self, path: PathId) -> String {
        let (shard, slot) = unpack_id(path.0, self.shard_count());
        self.inner.path_shards[shard].read().names[slot].to_string()
    }

    /// Write-locks the shard of the user a `&str` write names and resolves
    /// the user's slot in it, interning the name under that same lock. The
    /// `&str` write methods predate ids and cannot report exhaustion, so
    /// there it panics.
    fn write_named(&self, user: &str) -> (RwLockWriteGuard<'_, UserShard>, u32) {
        let shards = self.shard_count();
        let shard = shard_for_name(user, shards);
        count_write_lock();
        let mut guard = self.inner.user_shards[shard].write();
        let slot = guard.intern(user, shard, shards).unwrap_or_else(|e| panic!("{e}"));
        (guard, slot)
    }

    /// Write-locks the shard an interned user's id names.
    fn write_id(&self, user: UserId) -> (RwLockWriteGuard<'_, UserShard>, u32) {
        let (shard, slot) = unpack_id(user.0, self.shard_count());
        count_write_lock();
        (self.inner.user_shards[shard].write(), slot as u32)
    }

    /// Write-locks the shard of a user some write already interned.
    fn write_known(&self, user: &str) -> Option<(RwLockWriteGuard<'_, UserShard>, u32)> {
        let guard = self.inner.user_shards[shard_for_name(user, self.shard_count())].write();
        let slot = *guard.names.slots.get(user)?;
        Some((guard, slot))
    }

    /// Read-locks the shard of a user some write already interned.
    fn read_known(&self, user: &str) -> Option<(RwLockReadGuard<'_, UserShard>, u32)> {
        let guard = self.inner.user_shards[shard_for_name(user, self.shard_count())].read();
        let slot = *guard.names.slots.get(user)?;
        Some((guard, slot))
    }

    fn chunk_shard(&self, hash: &ContentHash) -> &RwLock<ChunkShard> {
        &self.inner.chunk_shards[shard_for_chunk(hash, self.inner.chunk_shards.len())]
    }

    /// Write-locks the chunk shard of a hash a put admits.
    fn write_chunks(&self, hash: &ContentHash) -> RwLockWriteGuard<'_, ChunkShard> {
        count_write_lock();
        self.chunk_shard(hash).write()
    }

    /// True when *any* user has stored this chunk — the inter-user question a
    /// dedup-capable server answers before accepting an upload.
    pub fn has_chunk_globally(&self, hash: &ContentHash) -> bool {
        self.chunk_shard(hash).read().table.contains_key(&PhysicalKey(*hash))
    }

    /// Stores a chunk payload for a user. Returns `true` when the chunk was
    /// new *to this user*, `false` when the user already had it (nothing is
    /// overwritten either way).
    ///
    /// Physically the payload is stored at most once across all users: a put
    /// whose hash another user already committed only adds a reference, and
    /// the canonical stored size is the minimum any committer reported (the
    /// server keeps the most compact representation it has seen — `min` is
    /// commutative, which keeps aggregate stats independent of commit order).
    pub fn put_chunk(&self, user: &str, chunk: StoredChunk) -> bool {
        self.put(user, chunk, None)
    }

    /// [`ObjectStore::put_chunk`] carrying the plaintext chunk payload, so
    /// restores can reassemble byte-identical file content. The payload is
    /// kept at most once per physical entry regardless of how many users
    /// commit it (hash-equal plaintexts are identical bytes, so which
    /// committer's copy survives is unobservable), and it is freed together
    /// with the entry when garbage collection reclaims it. A user who
    /// already holds the chunk metadata-only still contributes the payload
    /// (the put returns `false` and no counter moves). Like a server, the
    /// store does not hash what it is handed: a restore checks every chunk
    /// it serves against the manifest's hash instead
    /// ([`crate::restore::RestoreError::Corrupt`]).
    pub fn put_chunk_with_payload(&self, user: &str, chunk: StoredChunk, payload: &[u8]) -> bool {
        debug_assert_eq!(payload.len() as u64, chunk.plain_len);
        self.put(user, chunk, Some(payload))
    }

    fn put(&self, user: &str, chunk: StoredChunk, payload: Option<&[u8]>) -> bool {
        // Lock discipline: user shard first, released before the chunk shard
        // is taken — the two arrays are never held simultaneously.
        let new_to_user = {
            let (mut guard, slot) = self.write_named(user);
            guard.hold(slot, &chunk, 0)
        };
        if new_to_user || payload.is_some() {
            self.write_chunks(&chunk.hash).admit(&chunk, new_to_user, payload);
        }
        new_to_user
    }

    /// Commits a file manifest (creating or replacing the path). Returns the
    /// version number assigned. Panics if any referenced chunk is missing
    /// from the user's namespace — a protocol error a real service would
    /// reject as well.
    ///
    /// Reference accounting: the new manifest's chunk occurrences are
    /// counted; a replaced revision's occurrences are released *logically*
    /// (the counts drop) but its chunks stay retained in the namespace, so
    /// a client's dedup query still finds them and §4.3 restores stay free.
    pub fn commit_manifest(&self, user: &str, manifest: FileManifest) -> u64 {
        let path = self.intern_path(&manifest.path).unwrap_or_else(|e| panic!("{e}"));
        let (mut guard, slot) = self.write_named(user);
        guard.reference(slot, &manifest.chunks);
        guard.publish(slot, path, manifest.size, manifest.chunks.as_slice().into())
    }

    /// Commits a batch of one-chunk files for an interned user: for each
    /// file, in order, exactly [`ObjectStore::put_chunk`] followed by
    /// [`ObjectStore::commit_manifest`] of a manifest holding that one
    /// chunk (its size the chunk's `plain_len`) — the fleet-scale write
    /// path, one call per commit whatever its file count. Returns the
    /// user's version counter after the batch: the version of the last
    /// file, the files before it holding the versions counting down from
    /// there.
    ///
    /// The batch is the bundling client of §5: the user shard is
    /// write-locked **once**, each file costs one search of the user's held
    /// rows (a chunk new to the user enters them already referenced, a held
    /// one gains a reference) and one of the user's manifest rows, and only
    /// after that lock is released does each chunk that was new to the user
    /// take its chunk shard's lock. Beyond the user's rows nothing is
    /// allocated for batches of up to 256 files.
    pub fn commit_files_by_id(&self, user: UserId, files: &[(PathId, StoredChunk)]) -> u64 {
        // One bit per file: was its chunk new to the user?
        let mut inline = [0u64; 4];
        let mut spilled;
        let new_to_user = if files.len() <= 64 * inline.len() {
            &mut inline[..]
        } else {
            spilled = vec![0u64; files.len().div_ceil(64)];
            &mut spilled[..]
        };
        let version = {
            let (mut guard, slot) = self.write_id(user);
            let us = &mut *guard;
            for (i, (path, chunk)) in files.iter().enumerate() {
                new_to_user[i / 64] |= u64::from(us.hold(slot, chunk, 1)) << (i % 64);
                us.publish(slot, *path, chunk.plain_len, ChunkList::One(chunk.hash));
            }
            us.records[slot as usize].next_version
        };
        for (i, (_, chunk)) in files.iter().enumerate() {
            if new_to_user[i / 64] >> (i % 64) & 1 == 1 {
                self.write_chunks(&chunk.hash).admit(chunk, true, None);
            }
        }
        version
    }

    /// Tells the store what is about to be written — `users` more users,
    /// each holding `chunks_per_user` chunks in `files_per_user` files, and
    /// `unique_chunks` more physical chunks — so the user records, the name
    /// index and the physical table can grow to their final size once
    /// instead of doubling their way there (a doubling holds the old and
    /// the new table at once), and a record's two row lists are allocated
    /// once, exactly, on their first row. Purely a capacity hint: nothing a
    /// caller can read changes, a request the allocator refuses is ignored,
    /// and a store that already has the room does nothing.
    pub fn reserve(
        &self,
        users: usize,
        chunks_per_user: usize,
        files_per_user: usize,
        unique_chunks: usize,
    ) {
        // An even share per shard plus a sixteenth for the shards the names
        // favour. No more: a table is sized to a power of two, and a wider
        // margin would land it one above where doubling would have ended.
        let shards = self.shard_count();
        let share = |total: usize| {
            let even = total.div_ceil(shards);
            even.saturating_add(even / 16)
        };
        for shard in self.inner.user_shards.iter() {
            let mut guard = shard.write();
            let us = &mut *guard;
            let _ = us.names.slots.try_reserve(share(users));
            let _ = us.names.names.try_reserve(share(users));
            let _ = us.records.try_reserve(share(users));
            us.held_capacity = chunks_per_user;
            us.files_capacity = files_per_user;
        }
        for shard in self.inner.chunk_shards.iter() {
            let _ = shard.write().table.try_reserve(share(unique_chunks));
        }
    }

    /// Hard-deletes a file manifest and releases the chunks no remaining
    /// live manifest of the user references — the departure path churning
    /// fleets take, as opposed to the §4.3 soft [`ObjectStore::delete_file`].
    /// Chunks under the supersede retention promise of
    /// [`ObjectStore::commit_manifest`] are kept even at zero references
    /// (only [`ObjectStore::purge_user`] releases those). Returns the
    /// released stored bytes (the user's own representation), or `None` when
    /// the path had no live manifest.
    ///
    /// A hard delete means the data is *gone* server-side: the released
    /// chunks leave the user's held chunks, so a client that asks
    /// [`ObjectStore::chunk`] before uploading (the planner's dedup query)
    /// uploads them again.
    pub fn delete_manifest(&self, user: &str, path: &str) -> Option<u64> {
        let path = self.known_path(path)?;
        let (released, released_bytes) = {
            let (mut guard, slot) = self.write_known(user)?;
            let us = &mut *guard;
            let manifest = us.remove_file(slot, path)?;
            let record = &mut us.records[slot as usize];
            let mut released = Vec::new();
            let mut released_bytes = 0u64;
            for hash in manifest.chunks.as_slice() {
                // A manifest may reference a hash several times; the chunk
                // can be released on an earlier occurrence.
                let Ok(at) = record.find_held(hash) else { continue };
                let held = &mut record.held[at].1;
                held.refs = held.refs.saturating_sub(1);
                // An earlier supersede may have promised to keep the chunk
                // (restores and client-side dedup may rely on it).
                if held.refs == 0 && !held.retained {
                    released_bytes += held.stored_len;
                    record.held.remove(at);
                    released.push(*hash);
                }
            }
            us.referenced_bytes -= released_bytes;
            us.manifest_deletes += 1;
            (released, released_bytes)
        };
        self.release_chunks(&released);
        Some(released_bytes)
    }

    /// Hard-deletes a whole user namespace: every live manifest plus every
    /// retained chunk (soft-deleted and superseded revisions included). This
    /// is what a fleet client leaving the service calls. Returns the released
    /// stored bytes.
    pub fn purge_user(&self, user: &str) -> u64 {
        let (released, released_bytes) = {
            let Some((mut guard, slot)) = self.write_known(user) else {
                return 0;
            };
            let us = &mut *guard;
            // The record (and the user's id) stays; its rows go.
            let record = std::mem::take(&mut us.records[slot as usize]);
            let released_bytes: u64 = record.held.iter().map(|(_, held)| held.stored_len).sum();
            us.referenced_bytes -= released_bytes;
            us.manifest_deletes += record.files.len() as u64;
            (record.held, released_bytes)
        };
        self.release_chunks(released.iter().map(|(hash, _)| hash));
        released_bytes
    }

    /// Releases chunks a user no longer holds: each physical entry loses
    /// one owner. Owner-less entries are freed immediately under
    /// [`GcPolicy::Eager`] and left for [`ObjectStore::collect_garbage`]
    /// under [`GcPolicy::MarkSweep`]. Releases only decrement, so
    /// concurrent releases commute.
    fn release_chunks<'a>(&self, released: impl IntoIterator<Item = &'a ContentHash>) {
        for hash in released {
            let mut guard = self.chunk_shard(hash).write();
            let Some(entry) = guard.table.get_mut(&PhysicalKey(*hash)) else { continue };
            entry.owners = entry.owners.saturating_sub(1);
            if entry.owners == 0 && self.inner.policy == GcPolicy::Eager {
                let freed = entry.stored_len;
                guard.table.remove(&PhysicalKey(*hash));
                guard.account_freed(1, freed);
            }
        }
    }

    /// Sweeps every chunk shard, freeing entries no user owns any more. The
    /// periodic companion of [`GcPolicy::MarkSweep`]; a no-op (zero stats)
    /// under [`GcPolicy::Eager`], where releases already freed everything.
    pub fn collect_garbage(&self) -> GcStats {
        let mut pass = GcStats::default();
        for shard in self.inner.chunk_shards.iter() {
            let mut guard = shard.write();
            let mut swept = GcStats::default();
            guard.table.retain(|_, entry| {
                if entry.owners > 0 {
                    return true;
                }
                swept.freed_chunks += 1;
                swept.freed_bytes += entry.stored_len;
                false
            });
            guard.account_freed(swept.freed_chunks, swept.freed_bytes);
            pass.freed_chunks += swept.freed_chunks;
            pass.freed_bytes += swept.freed_bytes;
        }
        pass
    }

    /// Fetches the current manifest of a path.
    pub fn manifest(&self, user: &str, path: &str) -> Option<FileManifest> {
        let key_path = self.known_path(path)?;
        let (guard, slot) = self.read_known(user)?;
        let record = &guard.records[slot as usize];
        let entry = &record.files[record.find_file(key_path).ok()?].1;
        Some(FileManifest {
            path: path.to_string(),
            size: entry.size,
            chunks: entry.chunks.as_slice().to_vec(),
            version: entry.version,
        })
    }

    /// Deletes a file. The chunks it referenced are *not* garbage-collected
    /// (their reference counts are left alone, so no later hard delete of
    /// another path releases them either), matching the delete/restore
    /// observation of §4.3. Returns `true` when a file was removed.
    pub fn delete_file(&self, user: &str, path: &str) -> bool {
        let Some(path) = self.known_path(path) else {
            return false;
        };
        self.write_known(user)
            .is_some_and(|(mut guard, slot)| guard.remove_file(slot, path).is_some())
    }

    /// Lists the live file paths of a user, sorted.
    pub fn list_files(&self, user: &str) -> Vec<String> {
        let ids: Vec<PathId> = match self.read_known(user) {
            Some((guard, slot)) => {
                guard.records[slot as usize].files.iter().map(|row| row.0).collect()
            }
            None => return Vec::new(),
        };
        let mut paths: Vec<String> = ids.iter().map(|&id| self.path_name(id)).collect();
        paths.sort();
        paths
    }

    /// Returns a stored chunk record as the user sees it (their own uploaded
    /// representation, not the canonical physical one).
    pub fn chunk(&self, user: &str, hash: &ContentHash) -> Option<StoredChunk> {
        let (guard, slot) = self.read_known(user)?;
        let record = &guard.records[slot as usize];
        let held = &record.held[record.find_held(hash).ok()?].1;
        Some(StoredChunk { hash: *hash, stored_len: held.stored_len, plain_len: held.plain_len })
    }

    /// The plaintext payload of a physical chunk, when a committer provided
    /// one via [`ObjectStore::put_chunk_with_payload`]. `None` for unknown
    /// (or garbage-collected) hashes and for metadata-only commits. The
    /// restore pipeline serves file reconstructions from here.
    pub fn chunk_payload(&self, hash: &ContentHash) -> Option<Arc<[u8]>> {
        self.chunk_shard(hash).read().table.get(&PhysicalKey(*hash)).and_then(|e| e.payload.clone())
    }

    /// Aggregate statistics of a user's namespace.
    pub fn stats(&self, user: &str) -> StoreStats {
        let Some((guard, slot)) = self.read_known(user) else {
            return StoreStats::default();
        };
        let record = &guard.records[slot as usize];
        StoreStats {
            files: record.files.len(),
            chunks: record.held.len(),
            stored_bytes: record.held.iter().map(|(_, held)| held.stored_len).sum(),
            logical_bytes: record.logical_bytes,
        }
    }

    /// The user names with a non-empty namespace, sorted.
    pub fn users(&self) -> Vec<String> {
        let mut users = Vec::new();
        for shard in self.inner.user_shards.iter() {
            let guard = shard.read();
            users.extend(
                guard
                    .records
                    .iter()
                    .zip(&guard.names.names)
                    .filter(|(record, _)| !record.is_empty())
                    .map(|(_, name)| name.to_string()),
            );
        }
        users.sort();
        users
    }

    /// Aggregate statistics across every user namespace: the per-shard
    /// counters summed, and the per-user records summed under the user
    /// shards' read locks.
    pub fn aggregate(&self) -> AggregateStats {
        let mut agg = AggregateStats::default();
        for shard in self.inner.user_shards.iter() {
            let guard = shard.read();
            for record in guard.records.iter().filter(|record| !record.is_empty()) {
                agg.users += 1;
                agg.files += record.files.len();
                agg.logical_bytes += record.logical_bytes;
            }
            agg.referenced_bytes += guard.referenced_bytes;
            agg.chunk_puts += guard.chunk_puts;
            agg.manifest_deletes += guard.manifest_deletes;
        }
        for shard in self.inner.chunk_shards.iter() {
            let guard = shard.read();
            agg.unique_chunks += guard.table.len() as u64;
            agg.physical_bytes += guard.physical_bytes;
            agg.server_dedup_hits += guard.server_dedup_hits;
            agg.reclaimed_bytes += guard.reclaimed_bytes;
            agg.freed_chunks += guard.freed_chunks;
        }
        agg
    }
}

impl UserShard {
    /// The user half of a put: user `slot` holds `chunk` from now on, with
    /// `refs` more live-manifest references to it (none for a bare put, one
    /// when the manifest is published under the same lock). Returns `true`
    /// when the chunk was new to the user — the caller then owes the chunk
    /// shard an [`ChunkShard::admit`]. One bisection of the user's held
    /// rows either way.
    fn hold(&mut self, slot: u32, chunk: &StoredChunk, refs: u32) -> bool {
        let record = &mut self.records[slot as usize];
        match record.find_held(&chunk.hash) {
            Ok(at) => {
                let held = &mut record.held[at].1;
                held.refs =
                    held.refs.checked_add(refs).expect("fewer than u32::MAX live references");
                false
            }
            Err(at) => {
                let held = UserChunk {
                    stored_len: chunk.stored_len,
                    plain_len: chunk.plain_len,
                    refs,
                    retained: false,
                };
                insert_row(&mut record.held, at, (chunk.hash, held), self.held_capacity);
                self.chunk_puts += 1;
                self.referenced_bytes += chunk.stored_len;
                true
            }
        }
    }

    /// Counts one live-manifest reference per occurrence in `chunks`, all
    /// of which user `slot` must hold.
    fn reference(&mut self, slot: u32, chunks: &[ContentHash]) {
        let record = &mut self.records[slot as usize];
        for hash in chunks {
            assert!(record.find_held(hash).is_ok(), "manifest references unknown chunk {hash}");
        }
        for hash in chunks {
            let held = record.held_mut(hash).expect("checked above");
            held.refs = held.refs.checked_add(1).expect("fewer than u32::MAX live references");
        }
    }

    /// Publishes a manifest whose chunk references are already counted
    /// ([`UserShard::hold`] or [`UserShard::reference`]): assigns the next
    /// version and creates or replaces the path, releasing a replaced
    /// revision's references logically. Returns the version.
    fn publish(&mut self, slot: u32, path: PathId, size: u64, chunks: ChunkList) -> u64 {
        let record = &mut self.records[slot as usize];
        record.next_version += 1;
        let version = record.next_version;
        record.logical_bytes += size;
        let entry = FileEntry { size, version, chunks };
        match record.find_file(path) {
            Err(at) => insert_row(&mut record.files, at, (path, entry), self.files_capacity),
            Ok(at) => {
                let replaced = std::mem::replace(&mut record.files[at].1, entry);
                record.logical_bytes -= replaced.size;
                for hash in replaced.chunks.as_slice() {
                    if let Some(held) = record.held_mut(hash) {
                        held.refs = held.refs.saturating_sub(1);
                        // The supersede retention promise of `commit_manifest`
                        // outlives any later re-reference: mark the chunk so a
                        // subsequent delete_manifest keeps it.
                        held.retained |= held.refs == 0;
                    }
                }
            }
        }
        version
    }

    /// The slot of `name` in this shard (`shard` of `shards`), interning it
    /// with an empty record when new.
    fn intern(&mut self, name: &str, shard: usize, shards: usize) -> Result<u32, IdSpaceExhausted> {
        let slot =
            self.names.intern(name, shard, shards).ok_or(IdSpaceExhausted { what: "user" })?;
        if self.records.len() < self.names.names.len() {
            self.records.push(UserRecord::default());
        }
        Ok(slot)
    }

    /// Removes a live manifest from the user's rows and logical bytes.
    /// Chunk references are the caller's business.
    fn remove_file(&mut self, slot: u32, path: PathId) -> Option<FileEntry> {
        let record = &mut self.records[slot as usize];
        let (_, entry) = record.files.remove(record.find_file(path).ok()?);
        record.logical_bytes -= entry.size;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::ChunkingStrategy;
    use crate::hash::sha256;

    /// Number of distinct users that committed a given chunk.
    fn owners(store: &ObjectStore, hash: &ContentHash) -> u64 {
        store.chunk_shard(hash).read().table.get(&PhysicalKey(*hash)).map_or(0, |e| e.owners)
    }

    fn stored(data: &[u8]) -> StoredChunk {
        StoredChunk {
            hash: sha256(data),
            stored_len: data.len() as u64,
            plain_len: data.len() as u64,
        }
    }

    #[test]
    fn put_get_and_dedup_of_chunks() {
        let store = ObjectStore::new();
        let c = stored(b"hello chunk");
        assert!(store.chunk("alice", &c.hash).is_none());
        assert!(store.put_chunk("alice", c.clone()));
        assert!(store.chunk("alice", &c.hash).is_some());
        // Second put of the same content is a no-op.
        assert!(!store.put_chunk("alice", c.clone()));
        assert_eq!(store.chunk("alice", &c.hash), Some(c.clone()));
        // Namespaces are isolated per user (logical view)…
        assert!(store.chunk("bob", &c.hash).is_none());
        assert_eq!(store.chunk("bob", &c.hash), None);
        // …but the physical store knows the chunk globally.
        assert!(store.has_chunk_globally(&c.hash));
        assert_eq!(owners(&store, &c.hash), 1);
    }

    #[test]
    fn manifests_commit_and_version() {
        let store = ObjectStore::new();
        let data = vec![9u8; 100_000];
        let chunks = ChunkingStrategy::Fixed { size: 30_000 }.chunk(&data);
        for ch in &chunks {
            store.put_chunk(
                "alice",
                StoredChunk { hash: ch.hash, stored_len: ch.len, plain_len: ch.len },
            );
        }
        let manifest = FileManifest::from_chunks("docs/report.bin", &chunks, 0);
        assert_eq!(manifest.size, 100_000);
        let v1 = store.commit_manifest("alice", manifest.clone());
        let v2 = store.commit_manifest("alice", manifest);
        assert_eq!(v1, 1);
        assert_eq!(v2, 2);
        let fetched = store.manifest("alice", "docs/report.bin").unwrap();
        assert_eq!(fetched.version, 2);
        assert_eq!(fetched.chunks.len(), chunks.len());
        assert_eq!(store.list_files("alice"), vec!["docs/report.bin".to_string()]);
    }

    #[test]
    #[should_panic(expected = "manifest references unknown chunk")]
    fn committing_a_manifest_with_missing_chunks_panics() {
        let store = ObjectStore::new();
        let manifest = FileManifest {
            path: "x".into(),
            size: 10,
            chunks: vec![sha256(b"never uploaded")],
            version: 0,
        };
        store.commit_manifest("alice", manifest);
    }

    #[test]
    #[should_panic(expected = "manifest references unknown chunk")]
    fn another_users_chunks_do_not_satisfy_a_manifest() {
        let store = ObjectStore::new();
        let c = stored(b"bob's bytes");
        store.put_chunk("bob", c.clone());
        let manifest =
            FileManifest { path: "x".into(), size: 10, chunks: vec![c.hash], version: 0 };
        store.commit_manifest("alice", manifest);
    }

    #[test]
    fn delete_keeps_chunks_for_later_restore() {
        let store = ObjectStore::new();
        let c = stored(b"content that will be deleted");
        store.put_chunk("alice", c.clone());
        let manifest = FileManifest {
            path: "a.bin".into(),
            size: c.plain_len,
            chunks: vec![c.hash],
            version: 0,
        };
        store.commit_manifest("alice", manifest);
        assert!(store.delete_file("alice", "a.bin"));
        assert!(!store.delete_file("alice", "a.bin"));
        assert!(store.manifest("alice", "a.bin").is_none());
        // The chunk survives deletion, so a restore needs no re-upload.
        assert!(store.chunk("alice", &c.hash).is_some());
        let stats = store.stats("alice");
        assert_eq!(stats.files, 0);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn stats_reflect_logical_and_stored_bytes() {
        let store = ObjectStore::new();
        assert_eq!(store.stats("nobody"), StoreStats::default());
        let c1 = stored(&vec![1u8; 1000]);
        let c2 = StoredChunk { hash: sha256(b"compressed"), stored_len: 400, plain_len: 1000 };
        store.put_chunk("alice", c1.clone());
        store.put_chunk("alice", c2.clone());
        store.commit_manifest(
            "alice",
            FileManifest { path: "f1".into(), size: 1000, chunks: vec![c1.hash], version: 0 },
        );
        store.commit_manifest(
            "alice",
            FileManifest { path: "f2".into(), size: 1000, chunks: vec![c2.hash], version: 0 },
        );
        let stats = store.stats("alice");
        assert_eq!(stats.files, 2);
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.stored_bytes, 1400);
        assert_eq!(stats.logical_bytes, 2000);
    }

    #[test]
    fn store_handles_are_shared_clones() {
        let store = ObjectStore::new();
        let clone = store.clone();
        clone.put_chunk("alice", stored(b"via clone"));
        assert!(store.chunk("alice", &sha256(b"via clone")).is_some());
    }

    #[test]
    fn inter_user_dedup_stores_bytes_once() {
        let store = ObjectStore::new();
        let shared = stored(&vec![7u8; 5000]);
        let private = stored(b"only alice");
        assert!(store.put_chunk("alice", shared.clone()));
        assert!(store.put_chunk("alice", private.clone()));
        // Bob uploads the same shared payload: accepted (new to him), but the
        // server physically keeps one copy.
        assert!(store.put_chunk("bob", shared.clone()));
        let agg = store.aggregate();
        assert_eq!(agg.unique_chunks, 2);
        assert_eq!(agg.physical_bytes, 5000 + private.stored_len);
        assert_eq!(agg.referenced_bytes, 2 * 5000 + private.stored_len);
        assert_eq!(agg.server_dedup_hits, 1);
        assert_eq!(agg.chunk_puts, 3);
        assert!(agg.dedup_ratio() > 1.0);
        assert_eq!(owners(&store, &shared.hash), 2);
        // Per-user views are unaffected.
        assert_eq!(store.stats("alice").chunks, 2);
        assert_eq!(store.stats("bob").chunks, 1);
    }

    #[test]
    fn canonical_stored_size_is_the_minimum_seen() {
        let store = ObjectStore::new();
        let hash = sha256(b"same plaintext");
        // Alice's service compresses poorly, Bob's well; order must not
        // matter for the physical accounting.
        store.put_chunk("alice", StoredChunk { hash, stored_len: 900, plain_len: 1000 });
        store.put_chunk("bob", StoredChunk { hash, stored_len: 600, plain_len: 1000 });
        assert_eq!(store.aggregate().physical_bytes, 600);

        let store2 = ObjectStore::new();
        store2.put_chunk("bob", StoredChunk { hash, stored_len: 600, plain_len: 1000 });
        store2.put_chunk("alice", StoredChunk { hash, stored_len: 900, plain_len: 1000 });
        assert_eq!(store2.aggregate().physical_bytes, 600);
        assert_eq!(store.aggregate(), store2.aggregate());
    }

    #[test]
    fn users_and_aggregate_cover_all_namespaces() {
        let store = ObjectStore::new();
        for user in ["u1", "u2", "u3"] {
            let c = stored(user.as_bytes());
            store.put_chunk(user, c.clone());
            store.commit_manifest(
                user,
                FileManifest {
                    path: "f".into(),
                    size: c.plain_len,
                    chunks: vec![c.hash],
                    version: 0,
                },
            );
        }
        assert_eq!(store.users(), vec!["u1", "u2", "u3"]);
        let agg = store.aggregate();
        assert_eq!(agg.users, 3);
        assert_eq!(agg.files, 3);
        assert_eq!(agg.unique_chunks, 3);
        assert_eq!(agg.logical_bytes, 6);
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        let sharded = ObjectStore::with_shards(16);
        let single = ObjectStore::with_shards(1);
        assert_eq!(sharded.shard_count(), 16);
        assert_eq!(single.shard_count(), 1);
        for store in [&sharded, &single] {
            for i in 0..50u32 {
                let user = format!("user-{}", i % 5);
                store.put_chunk(&user, stored(&i.to_le_bytes()));
            }
        }
        assert_eq!(sharded.aggregate(), single.aggregate());
        for i in 0..5 {
            let user = format!("user-{i}");
            assert_eq!(sharded.stats(&user), single.stats(&user));
        }
    }

    #[test]
    fn concurrent_access_from_multiple_threads() {
        let store = ObjectStore::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let data = format!("thread {t} chunk {i}");
                    store.put_chunk("shared", stored(data.as_bytes()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats("shared").chunks, 400);
        assert_eq!(store.aggregate().unique_chunks, 400);
    }

    fn manifest_for(path: &str, chunks: &[&StoredChunk]) -> FileManifest {
        FileManifest {
            path: path.into(),
            size: chunks.iter().map(|c| c.plain_len).sum(),
            chunks: chunks.iter().map(|c| c.hash).collect(),
            version: 0,
        }
    }

    #[test]
    fn delete_manifest_releases_unreferenced_chunks_eagerly() {
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let private = stored(b"alice only");
        let shared = stored(b"in two files");
        store.put_chunk("alice", private.clone());
        store.put_chunk("alice", shared.clone());
        store.commit_manifest("alice", manifest_for("a.bin", &[&private, &shared]));
        store.commit_manifest("alice", manifest_for("b.bin", &[&shared]));

        // Deleting a.bin frees the private chunk but keeps the shared one:
        // b.bin still references it.
        let released = store.delete_manifest("alice", "a.bin").unwrap();
        assert_eq!(released, private.stored_len);
        let agg = store.aggregate();
        assert_eq!(agg.unique_chunks, 1);
        assert_eq!(agg.reclaimed_bytes, private.stored_len);
        assert_eq!(agg.freed_chunks, 1);
        assert_eq!(agg.manifest_deletes, 1);
        assert!(!store.has_chunk_globally(&private.hash));
        assert!(store.has_chunk_globally(&shared.hash));

        // Deleting b.bin empties the namespace and the physical store.
        store.delete_manifest("alice", "b.bin").unwrap();
        let agg = store.aggregate();
        assert_eq!(agg.users, 0);
        assert_eq!(agg.unique_chunks, 0);
        assert_eq!(agg.physical_bytes, 0);
        assert_eq!(agg.referenced_bytes, 0);
        assert_eq!(agg.reclaimed_bytes, private.stored_len + shared.stored_len);
        // Unknown paths and users report None.
        assert_eq!(store.delete_manifest("alice", "b.bin"), None);
        assert_eq!(store.delete_manifest("nobody", "x"), None);
    }

    #[test]
    fn mark_sweep_defers_frees_to_the_collection_pass() {
        let store = ObjectStore::new();
        assert_eq!(store.gc_policy(), GcPolicy::MarkSweep);
        let c = stored(b"swept later");
        store.put_chunk("alice", c.clone());
        store.commit_manifest("alice", manifest_for("a.bin", &[&c]));
        store.delete_manifest("alice", "a.bin").unwrap();

        // Released but not yet freed: physical bytes survive the release…
        let agg = store.aggregate();
        assert_eq!(agg.physical_bytes, c.stored_len);
        assert_eq!(agg.referenced_bytes, 0);
        assert_eq!(agg.reclaimed_bytes, 0);
        assert!(store.has_chunk_globally(&c.hash));

        // …until the sweep.
        let pass = store.collect_garbage();
        assert_eq!(pass, GcStats { freed_chunks: 1, freed_bytes: c.stored_len });
        let agg = store.aggregate();
        assert_eq!(agg.physical_bytes, 0);
        assert_eq!(agg.unique_chunks, 0);
        assert_eq!(agg.reclaimed_bytes, c.stored_len);
        assert!(!store.has_chunk_globally(&c.hash));
        // A second sweep finds nothing.
        assert_eq!(store.collect_garbage(), GcStats::default());
    }

    #[test]
    fn gc_never_frees_chunks_other_users_still_reference() {
        for policy in [GcPolicy::Eager, GcPolicy::MarkSweep] {
            let store = ObjectStore::with_policy(policy);
            let shared = stored(b"popular payload");
            for user in ["alice", "bob"] {
                store.put_chunk(user, shared.clone());
                store.commit_manifest(user, manifest_for("f.bin", &[&shared]));
            }
            store.delete_manifest("alice", "f.bin").unwrap();
            store.collect_garbage();
            assert!(store.has_chunk_globally(&shared.hash), "{policy:?}");
            assert_eq!(store.aggregate().physical_bytes, shared.stored_len, "{policy:?}");
            assert_eq!(owners(&store, &shared.hash), 1, "{policy:?}");
            // Bob's view is untouched.
            assert_eq!(store.stats("bob").chunks, 1, "{policy:?}");
        }
    }

    #[test]
    fn soft_delete_retains_superseded_and_deleted_revisions_until_purge() {
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let v1 = stored(b"revision one");
        let v2 = stored(b"revision two");
        store.put_chunk("alice", v1.clone());
        store.commit_manifest("alice", manifest_for("doc.bin", &[&v1]));
        // Supersede: v1's refs drop but its bytes are retained (a restore or
        // dedup hit must not dangle).
        store.put_chunk("alice", v2.clone());
        store.commit_manifest("alice", manifest_for("doc.bin", &[&v2]));
        assert!(store.chunk("alice", &v1.hash).is_some());

        // Soft delete (§4.3) frees nothing either.
        assert!(store.delete_file("alice", "doc.bin"));
        store.collect_garbage();
        assert_eq!(store.aggregate().physical_bytes, v1.stored_len + v2.stored_len);

        // purge_user hard-deletes the namespace, retained revisions included.
        let released = store.purge_user("alice");
        assert_eq!(released, v1.stored_len + v2.stored_len);
        let agg = store.aggregate();
        assert_eq!(agg.users, 0);
        assert_eq!(agg.physical_bytes, 0);
        assert_eq!(agg.referenced_bytes, 0);
        assert_eq!(store.purge_user("alice"), 0, "second purge is a no-op");
    }

    #[test]
    fn delete_manifest_honours_the_supersede_retention_promise() {
        // doc.bin v1 holds chunk A; v2 supersedes it (A's refs drop to 0 but
        // A is retained). other.bin then re-references A and is hard-deleted:
        // A must survive, because the supersede retention outlives the
        // re-reference — a later manifest that dedup-skips A's upload (the
        // client-side index still knows it) must still commit.
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let a = stored(b"retained by supersede");
        let b = stored(b"revision two");
        store.put_chunk("alice", a.clone());
        store.commit_manifest("alice", manifest_for("doc.bin", &[&a]));
        store.put_chunk("alice", b.clone());
        store.commit_manifest("alice", manifest_for("doc.bin", &[&b]));

        store.commit_manifest("alice", manifest_for("other.bin", &[&a]));
        store.delete_manifest("alice", "other.bin").unwrap();

        // A is still in the namespace and physically present…
        assert!(store.chunk("alice", &a.hash).is_some());
        assert!(store.has_chunk_globally(&a.hash));
        // …so a dedup-skipping manifest referencing it commits fine.
        store.commit_manifest("alice", manifest_for("restored.bin", &[&a]));
        // purge_user still reclaims everything, retention included.
        store.purge_user("alice");
        assert_eq!(store.aggregate().physical_bytes, 0);
    }

    #[test]
    fn chunks_can_be_reuploaded_after_collection() {
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let c = stored(b"comes back");
        store.put_chunk("alice", c.clone());
        store.commit_manifest("alice", manifest_for("a.bin", &[&c]));
        store.delete_manifest("alice", "a.bin");
        assert!(!store.has_chunk_globally(&c.hash));

        // A fresh upload after the free is a new physical entry, not a dedup
        // hit — the bytes really were gone.
        let hits_before = store.aggregate().server_dedup_hits;
        assert!(store.put_chunk("bob", c.clone()));
        let agg = store.aggregate();
        assert_eq!(agg.server_dedup_hits, hits_before);
        assert_eq!(agg.unique_chunks, 1);
        assert_eq!(agg.physical_bytes, c.stored_len);
    }

    #[test]
    fn concurrent_releases_match_sequential_releases() {
        // The churn determinism contract at the store level: after a commit
        // phase, concurrent manifest hard-deletes produce bit-identical
        // aggregates to a sequential replay, under both GC policies.
        for policy in [GcPolicy::Eager, GcPolicy::MarkSweep] {
            let build = || {
                let store = ObjectStore::with_policy(policy);
                for t in 0..8u32 {
                    let user = format!("user-{t}");
                    for i in 0..40u32 {
                        // Chunks i%10 are shared across all users.
                        let data = vec![(i % 10) as u8; 128 + (i % 10) as usize];
                        let c = stored(&data);
                        store.put_chunk(&user, c.clone());
                        store.commit_manifest(&user, manifest_for(&format!("f{i:02}.bin"), &[&c]));
                    }
                }
                store
            };

            let concurrent = build();
            std::thread::scope(|scope| {
                for t in 0..8u32 {
                    let store = concurrent.clone();
                    scope.spawn(move || {
                        let user = format!("user-{t}");
                        for path in store.list_files(&user) {
                            store.delete_manifest(&user, &path);
                        }
                    });
                }
            });
            concurrent.collect_garbage();

            let sequential = build();
            for t in 0..8u32 {
                let user = format!("user-{t}");
                for path in sequential.list_files(&user) {
                    sequential.delete_manifest(&user, &path);
                }
            }
            sequential.collect_garbage();

            assert_eq!(concurrent.aggregate(), sequential.aggregate(), "{policy:?}");
            assert_eq!(concurrent.aggregate().physical_bytes, 0, "{policy:?}");
            assert_eq!(concurrent.aggregate().users, 0, "{policy:?}");
        }
    }

    #[test]
    fn payloads_are_stored_once_and_freed_with_the_entry() {
        let store = ObjectStore::with_policy(GcPolicy::Eager);
        let data = b"payload bytes served to restores".to_vec();
        let c = stored(&data);
        // Metadata-only commit leaves no payload…
        assert!(store.put_chunk("alice", c.clone()));
        assert_eq!(store.chunk_payload(&c.hash), None);
        // …a later payload-carrying commit (another user) fills it in.
        assert!(store.put_chunk_with_payload("bob", c.clone(), &data));
        assert_eq!(store.chunk_payload(&c.hash).as_deref(), Some(&data[..]));
        // Aggregate accounting is identical to the payload-less path.
        assert_eq!(store.aggregate().unique_chunks, 1);
        assert_eq!(store.aggregate().server_dedup_hits, 1);

        // Releasing both owners frees the entry and its payload.
        store.commit_manifest("alice", manifest_for("a.bin", &[&c]));
        store.commit_manifest("bob", manifest_for("b.bin", &[&c]));
        store.delete_manifest("alice", "a.bin");
        store.delete_manifest("bob", "b.bin");
        assert_eq!(store.chunk_payload(&c.hash), None);
        assert!(!store.has_chunk_globally(&c.hash));
    }

    #[test]
    fn concurrent_users_match_sequential_replay() {
        // The determinism contract of the sharded refactor, in miniature:
        // 8 threads (users) commit overlapping chunk sets concurrently; a
        // sequential replay of the same per-user commits into a fresh store
        // yields bit-identical per-user and aggregate statistics.
        let concurrent = ObjectStore::new();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let store = concurrent.clone();
            handles.push(std::thread::spawn(move || {
                let user = format!("user-{t}");
                for i in 0..60u32 {
                    // Every user shares chunks i%20, giving heavy overlap.
                    let data = vec![(i % 20) as u8; 256 + (i % 20) as usize];
                    store.put_chunk(&user, stored(&data));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let sequential = ObjectStore::new();
        for t in 0..8u32 {
            let user = format!("user-{t}");
            for i in 0..60u32 {
                let data = vec![(i % 20) as u8; 256 + (i % 20) as usize];
                sequential.put_chunk(&user, stored(&data));
            }
        }

        assert_eq!(concurrent.aggregate(), sequential.aggregate());
        for t in 0..8u32 {
            let user = format!("user-{t}");
            assert_eq!(concurrent.stats(&user), sequential.stats(&user));
        }
        // 20 distinct payloads, referenced by all 8 users.
        assert_eq!(concurrent.aggregate().unique_chunks, 20);
        assert_eq!(concurrent.aggregate().server_dedup_hits, 7 * 20);
    }

    #[test]
    fn a_payload_reaches_a_chunk_its_user_already_holds_metadata_only() {
        let store = ObjectStore::new();
        let data = b"uploaded twice by one user".to_vec();
        let c = stored(&data);
        assert!(store.put_chunk("alice", c.clone()));
        assert_eq!(store.chunk_payload(&c.hash), None);
        let before = store.aggregate();
        // Same user, same chunk, now with its bytes: not new to the user, so
        // no counter moves — but the payload must not be dropped, or a later
        // restore reports PayloadUnavailable for a chunk that was uploaded.
        assert!(!store.put_chunk_with_payload("alice", c.clone(), &data));
        assert_eq!(store.chunk_payload(&c.hash).as_deref(), Some(&data[..]));
        assert_eq!(store.aggregate(), before);
        assert_eq!(owners(&store, &c.hash), 1);
    }

    #[test]
    fn table_entries_respect_their_size_budgets() {
        // A user of the fleet-scale run costs a record, eight rows in each
        // of its two lists and its private chunks' physical entries; a field
        // added to one of them is paid a million times over.
        use std::mem::size_of;
        assert!(size_of::<(ContentHash, UserChunk)>() <= 56);
        assert!(size_of::<(PathId, FileEntry)>() <= 64);
        assert!(size_of::<UserRecord>() <= 64);
        assert!(size_of::<(PhysicalKey, ChunkEntry)>() <= 88);
    }

    #[test]
    fn ids_past_u32_are_refused_not_wrapped() {
        // slot * shards + shard must fit a u32.
        assert_eq!(pack_id(0, 3, 16), Some(3));
        assert_eq!(unpack_id(16 * 7 + 3, 16), (3, 7));
        let last = u32::MAX as usize / 16;
        assert_eq!(pack_id(last, 15, 16), Some(u32::MAX));
        assert_eq!(pack_id(last + 1, 0, 16), None);
        assert_eq!(pack_id(usize::MAX, 1, 16), None);
        assert_eq!(pack_id(u32::MAX as usize, 0, 1), Some(u32::MAX));
        assert_eq!(pack_id(u32::MAX as usize + 1, 0, 1), None);
        // Interning refuses the first name whose id would not fit — here
        // the second slot of the last of very many shards — and reports it
        // as an error naming what ran out.
        let (shard, shards) = (u32::MAX as usize - 1, u32::MAX as usize);
        let mut names = Names::default();
        assert_eq!(names.intern("fits", shard, shards), Some(0));
        assert_eq!(names.intern("one too many", shard, shards), None);
        assert_eq!(names.intern("fits", shard, shards), Some(0), "a known name needs no new id");
        assert!(!names.slots.contains_key("one too many"), "a refused name is not half-interned");
        assert_eq!(names.names.len(), 1);
        let err = IdSpaceExhausted { what: "user" }.to_string();
        assert!(err.contains("user") && err.contains("u32"), "got: {err}");
    }

    #[test]
    fn id_keyed_writes_are_the_str_writes() {
        let by_name = ObjectStore::new();
        let by_id = ObjectStore::new();
        let (a, b) = (stored(b"first chunk"), stored(b"second chunk"));
        let alice = by_id.intern_user("alice").unwrap();
        assert_eq!(by_id.intern_user("alice").unwrap(), alice);
        let doc = by_id.intern_path("doc.bin").unwrap();
        assert_eq!(by_id.intern_path("doc.bin").unwrap(), doc);
        // Interning alone creates nothing observable.
        assert_eq!(by_id.users(), Vec::<String>::new());
        assert_eq!(by_id.aggregate(), AggregateStats::default());

        // A batch is put-then-commit per file, in order: a fresh path, the
        // same path superseded, a hash the batch already brought.
        let other = by_id.intern_path("other.bin").unwrap();
        let batch = [(doc, a.clone()), (doc, b.clone()), (other, a.clone())];
        let mut version = 0;
        for (path, chunk) in [("doc.bin", &a), ("doc.bin", &b), ("other.bin", &a)] {
            by_name.put_chunk("alice", chunk.clone());
            version = by_name.commit_manifest("alice", manifest_for(path, &[chunk]));
        }
        assert_eq!(by_id.commit_files_by_id(alice, &batch), version);
        assert_eq!(version, 3);
        // The empty batch writes nothing and reports where the counter is.
        assert_eq!(by_id.commit_files_by_id(alice, &[]), version);

        assert_eq!(by_id.aggregate(), by_name.aggregate());
        assert_eq!(by_id.stats("alice"), by_name.stats("alice"));
        for path in ["doc.bin", "other.bin"] {
            assert_eq!(by_id.manifest("alice", path), by_name.manifest("alice", path));
        }
        assert_eq!(by_id.list_files("alice"), by_name.list_files("alice"));
        for chunk in [&a, &b] {
            assert_eq!(owners(&by_id, &chunk.hash), owners(&by_name, &chunk.hash));
        }
    }

    #[test]
    fn a_batch_takes_one_user_lock_and_one_lock_per_new_chunk() {
        let locks_of = |write: &dyn Fn()| {
            let before = WRITE_LOCKS.with(std::cell::Cell::get);
            write();
            WRITE_LOCKS.with(std::cell::Cell::get) - before
        };
        let store = ObjectStore::new();
        let user = store.intern_user("alice").unwrap();
        let files: Vec<(PathId, StoredChunk)> = (0..4u8)
            .map(|f| (store.intern_path(&format!("f{f}")).unwrap(), stored(&[f; 9])))
            .collect();
        let batch = || {
            store.commit_files_by_id(user, &files);
        };
        // Four files, four chunks new to the user: 1 + 4.
        assert_eq!(locks_of(&batch), 5);
        // Committed again the user holds them all: the user shard alone.
        assert_eq!(locks_of(&batch), 1);
        // The same four files as puts and commits: (2 + 1) × 4.
        let separately = || {
            for (f, (_, chunk)) in files.iter().enumerate() {
                store.put_chunk("bob", chunk.clone());
                store.commit_manifest("bob", manifest_for(&format!("f{f}"), &[chunk]));
            }
        };
        assert_eq!(locks_of(&separately), 12);
    }

    // ---- model-based property tests -------------------------------------

    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The naive reference the flat store is checked against: a map of
    /// per-user maps, the store's documented semantics spelled out with no
    /// regard for speed.
    #[derive(Default)]
    struct ModelUser {
        files: BTreeMap<String, FileManifest>,
        chunks: BTreeMap<ContentHash, StoredChunk>,
        refs: BTreeMap<ContentHash, u64>,
        retained: BTreeSet<ContentHash>,
        next_version: u64,
    }

    #[derive(Default)]
    struct Model {
        eager: bool,
        users: BTreeMap<String, ModelUser>,
        /// hash → (canonical record, owners, payload)
        physical: BTreeMap<ContentHash, (StoredChunk, u64, Option<Vec<u8>>)>,
        counters: AggregateStats,
    }

    impl Model {
        fn put(&mut self, user: &str, chunk: StoredChunk, payload: Option<&[u8]>) -> bool {
            let ns = self.users.entry(user.into()).or_default();
            if ns.chunks.contains_key(&chunk.hash) {
                if let Some((_, _, held)) = self.physical.get_mut(&chunk.hash) {
                    *held = held.take().or(payload.map(<[u8]>::to_vec));
                }
                return false;
            }
            ns.chunks.insert(chunk.hash, chunk.clone());
            self.counters.chunk_puts += 1;
            match self.physical.get_mut(&chunk.hash) {
                Some((record, owners, held)) => {
                    *owners += 1;
                    if chunk.stored_len < record.stored_len {
                        *record = chunk;
                    }
                    *held = held.take().or(payload.map(<[u8]>::to_vec));
                    self.counters.server_dedup_hits += 1;
                }
                None => {
                    self.physical.insert(chunk.hash, (chunk, 1, payload.map(<[u8]>::to_vec)));
                }
            }
            true
        }

        /// `None` (and no change) when the user lacks one of the chunks —
        /// where the store panics.
        fn commit(&mut self, user: &str, mut manifest: FileManifest) -> Option<u64> {
            let ns = self.users.entry(user.into()).or_default();
            if !manifest.chunks.iter().all(|h| ns.chunks.contains_key(h)) {
                return None;
            }
            for hash in &manifest.chunks {
                *ns.refs.entry(*hash).or_insert(0) += 1;
            }
            ns.next_version += 1;
            manifest.version = ns.next_version;
            if let Some(replaced) = ns.files.insert(manifest.path.clone(), manifest) {
                for hash in &replaced.chunks {
                    let refs = ns.refs.get_mut(hash).expect("a live manifest's chunks are counted");
                    *refs -= 1;
                    if *refs == 0 {
                        ns.retained.insert(*hash);
                    }
                }
            }
            Some(ns.next_version)
        }

        fn delete_file(&mut self, user: &str, path: &str) -> bool {
            self.users.get_mut(user).is_some_and(|ns| ns.files.remove(path).is_some())
        }

        fn delete_manifest(&mut self, user: &str, path: &str) -> Option<u64> {
            let ns = self.users.get_mut(user)?;
            let manifest = ns.files.remove(path)?;
            let mut released = Vec::new();
            for hash in &manifest.chunks {
                let Some(refs) = ns.refs.get_mut(hash) else { continue };
                *refs -= 1;
                if *refs == 0 {
                    ns.refs.remove(hash);
                    if !ns.retained.contains(hash) {
                        released.extend(ns.chunks.remove(hash));
                    }
                }
            }
            self.counters.manifest_deletes += 1;
            Some(self.release(released))
        }

        fn purge(&mut self, user: &str) -> u64 {
            let Some(ns) = self.users.remove(user) else { return 0 };
            self.counters.manifest_deletes += ns.files.len() as u64;
            self.release(ns.chunks.into_values().collect())
        }

        fn release(&mut self, released: Vec<StoredChunk>) -> u64 {
            for chunk in &released {
                let entry =
                    self.physical.get_mut(&chunk.hash).expect("held chunks exist physically");
                entry.1 -= 1;
            }
            if self.eager {
                self.collect_garbage();
            }
            released.iter().map(|c| c.stored_len).sum()
        }

        fn collect_garbage(&mut self) -> GcStats {
            let mut pass = GcStats::default();
            self.physical.retain(|_, (record, owners, _)| {
                if *owners == 0 {
                    pass.freed_chunks += 1;
                    pass.freed_bytes += record.stored_len;
                }
                *owners > 0
            });
            self.counters.freed_chunks += pass.freed_chunks;
            self.counters.reclaimed_bytes += pass.freed_bytes;
            pass
        }

        fn aggregate(&self) -> AggregateStats {
            let live =
                || self.users.values().filter(|ns| !ns.files.is_empty() || !ns.chunks.is_empty());
            AggregateStats {
                users: live().count(),
                files: live().map(|ns| ns.files.len()).sum(),
                logical_bytes: live().flat_map(|ns| ns.files.values()).map(|f| f.size).sum(),
                unique_chunks: self.physical.len() as u64,
                physical_bytes: self
                    .physical
                    .values()
                    .map(|(record, _, _)| record.stored_len)
                    .sum(),
                referenced_bytes: live()
                    .flat_map(|ns| ns.chunks.values())
                    .map(|c| c.stored_len)
                    .sum(),
                ..self.counters
            }
        }
    }

    /// One user's namespace as a caller reads it back.
    #[derive(Debug, PartialEq)]
    struct Namespace {
        stats: StoreStats,
        paths: Vec<String>,
        /// Per path of the universe.
        manifests: Vec<Option<FileManifest>>,
        /// Per hash of the universe, as the user sees it.
        chunks: Vec<Option<StoredChunk>>,
    }

    /// Everything a caller can read back, over a fixed universe of names.
    #[derive(Debug, PartialEq)]
    struct Observed {
        aggregate: AggregateStats,
        users: Vec<String>,
        /// Per user of the universe.
        namespaces: Vec<Namespace>,
        /// Per hash: owners and payload.
        physical: Vec<(u64, Option<Vec<u8>>)>,
    }

    const USERS: [&str; 3] = ["ann", "bob", "cy"];
    const PATHS: [&str; 3] = ["a.bin", "docs/b.bin", "c"];

    /// Four payloads; `variant` picks how well the committer compressed
    /// one. A small universe on purpose: the interesting sequences
    /// (supersede, re-reference, hard delete of the same chunk) need the
    /// same few names to meet often.
    fn universe() -> Vec<Vec<u8>> {
        (0..4u8).map(|j| vec![j; 12 + j as usize]).collect()
    }

    fn variant_of(data: &[u8], variant: u64) -> StoredChunk {
        StoredChunk { stored_len: data.len() as u64 - variant, ..stored(data) }
    }

    fn observe_store(store: &ObjectStore) -> Observed {
        let hashes: Vec<ContentHash> = universe().iter().map(|d| sha256(d)).collect();
        Observed {
            aggregate: store.aggregate(),
            users: store.users(),
            namespaces: USERS
                .iter()
                .map(|user| Namespace {
                    stats: store.stats(user),
                    paths: store.list_files(user),
                    manifests: PATHS.iter().map(|path| store.manifest(user, path)).collect(),
                    chunks: hashes.iter().map(|hash| store.chunk(user, hash)).collect(),
                })
                .collect(),
            physical: hashes
                .iter()
                .map(|h| (owners(store, h), store.chunk_payload(h).map(|p| p.to_vec())))
                .collect(),
        }
    }

    fn observe_model(model: &Model) -> Observed {
        let hashes: Vec<ContentHash> = universe().iter().map(|d| sha256(d)).collect();
        let empty = ModelUser::default();
        Observed {
            aggregate: model.aggregate(),
            users: model
                .users
                .iter()
                .filter(|(_, ns)| !ns.files.is_empty() || !ns.chunks.is_empty())
                .map(|(name, _)| name.clone())
                .collect(),
            namespaces: USERS
                .iter()
                .map(|user| {
                    let ns = model.users.get(*user).unwrap_or(&empty);
                    let stats = StoreStats {
                        files: ns.files.len(),
                        chunks: ns.chunks.len(),
                        stored_bytes: ns.chunks.values().map(|c| c.stored_len).sum(),
                        logical_bytes: ns.files.values().map(|f| f.size).sum(),
                    };
                    Namespace {
                        stats,
                        paths: ns.files.keys().cloned().collect(),
                        manifests: PATHS.iter().map(|path| ns.files.get(*path).cloned()).collect(),
                        chunks: hashes.iter().map(|hash| ns.chunks.get(hash).cloned()).collect(),
                    }
                })
                .collect(),
            physical: hashes
                .iter()
                .map(|h| {
                    model.physical.get(h).map_or((0, None), |(_, owners, p)| (*owners, p.clone()))
                })
                .collect(),
        }
    }

    /// Every record's two row lists are strictly sorted by their key: what
    /// the bisections rest on, and no key is there twice.
    fn assert_rows_sorted(store: &ObjectStore) {
        for shard in store.inner.user_shards.iter() {
            for record in &shard.read().records {
                assert!(record.held.windows(2).all(|pair| pair[0].0 < pair[1].0));
                assert!(record.files.windows(2).all(|pair| pair[0].0 .0 < pair[1].0 .0));
            }
        }
    }

    #[test]
    fn one_user_grows_to_twenty_thousand_rows_and_back() {
        // Far past the < 128 rows any workload reaches: the sorted rows stay
        // right (if linear to insert into) at any size. Mark-sweep, because
        // the model's eager release sweeps its whole physical map per call.
        const FILES: u32 = 20_000;
        let store = ObjectStore::new();
        let mut model = Model::default();
        let path_of = |i: u32| format!("dir{:02}/f{i:05}", i % 37);
        let chunk_of = |i: u32, revision: u8| {
            let mut data = i.to_le_bytes().to_vec();
            data.push(revision);
            stored(&data)
        };
        let one = |path: String, chunk: &StoredChunk| FileManifest {
            path,
            size: chunk.plain_len,
            chunks: vec![chunk.hash],
            version: 0,
        };
        let check = |store: &ObjectStore, model: &Model| {
            assert_rows_sorted(store);
            assert_eq!(store.aggregate(), model.aggregate());
            let empty = ModelUser::default();
            let ns = model.users.get("ann").unwrap_or(&empty);
            let stats = store.stats("ann");
            assert_eq!((stats.files, stats.chunks), (ns.files.len(), ns.chunks.len()));
            assert_eq!(stats.stored_bytes, ns.chunks.values().map(|c| c.stored_len).sum::<u64>());
            assert_eq!(store.list_files("ann"), ns.files.keys().cloned().collect::<Vec<_>>());
            for i in 0..FILES {
                assert_eq!(store.manifest("ann", &path_of(i)), ns.files.get(&path_of(i)).cloned());
                for revision in [0, 1] {
                    let hash = chunk_of(i, revision).hash;
                    assert_eq!(store.chunk("ann", &hash), ns.chunks.get(&hash).cloned());
                }
            }
        };

        // Commit: the batch path, 250 files a call, in an order that is
        // neither the paths' nor the hashes'.
        let ann = store.intern_user("ann").unwrap();
        let scattered: Vec<u32> = (0..FILES).map(|i| i * 7_919 % FILES).collect();
        for run in scattered.chunks(250) {
            let mut batch = Vec::new();
            for &i in run {
                let chunk = chunk_of(i, 0);
                model.put("ann", chunk.clone(), None);
                model.commit("ann", one(path_of(i), &chunk)).unwrap();
                batch.push((store.intern_path(&path_of(i)).unwrap(), chunk));
            }
            let version = store.commit_files_by_id(ann, &batch);
            assert_eq!(version, model.users["ann"].next_version);
        }
        assert_eq!(store.stats("ann").chunks, FILES as usize);
        check(&store, &model);

        // Supersede every other path: 30 000 held rows, the old revisions
        // retained.
        for i in (0..FILES).step_by(2) {
            let chunk = chunk_of(i, 1);
            assert_eq!(
                store.put_chunk("ann", chunk.clone()),
                model.put("ann", chunk.clone(), None)
            );
            let manifest = one(path_of(i), &chunk);
            assert_eq!(
                Some(store.commit_manifest("ann", manifest.clone())),
                model.commit("ann", manifest)
            );
        }
        assert_eq!(store.stats("ann").chunks, FILES as usize * 3 / 2);
        check(&store, &model);

        // Hard-delete every third path: a superseded path keeps its first
        // revision (retained) and releases its second.
        for i in (0..FILES).step_by(3) {
            assert_eq!(
                store.delete_manifest("ann", &path_of(i)),
                model.delete_manifest("ann", &path_of(i))
            );
        }
        check(&store, &model);

        assert_eq!(store.purge_user("ann"), model.purge("ann"));
        assert_eq!(store.collect_garbage(), model.collect_garbage());
        check(&store, &model);
        assert_eq!(store.aggregate().unique_chunks, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sequences of every write the store has, against the naive
        /// model, comparing everything readable after every step — under
        /// both GC policies.
        #[test]
        fn the_flat_store_agrees_with_the_naive_model(
            eager in any::<bool>(),
            ops in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
            let store = ObjectStore::with_policy(policy);
            let mut model = Model { eager, ..Model::default() };
            let data = universe();
            for (step, word) in ops.iter().enumerate() {
                let field = |shift: u32, modulo: u64| ((word >> shift) % modulo) as usize;
                // Skewed, so that one namespace sees long histories: half
                // the operations are ann's, half of them on the first path.
                const SKEW: [usize; 6] = [0, 0, 0, 1, 1, 2];
                let (user, path) = (USERS[SKEW[field(8, 6)]], PATHS[SKEW[field(16, 6)]]);
                let (a, b) = (&data[field(24, 4)], &data[field(32, 4)]);
                let chunk = variant_of(a, (word >> 40) % 3);
                match word % 11 {
                    0 | 1 => prop_assert_eq!(
                        store.put_chunk(user, chunk.clone()),
                        model.put(user, chunk, None)
                    ),
                    2 => {
                        let full = StoredChunk { plain_len: a.len() as u64, ..chunk };
                        prop_assert_eq!(
                            store.put_chunk_with_payload(user, full.clone(), a),
                            model.put(user, full, Some(a))
                        );
                    }
                    3..=5 => {
                        // One chunk, two, one repeated, or none at all.
                        let chunks: Vec<&Vec<u8>> = match (word >> 48) % 4 {
                            0 => vec![a],
                            1 => vec![a, b],
                            2 => vec![a, a],
                            _ => vec![],
                        };
                        let manifest = FileManifest {
                            path: path.into(),
                            size: chunks.iter().map(|d| d.len() as u64).sum(),
                            chunks: chunks.iter().map(|d| sha256(d)).collect(),
                            version: 0,
                        };
                        // The store panics on a manifest over chunks the
                        // user lacks; the model says which those are.
                        if let Some(version) = model.commit(user, manifest.clone()) {
                            prop_assert_eq!(store.commit_manifest(user, manifest), version);
                        }
                    }
                    6 => prop_assert_eq!(store.delete_file(user, path), model.delete_file(user, path)),
                    7 => prop_assert_eq!(
                        store.delete_manifest(user, path),
                        model.delete_manifest(user, path)
                    ),
                    8 => prop_assert_eq!(store.purge_user(user), model.purge(user)),
                    9 => prop_assert_eq!(store.collect_garbage(), model.collect_garbage()),
                    _ => {
                        // A batch of one-chunk files: empty, short, longer
                        // than the three paths and four payloads (so paths
                        // are superseded and hashes repeat inside it) and
                        // past the 256 files its stack bitmap covers. The
                        // model runs put-then-commit per file.
                        let len = [0, 1, 2, 5, 9, 300][field(48, 6)];
                        let mut draw = *word;
                        let mut files = Vec::with_capacity(len);
                        for _ in 0..len {
                            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let pick = |shift: u32, modulo: u64| ((draw >> shift) % modulo) as usize;
                            let path = PATHS[pick(40, 3)];
                            let chunk = variant_of(&data[pick(48, 4)], (draw >> 56) % 3);
                            model.put(user, chunk.clone(), None);
                            let one = FileManifest { path: path.into(), size: chunk.plain_len, chunks: vec![chunk.hash], version: 0 };
                            prop_assert!(model.commit(user, one).is_some());
                            files.push((store.intern_path(path).unwrap(), chunk));
                        }
                        let id = store.intern_user(user).unwrap();
                        prop_assert_eq!(
                            store.commit_files_by_id(id, &files),
                            model.users.get(user).map_or(0, |ns| ns.next_version)
                        );
                    }
                }
                prop_assert_eq!((step, observe_store(&store)), (step, observe_model(&model)));
                assert_rows_sorted(&store);
            }
        }

        /// `reserve` is a hint: whatever it is asked for — nothing, a
        /// little, more than any allocator grants — on an empty store or
        /// one that holds data, nothing readable moves, then or later.
        #[test]
        fn reserve_changes_nothing_a_caller_can_read(
            eager in any::<bool>(),
            script in proptest::collection::vec(any::<u64>(), 0..24),
            asks in proptest::collection::vec(any::<u64>(), 4..5),
            reserve_at in 0usize..24,
        ) {
            let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
            let data = universe();
            // Zero, small, or far past what can be allocated; never the
            // gigabytes in between that a host might really hand out.
            let ask = |word: u64| match word % 4 {
                0 => 0,
                1 => (word >> 8) as usize % 5_000,
                2 => usize::MAX >> ((word >> 8) % 12),
                _ => usize::MAX,
            };
            let run = |reserving: bool| {
                let store = ObjectStore::with_policy(policy);
                for (step, word) in script.iter().enumerate() {
                    if reserving && step == reserve_at {
                        store.reserve(ask(asks[0]), ask(asks[1]), ask(asks[2]), ask(asks[3]));
                    }
                    let field = |shift: u32, modulo: u64| ((word >> shift) % modulo) as usize;
                    let user = store.intern_user(USERS[field(8, 3)]).unwrap();
                    let path = store.intern_path(PATHS[field(16, 3)]).unwrap();
                    let chunk = variant_of(&data[field(24, 4)], (word >> 40) % 3);
                    store.commit_files_by_id(user, &[(path, chunk)]);
                    if word % 5 == 0 {
                        store.delete_manifest(USERS[field(8, 3)], PATHS[field(32, 3)]);
                    }
                }
                if reserving && reserve_at >= script.len() {
                    store.reserve(ask(asks[0]), ask(asks[1]), ask(asks[2]), ask(asks[3]));
                }
                observe_store(&store)
            };
            prop_assert_eq!(run(true), run(false));
        }

        /// Ids depend on the order names are first seen in; nothing a
        /// caller can read does. The same per-user scripts run with the
        /// users interned in opposite orders, from one thread and from
        /// four (commits, then releases — the phases the fleet separates).
        #[test]
        fn observables_do_not_depend_on_interning_order_or_threads(
            eager in any::<bool>(),
            scripts in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..24), 3..4),
            leavers in 0usize..8,
        ) {
            let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
            let data = universe();
            let commit_phase = |store: &ObjectStore, u: usize| {
                for word in &scripts[u] {
                    let field = |shift: u32, modulo: u64| ((word >> shift) % modulo) as usize;
                    let a = &data[field(24, 4)];
                    let chunk = variant_of(a, (word >> 40) % 3);
                    store.put_chunk(USERS[u], chunk.clone());
                    let manifest =
                        FileManifest { path: PATHS[field(16, 3)].into(), size: chunk.plain_len, chunks: vec![chunk.hash], version: 0 };
                    store.commit_manifest(USERS[u], manifest);
                }
            };
            let release_phase = |store: &ObjectStore, u: usize| {
                if leavers >> u & 1 == 1 {
                    store.purge_user(USERS[u]);
                } else {
                    store.delete_manifest(USERS[u], PATHS[u]);
                }
            };

            let sequential = ObjectStore::with_policy(policy);
            for user in USERS {
                sequential.intern_user(user).unwrap();
            }
            (0..3).for_each(|u| commit_phase(&sequential, u));
            (0..3).for_each(|u| release_phase(&sequential, u));
            sequential.collect_garbage();

            let threaded = ObjectStore::with_policy(policy);
            for user in USERS.iter().rev() {
                threaded.intern_user(user).unwrap();
            }
            for path in PATHS.iter().rev() {
                threaded.intern_path(path).unwrap();
            }
            for phase in [&commit_phase as &(dyn Fn(&ObjectStore, usize) + Sync), &release_phase] {
                cloudsim_parallel::run_indexed(4, 3, || (), |(), u| phase(&threaded, u));
            }
            threaded.collect_garbage();

            prop_assert_eq!(observe_store(&threaded), observe_store(&sequential));
        }
    }
}
