//! Server-side object store: one content-addressed table behind one lock.
//!
//! The storage back-end the simulated services commit uploads to: a
//! content-addressed chunk store plus per-user file manifests. It backs the
//! capability experiments end-to-end — e.g. the deduplication test of §4.3
//! uploads, copies, deletes and restores files, and the chunks the store
//! holds for the user determine how many bytes actually had to travel.
//!
//! # Layout
//!
//! Like each service of the paper, the store keeps one server-side table,
//! and everything in it sits behind one std `RwLock`:
//!
//! * **the chunk table** — the content-addressed table shared by *all*
//!   users. This is where server-side inter-user deduplication (§4.3)
//!   happens: the second user to upload a chunk adds a reference instead
//!   of new bytes. Its entries are one dense `Vec` in admit order, and an
//!   entry's place is the chunk's `u32` id; the 32-byte content hash is
//!   kept there and nowhere else. The entries are found through an index
//!   of `u32` slots that holds ids, not hashes (see `Index`). Ids of
//!   freed entries are handed out again: an entry nobody owns has no row
//!   pointing at it.
//! * **user records** — everything one user owns, one dense `Vec` of
//!   records, and a user's rows live **in the user's record**: the version
//!   counter, the logical bytes, the held chunks (the user's view of each
//!   chunk and its live-manifest reference count) as one list sorted by
//!   chunk id, and the live manifests (their chunk ids, a single-chunk
//!   manifest's held inline) as one list sorted by path id, both searched
//!   by bisection. There is no map per user and no store-wide table of
//!   users' rows: in personal storage a user's rows are only ever read and
//!   written together, so they sit together, and a four-file commit
//!   touches the few cache lines of one record instead of eight random
//!   ones of a table every user shares.
//!
//! Names are interned once: [`StoreWriter::intern_user`] and
//! [`ObjectStore::intern_path`] hand out [`UserId`]s and [`PathId`]s, and
//! a [`StoreWriter`] is the fleet-scale write path — no string is hashed,
//! cloned or allocated per call. An interner keeps its names back to back
//! in one `String`, where each ends, and the chunk table's kind of index
//! over them, hashed with std's keyed hasher because names come from
//! outside the program: a name costs its bytes, an 8-byte end and at most
//! two slots, and no allocation of its own. An id is its name's first-seen
//! slot; ids only key rows, so nothing observable depends on the order
//! names or chunks were first seen in. A poisoned lock still hands out its
//! guard.
//!
//! Rows are kept at their data's width. A held row is 16 bytes: the chunk
//! id, `u32` stored and plain lengths, and the reference count in 31 bits
//! with the retention mark as the top bit. A manifest row is 24: the path,
//! a `u32` version, the `u64` size and one inline chunk id or a handle
//! into the store's one table of longer id lists. A chunk costs its
//! 44-byte entry (hash, `u32` lengths, `u32` owner count) and at most two
//! 4-byte index slots; payloads sit in a side table by chunk id that only
//! [`ObjectStore::put_chunk_with_payload`] fills. A length, version or
//! count past its width is refused with a [`StoreError`], never truncated.
//! [`ObjectStore::footprint`] counts the bytes table by table: a
//! fleet-scale client, eight rows of each kind, four private chunks and a
//! 12-byte name, costs the store 645 bytes at 10 000 clients, 632 at
//! 100 000 and 621 at a million.
//!
//! The cost of sorted rows, accepted and written down: inserting or
//! removing a row is O(rows of that user). Measured with one-file commits
//! against the hash tables this layout replaced (which stay near 0.4 µs
//! per commit at any size): growing a user from empty, paths in the order
//! they were interned, averages 0.54 µs per commit on the way to 1 000
//! rows, 6.1 µs to 20 000 and 41 µs to 100 000; the worst case, a commit or
//! a hard delete *at* that size with both keys landing mid-list, is 1.5 µs,
//! 34 µs and 240 µs. The layouts cross near 128 rows (0.44 vs 0.45 µs; at
//! eight rows 0.29 vs 0.38), and the largest user of every workload and
//! every `repro` target holds 100 — there a bisection is seven comparisons
//! inside memory the commit has just touched. A unit test drives one user
//! to 20 000 rows and back against the naive model.
//!
//! Every public method takes the lock once. What a write *does* is written
//! once, as methods of the tables: `ChunkTable::intern` (the chunk's id,
//! its entry created when new), `Tables::hold` (the user holds a chunk),
//! `Tables::reference` and `Tables::publish` (a manifest's chunks are
//! counted; it becomes the path's live revision) and `Tables::admit` (the
//! entry gains an owner). A put is intern, hold, then admit; a commit is
//! reference + publish; the batch interns, holds, admits and publishes
//! file by file.
//!
//! That is the bundling of the paper's §5 applied to the store's own
//! client: a four-file commit written as four puts and four commits takes
//! **eight** locks and searches the user's held rows three times per file;
//! through a [`StoreWriter`], which *is* the write lock, it searches once
//! per file, and a whole walk of commits takes **one** lock. A unit test
//! counts them. [`ObjectStore::reserve`] is the other half: a caller that
//! knows its population sizes the records, the user names and their
//! index, the chunk entries and their index once, up front, instead of
//! letting each double its way up, and says how many rows a user will
//! hold, so each of a record's two lists is one exact allocation made on
//! its first row.
//!
//! Aggregate accounting (physical bytes, per-user referenced bytes,
//! server-side dedup hits, …) is plain counters updated under the lock and
//! read by [`ObjectStore::aggregate`]. Every update is order-independent
//! (counts of distinct keys, sums of per-user values, a commutative `min`
//! for the canonical stored size), so a concurrent run ends with
//! **bit-identical** [`AggregateStats`] to a sequential replay of the same
//! per-user operations — the property the storage unit and property tests
//! assert.
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
use std::collections::TryReserveError;
use std::hash::{BuildHasher, RandomState};
use std::mem::size_of;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A chunk as stored on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// What the store's tables cost in memory, table by table: the bytes of
/// the capacity each has allocated (what the allocator handed out, not
/// what is in use), from `size_of` and the tables' capacities alone, so
/// the same writes always give the same numbers. Chunk payloads are data,
/// not tables, and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreFootprint {
    /// The dense `Vec` of user records.
    pub user_records: u64,
    /// The users' held-chunk rows.
    pub held_rows: u64,
    /// The users' manifest rows, and the store's one table of the
    /// chunk-id lists of manifests not of exactly one chunk.
    pub file_rows: u64,
    /// The chunk table's entries, its list of freed ids and the slots of
    /// its payload side table.
    pub chunk_entries: u64,
    /// The chunk table's index.
    pub chunk_index: u64,
    /// The user and path name interners: their text, their ends and
    /// their indexes.
    pub names: u64,
}

impl StoreFootprint {
    /// Every table's bytes together.
    pub fn total(&self) -> u64 {
        self.user_records
            + self.held_rows
            + self.file_rows
            + self.chunk_entries
            + self.chunk_index
            + self.names
    }
}

/// When (if ever) the store frees chunk entries whose owner count reaches
/// zero after manifest hard-deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Physical chunk entries removed.
    pub freed_chunks: u64,
    /// Stored bytes reclaimed.
    pub freed_bytes: u64,
}

/// An interned user name, handed out by [`StoreWriter::intern_user`]. Valid
/// only for the store (and its clones) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(u32);

/// An interned file path, handed out by [`ObjectStore::intern_path`]. Paths
/// are shared across users — a population committing the same eight paths
/// interns eight. Valid only for the store (and its clones) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(u32);

/// A value past the width the store's tables keep it at. Every write
/// checks before it changes a table, so a refused write leaves the store
/// as it was: an error, never a wrapped id or a truncated length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Another user would need an id past the `u32` index.
    UserId,
    /// Another path would need an id past the `u32` index.
    PathId,
    /// Another chunk would need an id past the `u32` index.
    ChunkId,
    /// A chunk's stored or plain length, in bytes, past `u32::MAX`.
    Length(u64),
    /// A user's next version past `u32::MAX`.
    Version,
    /// A held chunk's live-manifest references past 2^31 − 1.
    References,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let last_id = u64::from(u32::MAX - 1);
        let (what, limit) = match self {
            StoreError::UserId => ("user id", last_id),
            StoreError::PathId => ("path id", last_id),
            StoreError::ChunkId => ("chunk id", last_id),
            StoreError::Length(len) => {
                return write!(
                    f,
                    "the store cannot hold a chunk length of {len} bytes: its limit is {} bytes",
                    u32::MAX
                );
            }
            StoreError::Version => ("version", u64::from(u32::MAX)),
            StoreError::References => ("reference count", u64::from(MAX_REFS)),
        };
        write!(f, "the store cannot hold a {what} past {limit}")
    }
}

impl std::error::Error for StoreError {}

/// The id of the name or chunk added after `taken` others: its slot in
/// the dense list, `None` where a `u32` index slot (the id plus one) could
/// not hold it.
fn next_id(taken: usize) -> Option<u32> {
    u32::try_from(taken).ok().filter(|&id| id < u32::MAX)
}

/// An index slot: 0 (empty) or an id plus one.
type Slot = u32;

/// An open-addressed index of ids over a dense list kept beside it — the
/// chunk table's entries, or an interner's names. It holds no key.
///
/// The index is a power-of-two array of `u32` slots. A lookup starts at
/// the slot the key's hash word names, steps forward (wrapping at the end)
/// and asks the list whether each slot's id is the key, until one is or a
/// slot is empty. The index is kept at most half full, and a removal
/// shifts the rest of its probe run back over the hole, so every run stays
/// unbroken and no slot is ever a tombstone.
#[derive(Debug, Default)]
struct Index {
    slots: Vec<Slot>,
}

impl Index {
    /// The slot hash word `word`'s probe run starts at.
    fn home(&self, word: u64) -> usize {
        word as usize & (self.slots.len() - 1)
    }

    /// The slot holding the id `is` accepts (`Ok`), or the empty slot that
    /// ends `word`'s probe run (`Err`). The index must have slots.
    fn probe(&self, word: u64, is: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(word);
        loop {
            match self.slots[at] {
                0 => return Err(at),
                slot if is(slot - 1) => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The id `is` accepts, looked up from hash word `word`.
    fn find(&self, word: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(word, is).ok().map(|at| self.slots[at] - 1)
    }

    /// The id `is` accepts (`Ok`), or the empty slot a new key's id goes
    /// in with [`Index::fill`] (`Err`). With `live` ids indexed, the index
    /// doubles first when one more would fill it past half; `word_of` is
    /// each indexed id's hash word.
    fn find_or_vacancy(
        &mut self,
        live: usize,
        word: u64,
        is: impl Fn(u32) -> bool,
        word_of: impl Fn(u32) -> u64,
    ) -> Result<u32, usize> {
        if !self.slots.is_empty() {
            match self.probe(word, &is) {
                Ok(at) => return Ok(self.slots[at] - 1),
                Err(at) if (live + 1) * 2 <= self.slots.len() => return Err(at),
                Err(_) => {}
            }
        }
        let slots = (self.slots.len() * 2).max(16);
        self.rebuild(slots, word_of).expect("room for the index");
        Err(self.probe(word, is).expect_err("a new key"))
    }

    /// Puts `id` in the empty slot [`Index::find_or_vacancy`] reported.
    fn fill(&mut self, at: usize, id: u32) {
        self.slots[at] = id + 1;
    }

    /// Empties slot `hole`. Each later slot of the probe run moves back
    /// into the hole when the hole lies between that id's home slot (from
    /// `word_of`) and where it sits, so every id stays reachable from its
    /// home without a tombstone.
    fn remove(&mut self, mut hole: usize, word_of: impl Fn(u32) -> u64) {
        let mask = self.slots.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let slot = self.slots[next];
            if slot == 0 {
                break;
            }
            let home = self.home(word_of(slot - 1));
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = next;
            }
        }
        self.slots[hole] = 0;
    }

    /// The indexed ids, in slot order.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter(|&&slot| slot != 0).map(|&slot| slot - 1)
    }

    /// Room for `live` ids (`None`: more than a `usize` counts) at most half
    /// full: the index grows to that power of two once. A refused
    /// allocation is ignored.
    fn reserve(&mut self, live: Option<usize>, word_of: impl Fn(u32) -> u64) {
        let slots =
            live.and_then(|live| live.checked_mul(2)).and_then(usize::checked_next_power_of_two);
        if let Some(slots) = slots.filter(|&slots| slots > self.slots.len()) {
            let _ = self.rebuild(slots, word_of);
        }
    }

    /// Re-indexes every id in an index of `slots` slots, a power of two;
    /// on a refused allocation the old index stays.
    fn rebuild(
        &mut self,
        slots: usize,
        word_of: impl Fn(u32) -> u64,
    ) -> Result<(), TryReserveError> {
        let mut index = Vec::new();
        index.try_reserve_exact(slots)?;
        index.resize(slots, 0);
        let old = std::mem::replace(&mut self.slots, index);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let at = self.probe(word_of(slot - 1), |_| false).expect_err("one slot per id");
            self.slots[at] = slot;
        }
        Ok(())
    }
}

/// A name interner: the names back to back in one `String` in first-seen
/// order, where each ends, and an [`Index`] over them. A name's id is its
/// place in that order, and no name is ever removed. The index hashes
/// names with std's keyed hasher, because names come from outside the
/// program.
#[derive(Debug, Default)]
struct Names {
    text: String,
    ends: Vec<usize>,
    index: Index,
    hasher: RandomState,
}

/// Name `id` of an interner's `text` and `ends`.
fn name_in<'a>(text: &'a str, ends: &[usize], id: u32) -> &'a str {
    let id = id as usize;
    let start = if id == 0 { 0 } else { ends[id - 1] };
    &text[start..ends[id]]
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Name `id`.
    fn name(&self, id: u32) -> &str {
        name_in(&self.text, &self.ends, id)
    }

    /// The id of `name`, if it is interned.
    fn get(&self, name: &str) -> Option<u32> {
        self.index.find(self.hasher.hash_one(name), |id| self.name(id) == name)
    }

    /// The id of `name`, interning it when new. A name whose id would not
    /// fit is refused before it is stored.
    fn intern(&mut self, name: &str) -> Option<u32> {
        let Names { text, ends, index, hasher } = self;
        let at = match index.find_or_vacancy(
            ends.len(),
            hasher.hash_one(name),
            |id| name_in(text, ends, id) == name,
            |id| hasher.hash_one(name_in(text, ends, id)),
        ) {
            Ok(id) => return Some(id),
            Err(at) => at,
        };
        let id = next_id(ends.len())?;
        text.push_str(name);
        ends.push(text.len());
        index.fill(at, id);
        Some(id)
    }

    /// Room for `names` more names of `bytes` bytes together: the ends and
    /// the text exactly, the index at the power of two that keeps it at
    /// most half full. Refused requests are ignored.
    fn reserve(&mut self, names: usize, bytes: usize) {
        let _ = self.ends.try_reserve_exact(names);
        let _ = self.text.try_reserve_exact(bytes);
        let Names { text, ends, index, hasher } = self;
        index.reserve(ends.len().checked_add(names), |id| hasher.hash_one(name_in(text, ends, id)));
    }

    /// [`StoreFootprint::names`]' share of this interner.
    fn footprint(&self) -> u64 {
        let ends = self.ends.capacity() * size_of::<usize>();
        (self.text.capacity() + ends + self.index.slots.capacity() * size_of::<Slot>()) as u64
    }
}

/// Eight bytes of a content hash as the index's hash word: its low bits
/// pick the slot a probe starts at. Any eight bytes of a uniform SHA-256
/// output make a uniform word; nothing observable depends on which eight
/// (a slot holds an id, and ids only key rows).
fn hash_word(hash: &ContentHash) -> u64 {
    u64::from_le_bytes(hash.0[8..16].try_into().expect("eight bytes"))
}

/// A chunk's id: its entry's place in the chunk table. The id of a freed
/// entry is handed out again, so an id names one chunk only until its
/// entry is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ChunkId(u32);

/// A chunk's stored and plain lengths at the width the store keeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lengths {
    stored: u32,
    plain: u32,
}

impl Lengths {
    /// `chunk`'s lengths, refused past `u32::MAX` bytes, never truncated.
    fn of(chunk: &StoredChunk) -> Result<Lengths, StoreError> {
        let narrow = |len: u64| u32::try_from(len).map_err(|_| StoreError::Length(len));
        Ok(Lengths { stored: narrow(chunk.stored_len)?, plain: narrow(chunk.plain_len)? })
    }
}

/// One entry of the chunk table, the one place the store keeps a chunk's
/// hash: 44 bytes.
#[derive(Debug)]
struct ChunkEntry {
    hash: ContentHash,
    /// The most compact representation any committer reported.
    len: Lengths,
    /// Number of distinct users holding the chunk; never more than there
    /// are user ids, so it cannot pass its `u32`.
    owners: u32,
}

/// The physical chunk table: the entries, dense and in admit order; the
/// ids of freed entries, reused before the entries grow; an [`Index`]
/// over the live ones, probed from the hash's [`hash_word`] and compared
/// against each slot's entry's hash; and the payloads committers provided.
#[derive(Debug, Default)]
struct ChunkTable {
    entries: Vec<ChunkEntry>,
    free: Vec<ChunkId>,
    index: Index,
    /// The plaintext payload of each chunk whose committer provided it
    /// ([`ObjectStore::put_chunk_with_payload`]), by chunk id, as long as
    /// the highest id given one: a store no payload reached (every scale
    /// run) has none. Restores are served from here; a metadata-only chunk
    /// has `None`, and a restore of it reports
    /// [`crate::restore::RestoreError::PayloadUnavailable`]. `Arc` because
    /// concurrent restores share the bytes without copying.
    payloads: Vec<Option<Arc<[u8]>>>,
}

impl ChunkTable {
    /// Live entries.
    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn entry(&self, id: ChunkId) -> &ChunkEntry {
        &self.entries[id.0 as usize]
    }

    fn entry_mut(&mut self, id: ChunkId) -> &mut ChunkEntry {
        &mut self.entries[id.0 as usize]
    }

    /// Each entry's hash word by id, which the index re-homes ids with.
    fn word_of(entries: &[ChunkEntry]) -> impl Fn(u32) -> u64 + '_ {
        |id| hash_word(&entries[id as usize].hash)
    }

    /// The id of `hash`'s live entry.
    fn find(&self, hash: &ContentHash) -> Option<ChunkId> {
        let is = |id: u32| self.entries[id as usize].hash == *hash;
        self.index.find(hash_word(hash), is).map(ChunkId)
    }

    /// The id of `hash`'s entry, and whether this call created it — with
    /// lengths `len`, no owner and no payload, in a freed entry's place
    /// when there is one and at the end of the entries otherwise.
    fn intern(&mut self, hash: &ContentHash, len: Lengths) -> Result<(ChunkId, bool), StoreError> {
        let (live, entries) = (self.len(), &self.entries);
        let is = |id: u32| entries[id as usize].hash == *hash;
        let word = hash_word(hash);
        let at = match self.index.find_or_vacancy(live, word, is, ChunkTable::word_of(entries)) {
            Ok(id) => return Ok((ChunkId(id), false)),
            Err(at) => at,
        };
        let entry = ChunkEntry { hash: *hash, len, owners: 0 };
        let id = match self.free.pop() {
            Some(id) => {
                *self.entry_mut(id) = entry;
                id
            }
            None => {
                let id = next_id(self.entries.len()).ok_or(StoreError::ChunkId)?;
                self.entries.push(entry);
                ChunkId(id)
            }
        };
        self.index.fill(at, id.0);
        Ok((id, true))
    }

    /// The payload of live entry `id`, when a committer provided one.
    fn payload(&self, id: ChunkId) -> Option<&Arc<[u8]>> {
        self.payloads.get(id.0 as usize)?.as_ref()
    }

    /// Keeps `payload` for live entry `id`, unless it has one already
    /// (hash-equal plaintexts are the same bytes).
    fn keep_payload(&mut self, id: ChunkId, payload: &[u8]) {
        let at = id.0 as usize;
        if self.payloads.len() <= at {
            self.payloads.resize(at + 1, None);
        }
        self.payloads[at].get_or_insert_with(|| Arc::from(payload));
    }

    /// Frees live entry `id`: its slot leaves the index, its payload is
    /// dropped (so the next chunk to take the id inherits none) and its id
    /// waits for the next new chunk.
    fn free(&mut self, id: ChunkId) {
        let word = hash_word(&self.entry(id).hash);
        let at = self.index.probe(word, |slot| slot == id.0).expect("a live entry is indexed");
        self.index.remove(at, ChunkTable::word_of(&self.entries));
        if let Some(payload) = self.payloads.get_mut(id.0 as usize) {
            *payload = None;
        }
        self.free.push(id);
    }

    /// Frees every live entry no user owns.
    fn sweep(&mut self) -> GcStats {
        let ownerless: Vec<ChunkId> =
            self.index.ids().map(ChunkId).filter(|&id| self.entry(id).owners == 0).collect();
        let mut pass = GcStats::default();
        for id in ownerless {
            pass.freed_chunks += 1;
            pass.freed_bytes += u64::from(self.entry(id).len.stored);
            self.free(id);
        }
        pass
    }

    /// Room for `additional` more live entries: the entries exactly, the
    /// index at the power of two that keeps it at most half full. Refused
    /// requests are ignored.
    fn reserve(&mut self, additional: usize) {
        let _ = self.entries.try_reserve_exact(additional);
        let live = self.len().checked_add(additional);
        self.index.reserve(live, ChunkTable::word_of(&self.entries));
    }
}

/// The top bit of [`UserChunk::refs`]: the retention mark.
const RETAINED: u32 = 1 << 31;

/// The most live-manifest references one held chunk counts: what the 31
/// bits below [`RETAINED`] hold.
const MAX_REFS: u32 = RETAINED - 1;

/// One chunk as one user holds it: with its id, a 16-byte row.
#[derive(Debug)]
struct UserChunk {
    /// The user's own uploaded representation, not the canonical one.
    len: Lengths,
    /// Below [`RETAINED`]: occurrences across the user's *live* manifests.
    /// A chunk at zero stays held (retention for §4.3 restores and
    /// client-side dedup consistency) until a hard delete releases it.
    ///
    /// The top bit, [`RETAINED`], is set once the count dropped to zero
    /// through a *supersede* (a manifest replacing the same path). The
    /// retention promise of [`ObjectStore::commit_manifest`] then covers
    /// the chunk even if a later manifest re-references it and is
    /// hard-deleted — only [`ObjectStore::purge_user`] releases it.
    refs: u32,
}

impl UserChunk {
    /// The live-manifest references.
    fn refs(&self) -> u32 {
        self.refs & MAX_REFS
    }

    fn retained(&self) -> bool {
        self.refs & RETAINED != 0
    }

    /// Counts `more` references, refused past [`MAX_REFS`] with nothing
    /// changed.
    fn add_refs(&mut self, more: u32) -> Result<(), StoreError> {
        let refs = (self.refs().checked_add(more))
            .filter(|&refs| refs <= MAX_REFS)
            .ok_or(StoreError::References)?;
        self.refs = self.refs & RETAINED | refs;
        Ok(())
    }

    /// Drops one reference, none below zero.
    fn drop_ref(&mut self) {
        self.refs = self.refs & RETAINED | self.refs().saturating_sub(1);
    }

    /// Sets the retention mark.
    fn retain(&mut self) {
        self.refs |= RETAINED;
    }
}

/// A manifest's chunk ids: one inline (every fleet-scale file), or the
/// handle of a longer list in the store's [`ChunkLists`]. Eight bytes.
#[derive(Debug, Clone, Copy)]
enum ChunkRef {
    One(ChunkId),
    Many(u32),
}

/// The chunk ids of every manifest not of exactly one chunk, store-wide,
/// each list behind the `u32` handle a [`ChunkRef::Many`] holds. A dropped
/// list leaves an empty slot whose handle the next list takes.
#[derive(Debug, Default)]
struct ChunkLists {
    lists: Vec<Box<[ChunkId]>>,
    free: Vec<u32>,
}

impl ChunkLists {
    /// The ids `chunks` names.
    fn ids<'a>(&'a self, chunks: &'a ChunkRef) -> &'a [ChunkId] {
        match chunks {
            ChunkRef::One(id) => std::slice::from_ref(id),
            ChunkRef::Many(handle) => &self.lists[*handle as usize],
        }
    }

    /// Keeps `ids` and returns their handle.
    fn add(&mut self, ids: Box<[ChunkId]>) -> ChunkRef {
        let handle = match self.free.pop() {
            Some(handle) => {
                self.lists[handle as usize] = ids;
                handle
            }
            None => {
                let handle = next_id(self.lists.len()).expect("fewer than u32::MAX id lists");
                self.lists.push(ids);
                handle
            }
        };
        ChunkRef::Many(handle)
    }

    /// Drops the list `chunks` names, if it is one.
    fn remove(&mut self, chunks: ChunkRef) {
        if let ChunkRef::Many(handle) = chunks {
            self.lists[handle as usize] = Box::default();
            self.free.push(handle);
        }
    }

    /// [`StoreFootprint::file_rows`]' share of the lists.
    fn footprint(&self) -> u64 {
        let slots = self.lists.capacity() * size_of::<Box<[ChunkId]>>();
        let ids: usize = self.lists.iter().map(|ids| ids.len() * size_of::<ChunkId>()).sum();
        (slots + ids + self.free.capacity() * size_of::<u32>()) as u64
    }
}

/// One live manifest: 24 bytes.
#[derive(Debug)]
struct FileEntry {
    path: PathId,
    version: u32,
    size: u64,
    chunks: ChunkRef,
}

/// Everything the store keeps for one user: the counters and the user's
/// two row lists, each sorted by its key and searched by bisection.
#[derive(Debug, Default)]
struct UserRecord {
    /// The last version handed out.
    next_version: u32,
    /// Plaintext bytes of the live manifests.
    logical_bytes: u64,
    /// The chunks the user holds, sorted by chunk id.
    held: Vec<(ChunkId, UserChunk)>,
    /// The live manifests, sorted by path id.
    files: Vec<FileEntry>,
}

impl UserRecord {
    fn is_empty(&self) -> bool {
        self.held.is_empty() && self.files.is_empty()
    }

    /// Where chunk `id` is held (`Ok`) or would be inserted (`Err`).
    fn find_held(&self, id: ChunkId) -> Result<usize, usize> {
        self.held.binary_search_by_key(&id, |&(held, _)| held)
    }

    /// Where `path` has its live manifest (`Ok`) or would get one (`Err`).
    fn find_file(&self, path: PathId) -> Result<usize, usize> {
        self.files.binary_search_by_key(&path.0, |file| file.path.0)
    }

    fn held_mut(&mut self, id: ChunkId) -> Option<&mut UserChunk> {
        self.find_held(id).ok().map(|at| &mut self.held[at].1)
    }

    /// Counts one reference per occurrence in `ids`, all of which the user
    /// holds. A count that would pass [`MAX_REFS`] is refused, and the
    /// ones counted before it are taken back.
    fn reference(&mut self, ids: &[ChunkId]) -> Result<(), StoreError> {
        let refused =
            ids.iter().position(|&id| self.held_mut(id).expect("held").add_refs(1).is_err());
        let Some(counted) = refused else { return Ok(()) };
        for &id in &ids[..counted] {
            self.held_mut(id).expect("held").drop_ref();
        }
        Err(StoreError::References)
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

/// Everything the store keeps, behind its one lock: the users and their
/// records, the manifests' longer id lists, the interned paths, the chunk
/// table and the counters.
#[derive(Debug, Default)]
struct Tables {
    users: Names,
    /// One per user id.
    records: Vec<UserRecord>,
    lists: ChunkLists,
    paths: Names,
    chunks: ChunkTable,
    /// What a record's `held` and `files` lists are sized to on their
    /// first row.
    held_capacity: usize,
    files_capacity: usize,
    chunk_puts: u64,
    referenced_bytes: u64,
    manifest_deletes: u64,
    physical_bytes: u64,
    server_dedup_hits: u64,
    reclaimed_bytes: u64,
    freed_chunks: u64,
}

/// The records go last user first, the reverse of the order a scale walk
/// allocated their rows in. With glibc's malloc the first rows freed of
/// each size stay in the thread's cache, so freed last-first they pin the
/// top of the heap and the rows freed below them stay with the process.
/// Freed first-first they join the heap's top, which glibc trims back to
/// the kernel once it passes twice the largest block freed so far (the
/// chunk entries), and a store built next in the same process faults
/// those pages back in: about 5 800 faults per 60 000-client run.
impl Drop for Tables {
    fn drop(&mut self) {
        while self.records.pop().is_some() {}
    }
}

#[cfg(test)]
thread_local! {
    /// Write locks taken on this thread.
    static WRITE_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one write lock, for the test that pins the locks a commit
/// costs; compiled out of everything else.
fn count_write_lock() {
    #[cfg(test)]
    WRITE_LOCKS.with(|locks| locks.set(locks.get() + 1));
}

/// The server-side object store, shared by control and storage servers of a
/// simulated service — and, since the fleet harness exists, by every client
/// of a multi-user fleet. Clones share the same tables.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    tables: Arc<RwLock<Tables>>,
    policy: GcPolicy,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::new()
    }
}

impl ObjectStore {
    /// Creates an empty store with the default
    /// (never-collecting-until-swept) [`GcPolicy::MarkSweep`].
    pub fn new() -> Self {
        ObjectStore::with_policy(GcPolicy::default())
    }

    /// Creates an empty store with an explicit GC policy.
    pub fn with_policy(policy: GcPolicy) -> Self {
        ObjectStore { tables: Arc::default(), policy }
    }

    /// The garbage-collection policy this store was built with.
    pub fn gc_policy(&self) -> GcPolicy {
        self.policy
    }

    /// Read-locks the tables. Poisoning is ignored: a write checks what it
    /// is handed before it changes anything a caller can read (a manifest
    /// over chunks the user lacks panics first), so a caller that panicked
    /// under the lock left nothing half-written.
    fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-locks the tables, ignoring poisoning as [`ObjectStore::read`]
    /// does.
    fn write(&self) -> RwLockWriteGuard<'_, Tables> {
        count_write_lock();
        self.tables.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns a file path. The same path always yields the same id; a new
    /// path gets the next one. Fails instead of wrapping once the ids pass
    /// `u32::MAX`. Paths are interned store-wide, not per user.
    pub fn intern_path(&self, path: &str) -> Result<PathId, StoreError> {
        self.write().intern_path(path)
    }

    /// True when *any* user has stored this chunk — the inter-user question a
    /// dedup-capable server answers before accepting an upload.
    pub fn has_chunk_globally(&self, hash: &ContentHash) -> bool {
        self.read().chunks.find(hash).is_some()
    }

    /// Stores a chunk payload for a user. Returns `true` when the chunk was
    /// new *to this user*, `false` when the user already had it (nothing is
    /// overwritten either way). Panics, before it changes anything, with
    /// the [`StoreError`] of a length or a chunk id the store cannot hold.
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
        let len = Lengths::of(&chunk).unwrap_or_else(|e| panic!("{e}"));
        let mut guard = self.write();
        let tables = &mut *guard;
        let slot = tables.named(user);
        let (id, created) =
            tables.chunks.intern(&chunk.hash, len).unwrap_or_else(|e| panic!("{e}"));
        let new_to_user = tables.hold(slot, id, len, 0).expect("a put counts no reference");
        if new_to_user {
            tables.admit(id, len, created);
        }
        if let Some(payload) = payload {
            tables.chunks.keep_payload(id, payload);
        }
        new_to_user
    }

    /// Commits a file manifest (creating or replacing the path). Returns the
    /// version number assigned. Panics if any referenced chunk is missing
    /// from the user's namespace — a protocol error a real service would
    /// reject as well — and, before it changes anything, with the
    /// [`StoreError`] of a version or a reference count the store cannot
    /// hold.
    ///
    /// Reference accounting: the new manifest's chunk occurrences are
    /// counted; a replaced revision's occurrences are released *logically*
    /// (the counts drop) but its chunks stay retained in the namespace, so
    /// a client's dedup query still finds them and §4.3 restores stay free.
    pub fn commit_manifest(&self, user: &str, manifest: FileManifest) -> u64 {
        let mut tables = self.write();
        let path = tables.intern_path(&manifest.path).unwrap_or_else(|e| panic!("{e}"));
        let slot = tables.named(user);
        let chunks = (tables.version_room(slot))
            .and_then(|()| tables.reference(slot, &manifest.chunks))
            .unwrap_or_else(|e| panic!("{e}"));
        tables.publish(slot, path, manifest.size, chunks)
    }

    /// The store's batch write path: a [`StoreWriter`] holding the store's
    /// write lock until it drops.
    pub fn writer(&self) -> StoreWriter<'_> {
        StoreWriter { tables: self.write() }
    }

    /// Tells the store what is about to be written — `users` more users,
    /// whose names take `user_name_bytes` bytes together, each holding
    /// `chunks_per_user` chunks in `files_per_user` files, and
    /// `unique_chunks` more physical chunks — so the user records, the
    /// user names and their index, the chunk entries and their index can
    /// grow to their final size once instead of doubling their way there
    /// (a doubling holds the old and the new allocation at once), and a
    /// record's two row lists are allocated once, exactly, on their first
    /// row. Purely a capacity hint: nothing a caller can read changes, a
    /// request the allocator refuses is ignored, and a store that already
    /// has the room does nothing.
    pub fn reserve(
        &self,
        users: usize,
        user_name_bytes: usize,
        chunks_per_user: usize,
        files_per_user: usize,
        unique_chunks: usize,
    ) {
        let mut guard = self.write();
        let tables = &mut *guard;
        tables.users.reserve(users, user_name_bytes);
        let _ = tables.records.try_reserve(users);
        tables.chunks.reserve(unique_chunks);
        tables.held_capacity = chunks_per_user;
        tables.files_capacity = files_per_user;
    }

    /// What the store's tables cost in memory, table by table (see
    /// [`StoreFootprint`]).
    pub fn footprint(&self) -> StoreFootprint {
        let tables = self.read();
        let bytes = |count: usize, size: usize| (count * size) as u64;
        let chunks = &tables.chunks;
        let mut footprint = StoreFootprint {
            user_records: bytes(tables.records.capacity(), size_of::<UserRecord>()),
            file_rows: tables.lists.footprint(),
            chunk_entries: bytes(chunks.entries.capacity(), size_of::<ChunkEntry>())
                + bytes(chunks.free.capacity(), size_of::<ChunkId>())
                + bytes(chunks.payloads.capacity(), size_of::<Option<Arc<[u8]>>>()),
            chunk_index: bytes(chunks.index.slots.capacity(), size_of::<Slot>()),
            names: tables.users.footprint() + tables.paths.footprint(),
            ..StoreFootprint::default()
        };
        for record in &tables.records {
            footprint.held_rows += bytes(record.held.capacity(), size_of::<(ChunkId, UserChunk)>());
            footprint.file_rows += bytes(record.files.capacity(), size_of::<FileEntry>());
        }
        footprint
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
        let mut guard = self.write();
        let tables = &mut *guard;
        let (slot, path) = (tables.user(user)?, tables.path(path)?);
        let manifest = tables.remove_file(slot, path)?;
        let record = &mut tables.records[slot as usize];
        let mut released = Vec::new();
        let mut released_bytes = 0u64;
        for &id in tables.lists.ids(&manifest.chunks) {
            // A manifest may reference a chunk several times; the chunk
            // can be released on an earlier occurrence.
            let Ok(at) = record.find_held(id) else { continue };
            let held = &mut record.held[at].1;
            held.drop_ref();
            // An earlier supersede may have promised to keep the chunk
            // (restores and client-side dedup may rely on it).
            if held.refs() == 0 && !held.retained() {
                released_bytes += u64::from(held.len.stored);
                record.held.remove(at);
                released.push(id);
            }
        }
        tables.lists.remove(manifest.chunks);
        tables.referenced_bytes -= released_bytes;
        tables.manifest_deletes += 1;
        tables.release(released, self.policy);
        Some(released_bytes)
    }

    /// Hard-deletes a whole user namespace: every live manifest plus every
    /// retained chunk (soft-deleted and superseded revisions included). This
    /// is what a fleet client leaving the service calls. Returns the released
    /// stored bytes.
    pub fn purge_user(&self, user: &str) -> u64 {
        let mut guard = self.write();
        let tables = &mut *guard;
        let Some(slot) = tables.user(user) else {
            return 0;
        };
        // The record (and the user's id) stays; its rows go.
        let record = std::mem::take(&mut tables.records[slot as usize]);
        for file in &record.files {
            tables.lists.remove(file.chunks);
        }
        let released_bytes: u64 =
            record.held.iter().map(|(_, held)| u64::from(held.len.stored)).sum();
        tables.referenced_bytes -= released_bytes;
        tables.manifest_deletes += record.files.len() as u64;
        tables.release(record.held.iter().map(|&(id, _)| id), self.policy);
        released_bytes
    }

    /// Sweeps the chunk table, freeing entries no user owns any more.
    /// The periodic companion of [`GcPolicy::MarkSweep`]; a no-op (zero
    /// stats) under [`GcPolicy::Eager`], where releases already freed
    /// everything.
    pub fn collect_garbage(&self) -> GcStats {
        let mut tables = self.write();
        let pass = tables.chunks.sweep();
        tables.account_freed(pass.freed_chunks, pass.freed_bytes);
        pass
    }

    /// Fetches the current manifest of a path.
    pub fn manifest(&self, user: &str, path: &str) -> Option<FileManifest> {
        let tables = self.read();
        let record = tables.record(user)?;
        let entry = &record.files[record.find_file(tables.path(path)?).ok()?];
        let hash = |&id: &ChunkId| tables.chunks.entry(id).hash;
        Some(FileManifest {
            path: path.to_string(),
            size: entry.size,
            chunks: tables.lists.ids(&entry.chunks).iter().map(hash).collect(),
            version: u64::from(entry.version),
        })
    }

    /// Deletes a file. The chunks it referenced are *not* garbage-collected
    /// (their reference counts are left alone, so no later hard delete of
    /// another path releases them either), matching the delete/restore
    /// observation of §4.3. Returns `true` when a file was removed.
    pub fn delete_file(&self, user: &str, path: &str) -> bool {
        let mut tables = self.write();
        let (Some(slot), Some(path)) = (tables.user(user), tables.path(path)) else {
            return false;
        };
        let Some(removed) = tables.remove_file(slot, path) else { return false };
        tables.lists.remove(removed.chunks);
        true
    }

    /// Lists the live file paths of a user, sorted.
    pub fn list_files(&self, user: &str) -> Vec<String> {
        let tables = self.read();
        let Some(record) = tables.record(user) else {
            return Vec::new();
        };
        let mut paths: Vec<String> =
            record.files.iter().map(|file| tables.paths.name(file.path.0).to_string()).collect();
        paths.sort();
        paths
    }

    /// Returns a stored chunk record as the user sees it (their own uploaded
    /// representation, not the canonical physical one).
    pub fn chunk(&self, user: &str, hash: &ContentHash) -> Option<StoredChunk> {
        let tables = self.read();
        let record = tables.record(user)?;
        let held = &record.held[record.find_held(tables.chunks.find(hash)?).ok()?].1;
        let (stored_len, plain_len) = (held.len.stored.into(), held.len.plain.into());
        Some(StoredChunk { hash: *hash, stored_len, plain_len })
    }

    /// The plaintext payload of a physical chunk, when a committer provided
    /// one via [`ObjectStore::put_chunk_with_payload`]. `None` for unknown
    /// (or garbage-collected) hashes and for metadata-only commits. The
    /// restore pipeline serves file reconstructions from here.
    pub fn chunk_payload(&self, hash: &ContentHash) -> Option<Arc<[u8]>> {
        let tables = self.read();
        tables.chunks.find(hash).and_then(|id| tables.chunks.payload(id).cloned())
    }

    /// Aggregate statistics of a user's namespace.
    pub fn stats(&self, user: &str) -> StoreStats {
        let tables = self.read();
        let Some(record) = tables.record(user) else {
            return StoreStats::default();
        };
        StoreStats {
            files: record.files.len(),
            chunks: record.held.len(),
            stored_bytes: record.held.iter().map(|(_, held)| u64::from(held.len.stored)).sum(),
            logical_bytes: record.logical_bytes,
        }
    }

    /// The user names with a non-empty namespace, sorted.
    pub fn users(&self) -> Vec<String> {
        let tables = self.read();
        let mut users: Vec<String> = (tables.records.iter().zip(0..))
            .filter(|(record, _)| !record.is_empty())
            .map(|(_, id)| tables.users.name(id).to_string())
            .collect();
        users.sort();
        users
    }

    /// Aggregate statistics across every user namespace: the counters, and
    /// the per-user records summed.
    pub fn aggregate(&self) -> AggregateStats {
        let tables = self.read();
        let mut agg = AggregateStats {
            unique_chunks: tables.chunks.len() as u64,
            physical_bytes: tables.physical_bytes,
            referenced_bytes: tables.referenced_bytes,
            server_dedup_hits: tables.server_dedup_hits,
            chunk_puts: tables.chunk_puts,
            manifest_deletes: tables.manifest_deletes,
            reclaimed_bytes: tables.reclaimed_bytes,
            freed_chunks: tables.freed_chunks,
            ..AggregateStats::default()
        };
        for record in tables.records.iter().filter(|record| !record.is_empty()) {
            agg.users += 1;
            agg.files += record.files.len();
            agg.logical_bytes += record.logical_bytes;
        }
        agg
    }
}

/// The batch write path: the store's write lock, taken by
/// [`ObjectStore::writer`] and held until the writer drops, so a walk of
/// any number of commits locks the store once.
///
/// While a writer lives, every other call on its store waits for it, and
/// one made from the writer's own thread never returns (std's lock is not
/// re-entrant): a thread holding a writer makes no other call on that store
/// until it drops the writer. The fleet-scale walk interns its users and
/// paths before it takes its writer, and makes no other call after.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    tables: RwLockWriteGuard<'a, Tables>,
}

impl StoreWriter<'_> {
    /// Interns a user name under the writer's lock. The same name always
    /// yields the same id; a new name creates an (empty) record. Fails
    /// instead of wrapping once the ids pass `u32::MAX`.
    pub fn intern_user(&mut self, name: &str) -> Result<UserId, StoreError> {
        self.tables.intern_user(name).map(UserId)
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
    /// The batch is the bundling client of §5: each file costs one lookup
    /// in the chunk table, one search of the user's held rows (a chunk new
    /// to the user enters them already referenced, a held one gains a
    /// reference) and one of the user's manifest rows. Beyond the user's
    /// rows and the entries of chunks new to the store nothing is
    /// allocated.
    ///
    /// Each file is checked before anything changes for it: the first
    /// length, version, chunk id or reference count the store cannot hold
    /// ends the batch with its [`StoreError`], the files before it written
    /// and it and those after it not.
    pub fn commit_files_by_id(
        &mut self,
        user: UserId,
        files: &[(PathId, StoredChunk)],
    ) -> Result<u64, StoreError> {
        let tables = &mut *self.tables;
        for (path, chunk) in files {
            let len = Lengths::of(chunk)?;
            tables.version_room(user.0)?;
            let (id, created) = tables.chunks.intern(&chunk.hash, len)?;
            // Only a chunk the user holds can refuse a reference, and its
            // entry was not created here.
            if tables.hold(user.0, id, len, 1)? {
                tables.admit(id, len, created);
            }
            tables.publish(user.0, *path, chunk.plain_len, ChunkRef::One(id));
        }
        Ok(u64::from(tables.records[user.0 as usize].next_version))
    }
}

impl Tables {
    /// The slot of `name`, interning it with an empty record when new.
    fn intern_user(&mut self, name: &str) -> Result<u32, StoreError> {
        let slot = self.users.intern(name).ok_or(StoreError::UserId)?;
        if self.records.len() < self.users.len() {
            self.records.push(UserRecord::default());
        }
        Ok(slot)
    }

    /// The slot of the user a `&str` write names, interned when new. The
    /// `&str` writes predate ids and cannot report exhaustion, so there it
    /// panics.
    fn named(&mut self, user: &str) -> u32 {
        self.intern_user(user).unwrap_or_else(|e| panic!("{e}"))
    }

    fn intern_path(&mut self, path: &str) -> Result<PathId, StoreError> {
        self.paths.intern(path).map(PathId).ok_or(StoreError::PathId)
    }

    /// The slot of a user some write already interned.
    fn user(&self, name: &str) -> Option<u32> {
        self.users.get(name)
    }

    /// The id of a path some write already interned.
    fn path(&self, path: &str) -> Option<PathId> {
        self.paths.get(path).map(PathId)
    }

    /// The record of a user some write already interned.
    fn record(&self, user: &str) -> Option<&UserRecord> {
        Some(&self.records[self.user(user)? as usize])
    }

    /// The user half of a put: user `slot` holds the chunk of entry `id`,
    /// uploaded at lengths `len`, from now on, with `refs` more
    /// live-manifest references to it (none for a bare put, one when the
    /// manifest is published in the same write). Returns `true` when the
    /// chunk was new to the user — the caller then owes the entry an
    /// [`Tables::admit`]. One bisection of the user's held rows either way.
    /// A count the row cannot hold is refused with nothing changed.
    fn hold(
        &mut self,
        slot: u32,
        id: ChunkId,
        len: Lengths,
        refs: u32,
    ) -> Result<bool, StoreError> {
        let record = &mut self.records[slot as usize];
        match record.find_held(id) {
            Ok(at) => {
                record.held[at].1.add_refs(refs)?;
                Ok(false)
            }
            Err(at) => {
                insert_row(&mut record.held, at, (id, UserChunk { len, refs }), self.held_capacity);
                self.chunk_puts += 1;
                self.referenced_bytes += u64::from(len.stored);
                Ok(true)
            }
        }
    }

    /// The physical half of a put of a chunk new to the user, uploaded at
    /// lengths `len`: entry `id` gains an owner. An entry `created` by this
    /// write gets its first, and its bytes are stored; an older one is a
    /// server-side dedup hit and may gain a more compact representation.
    fn admit(&mut self, id: ChunkId, len: Lengths, created: bool) {
        let entry = self.chunks.entry_mut(id);
        entry.owners += 1;
        if created {
            self.physical_bytes += u64::from(len.stored);
            return;
        }
        self.server_dedup_hits += 1;
        if len.stored < entry.len.stored {
            self.physical_bytes -= u64::from(entry.len.stored - len.stored);
            entry.len = len;
        }
    }

    /// Refuses a write that would give user `slot` a version past
    /// `u32::MAX`.
    fn version_room(&self, slot: u32) -> Result<(), StoreError> {
        match self.records[slot as usize].next_version {
            u32::MAX => Err(StoreError::Version),
            _ => Ok(()),
        }
    }

    /// Counts one live-manifest reference per occurrence in `hashes`, all
    /// of which user `slot` must hold, and returns their ids. A count past
    /// its width is refused with nothing changed.
    fn reference(&mut self, slot: u32, hashes: &[ContentHash]) -> Result<ChunkRef, StoreError> {
        let (chunks, record) = (&self.chunks, &mut self.records[slot as usize]);
        let held = |hash: &ContentHash| {
            (chunks.find(hash))
                .filter(|&id| record.find_held(id).is_ok())
                .unwrap_or_else(|| panic!("manifest references unknown chunk {hash}"))
        };
        match hashes {
            [hash] => {
                let id = held(hash);
                record.reference(&[id])?;
                Ok(ChunkRef::One(id))
            }
            _ => {
                let ids: Box<[ChunkId]> = hashes.iter().map(held).collect();
                record.reference(&ids)?;
                Ok(self.lists.add(ids))
            }
        }
    }

    /// Publishes a manifest whose chunk references are already counted
    /// ([`Tables::hold`] or [`Tables::reference`]) and whose version the
    /// caller made room for ([`Tables::version_room`]): assigns the next
    /// version and creates or replaces the path, releasing a replaced
    /// revision's references logically. Returns the version.
    fn publish(&mut self, slot: u32, path: PathId, size: u64, chunks: ChunkRef) -> u64 {
        let record = &mut self.records[slot as usize];
        record.next_version += 1;
        let version = record.next_version;
        record.logical_bytes += size;
        let entry = FileEntry { path, version, size, chunks };
        match record.find_file(path) {
            Err(at) => insert_row(&mut record.files, at, entry, self.files_capacity),
            Ok(at) => {
                let replaced = std::mem::replace(&mut record.files[at], entry);
                record.logical_bytes -= replaced.size;
                for &id in self.lists.ids(&replaced.chunks) {
                    if let Some(held) = record.held_mut(id) {
                        held.drop_ref();
                        // The supersede retention promise of `commit_manifest`
                        // outlives any later re-reference: mark the chunk so a
                        // subsequent delete_manifest keeps it.
                        if held.refs() == 0 {
                            held.retain();
                        }
                    }
                }
                self.lists.remove(replaced.chunks);
            }
        }
        u64::from(version)
    }

    /// Removes a live manifest from the user's rows and logical bytes.
    /// Chunk references, and the id list of a manifest of many chunks, are
    /// the caller's business.
    fn remove_file(&mut self, slot: u32, path: PathId) -> Option<FileEntry> {
        let record = &mut self.records[slot as usize];
        let entry = record.files.remove(record.find_file(path).ok()?);
        record.logical_bytes -= entry.size;
        Some(entry)
    }

    /// Releases chunks a user no longer holds: each entry loses one owner.
    /// Owner-less entries are freed immediately under [`GcPolicy::Eager`]
    /// and left for [`ObjectStore::collect_garbage`] under
    /// [`GcPolicy::MarkSweep`]. Releases only decrement, so concurrent
    /// releases commute.
    fn release(&mut self, released: impl IntoIterator<Item = ChunkId>, policy: GcPolicy) {
        for id in released {
            let entry = self.chunks.entry_mut(id);
            entry.owners = entry.owners.saturating_sub(1);
            if entry.owners == 0 && policy == GcPolicy::Eager {
                let freed = u64::from(entry.len.stored);
                self.chunks.free(id);
                self.account_freed(1, freed);
            }
        }
    }

    /// Frees owner-less entries' bytes in the counters (the caller removes
    /// the entries themselves).
    fn account_freed(&mut self, chunks: u64, bytes: u64) {
        self.physical_bytes -= bytes;
        self.reclaimed_bytes += bytes;
        self.freed_chunks += chunks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::ChunkingStrategy;
    use crate::hash::sha256;

    /// Number of distinct users that committed a given chunk.
    fn owners(store: &ObjectStore, hash: &ContentHash) -> u64 {
        let tables = store.read();
        tables.chunks.find(hash).map_or(0, |id| u64::from(tables.chunks.entry(id).owners))
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
        // The determinism contract of the shared store, in miniature:
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
        // of its two lists and its private chunks' entries, each with two
        // index slots or fewer; a field added to one of them is paid a
        // million times over.
        assert!(size_of::<(ChunkId, UserChunk)>() <= 16);
        assert!(size_of::<FileEntry>() <= 24);
        assert!(size_of::<UserRecord>() <= 64);
        assert!(size_of::<ChunkEntry>() <= 44);
        assert!(size_of::<Slot>() <= 8);
        // The inline id or list handle a file row carries.
        assert!(size_of::<ChunkRef>() <= 8);
    }

    #[test]
    fn ids_past_u32_are_refused_not_wrapped() {
        // An id is its name's slot, and an index slot (the id plus one)
        // must fit a u32.
        assert_eq!(next_id(0), Some(0));
        assert_eq!(next_id(u32::MAX as usize - 1), Some(u32::MAX - 1));
        assert_eq!(next_id(u32::MAX as usize), None);
        assert_eq!(next_id(usize::MAX), None);
        // Interning hands out slots in first-seen order, a known name
        // keeps its own, and an exhausted id space is an error naming
        // what ran out.
        let mut names = Names::default();
        assert_eq!(names.intern("first"), Some(0));
        assert_eq!(names.intern("second"), Some(1));
        assert_eq!(names.intern("first"), Some(0), "a known name needs no new id");
        assert_eq!((names.len(), names.name(0), names.name(1)), (2, "first", "second"));
        let err = StoreError::UserId.to_string();
        assert_eq!(err, "the store cannot hold a user id past 4294967294");
        for (error, what) in [(StoreError::PathId, "path id"), (StoreError::ChunkId, "chunk id")] {
            assert!(error.to_string().contains(what), "got: {error}");
        }
    }

    /// Runs `write`, which must panic, and returns its message.
    fn panic_of(write: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(write))
            .expect_err("the write panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn lengths_past_u32_are_refused_not_truncated() {
        let most = u64::from(u32::MAX);
        let chunk = |stored_len: u64, plain_len: u64| StoredChunk {
            hash: sha256(&stored_len.to_le_bytes()),
            stored_len,
            plain_len,
        };
        assert_eq!(
            Lengths::of(&chunk(most, most)),
            Ok(Lengths { stored: u32::MAX, plain: u32::MAX })
        );
        assert_eq!(Lengths::of(&chunk(most + 1, 1)), Err(StoreError::Length(most + 1)));
        assert_eq!(Lengths::of(&chunk(1, u64::MAX)), Err(StoreError::Length(u64::MAX)));
        assert_eq!(
            StoreError::Length(most + 1).to_string(),
            "the store cannot hold a chunk length of 4294967296 bytes: its limit is 4294967295 bytes"
        );

        // At the limit a chunk is kept and read back whole.
        let store = ObjectStore::new();
        let widest = chunk(most, most);
        assert!(store.put_chunk("ann", widest.clone()));
        assert_eq!(store.chunk("ann", &widest.hash), Some(widest.clone()));
        assert_eq!(store.aggregate().physical_bytes, most);
        let path = store.intern_path("wide.bin").unwrap();
        let ann = store.writer().intern_user("ann").unwrap();
        assert_eq!(store.writer().commit_files_by_id(ann, &[(path, widest.clone())]), Ok(1));
        assert_eq!(store.manifest("ann", "wide.bin").unwrap().size, most);

        // One byte past it, every write path refuses before it changes
        // anything: the batch with an error, the `&str` puts by panicking.
        let before = observe_store_over(&store, &[widest.hash]);
        for past in [chunk(most + 1, 1), chunk(1, most + 1)] {
            let len = past.stored_len.max(past.plain_len);
            assert_eq!(
                store.writer().commit_files_by_id(ann, &[(path, past.clone())]),
                Err(StoreError::Length(len))
            );
            let message = panic_of(|| {
                store.put_chunk("bob", past.clone());
            });
            assert_eq!(message, StoreError::Length(len).to_string());
            // An empty payload, so that only the stored length is too long.
            let message = panic_of(|| {
                let past = StoredChunk { stored_len: most + 1, plain_len: 0, ..past.clone() };
                store.put_chunk_with_payload("bob", past, &[]);
            });
            assert_eq!(message, StoreError::Length(most + 1).to_string());
            assert!(!store.has_chunk_globally(&past.hash));
            assert_eq!(observe_store_over(&store, &[widest.hash]), before);
        }
        // A refused file ends its batch; the files before it are written.
        let (first, past) = (stored(b"written first"), chunk(most + 1, 1));
        assert_eq!(
            store.writer().commit_files_by_id(ann, &[(path, first.clone()), (path, past)]),
            Err(StoreError::Length(most + 1))
        );
        assert_eq!(store.manifest("ann", "wide.bin").unwrap().chunks, [first.hash]);
        assert_rows_sorted(&store);
    }

    /// The held row of `hash` for `user`.
    fn held_row<T>(
        store: &ObjectStore,
        user: &str,
        hash: &ContentHash,
        f: impl FnOnce(&mut UserChunk) -> T,
    ) -> T {
        let mut tables = store.write();
        let (slot, id) = (tables.user(user).unwrap(), tables.chunks.find(hash).unwrap());
        f(tables.records[slot as usize].held_mut(id).unwrap())
    }

    #[test]
    fn references_past_31_bits_are_refused_and_keep_the_retained_mark() {
        for retained in [false, true] {
            let mut held = UserChunk { len: Lengths { stored: 1, plain: 1 }, refs: MAX_REFS - 1 };
            if retained {
                held.retain();
            }
            assert_eq!(held.add_refs(1), Ok(()));
            assert_eq!((held.refs(), held.retained()), (MAX_REFS, retained));
            assert_eq!(held.add_refs(1), Err(StoreError::References));
            assert_eq!(held.add_refs(u32::MAX), Err(StoreError::References));
            assert_eq!((held.refs(), held.retained()), (MAX_REFS, retained));
            held.drop_ref();
            assert_eq!((held.refs(), held.retained()), (MAX_REFS - 1, retained));
        }
        assert_eq!(
            StoreError::References.to_string(),
            "the store cannot hold a reference count past 2147483647"
        );

        // Through the store: a superseded chunk carries the retention mark,
        // and its count is set just below the limit.
        let store = ObjectStore::new();
        let (a, b) = (stored(b"referenced to the limit"), stored(b"referenced once"));
        store.put_chunk("ann", a.clone());
        store.put_chunk("ann", b.clone());
        store.commit_manifest("ann", manifest_for("doc.bin", &[&a]));
        store.commit_manifest("ann", manifest_for("doc.bin", &[&b]));
        held_row(&store, "ann", &a.hash, |held| {
            assert_eq!((held.refs(), held.retained()), (0, true));
            held.refs = RETAINED | (MAX_REFS - 1);
        });
        // The last reference the row holds is taken…
        assert_eq!(store.commit_manifest("ann", manifest_for("one.bin", &[&a])), 3);
        held_row(&store, "ann", &a.hash, |held| {
            assert_eq!((held.refs(), held.retained()), (MAX_REFS, true))
        });
        // …and one more is refused by every write path, with nothing
        // changed: not the count, not the mark, not the chunk counted
        // before it in the same manifest.
        let hashes = [a.hash, b.hash];
        let before = observe_store_over(&store, &hashes);
        let message = panic_of(|| {
            store.commit_manifest("ann", manifest_for("two.bin", &[&b, &a]));
        });
        assert_eq!(message, StoreError::References.to_string());
        let two = store.intern_path("two.bin").unwrap();
        let ann = store.writer().intern_user("ann").unwrap();
        assert_eq!(
            store.writer().commit_files_by_id(ann, &[(two, a.clone())]),
            Err(StoreError::References)
        );
        assert_eq!(observe_store_over(&store, &hashes), before);
        held_row(&store, "ann", &a.hash, |held| {
            assert_eq!((held.refs(), held.retained()), (MAX_REFS, true))
        });
        held_row(&store, "ann", &b.hash, |held| assert_eq!(held.refs(), 1));
        assert_eq!(store.manifest("ann", "two.bin"), None);
        assert_rows_sorted(&store);
    }

    #[test]
    fn versions_past_u32_are_refused() {
        let store = ObjectStore::new();
        let (a, b) = (stored(b"the last version"), stored(b"one version too many"));
        let ann = store.writer().intern_user("ann").unwrap();
        let path = store.intern_path("doc.bin").unwrap();
        store.write().records[ann.0 as usize].next_version = u32::MAX - 1;
        // The last version is handed out, and read back at full width…
        assert_eq!(
            store.writer().commit_files_by_id(ann, &[(path, a.clone())]),
            Ok(u64::from(u32::MAX))
        );
        assert_eq!(store.manifest("ann", "doc.bin").unwrap().version, u64::from(u32::MAX));
        // …and the next is refused by both write paths, with nothing
        // changed.
        let before = observe_store_over(&store, &[a.hash, b.hash]);
        assert_eq!(
            store.writer().commit_files_by_id(ann, &[(path, b.clone())]),
            Err(StoreError::Version)
        );
        store.put_chunk("ann", b.clone());
        let after_put = observe_store_over(&store, &[a.hash, b.hash]);
        let message = panic_of(|| {
            store.commit_manifest("ann", manifest_for("doc.bin", &[&b]));
        });
        assert_eq!(message, "the store cannot hold a version past 4294967295");
        assert_eq!(observe_store_over(&store, &[a.hash, b.hash]), after_put);
        assert_eq!(before.aggregate.files, after_put.aggregate.files);
        assert_eq!(store.manifest("ann", "doc.bin").unwrap().chunks, [a.hash]);
        assert_rows_sorted(&store);
    }

    #[test]
    fn eight_threads_interning_overlapping_paths_get_one_id_per_path() {
        // Released at once, thread t interns and commits every path but
        // each eighth one, in the same order: seven threads race for each.
        const THREADS: usize = 8;
        let store = ObjectStore::new();
        let paths: Vec<String> = (0..256).map(|i| format!("shared/f{i:03}.bin")).collect();
        let mine = |t: usize| (0..paths.len()).filter(move |i| i % THREADS != t);
        let barrier = std::sync::Barrier::new(THREADS);
        let ids: Vec<Vec<PathId>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, paths, barrier) = (&store, &paths, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let files: Vec<(PathId, StoredChunk)> = mine(t)
                            .map(|i| {
                                (store.intern_path(&paths[i]).unwrap(), stored(paths[i].as_bytes()))
                            })
                            .collect();
                        let user = store.writer().intern_user(&format!("u{t}")).unwrap();
                        store.writer().commit_files_by_id(user, &files).unwrap();
                        files.into_iter().map(|(id, _)| id).collect()
                    })
                })
                .collect();
            threads.into_iter().map(|thread| thread.join().unwrap()).collect()
        });
        // Each thread got the id the path has now, and the ids are the
        // slots 0..256: one per path, none handed out twice or lost.
        for (t, ids) in ids.iter().enumerate() {
            let now: Vec<PathId> = mine(t).map(|i| store.intern_path(&paths[i]).unwrap()).collect();
            assert_eq!(*ids, now);
            let mut committed: Vec<String> = mine(t).map(|i| paths[i].clone()).collect();
            committed.sort();
            assert_eq!(store.list_files(&format!("u{t}")), committed);
        }
        let mut slots: Vec<u32> = paths.iter().map(|p| store.intern_path(p).unwrap().0).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..paths.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn id_keyed_writes_are_the_str_writes() {
        let by_name = ObjectStore::new();
        let by_id = ObjectStore::new();
        let (a, b) = (stored(b"first chunk"), stored(b"second chunk"));
        let alice = by_id.writer().intern_user("alice").unwrap();
        assert_eq!(by_id.writer().intern_user("alice").unwrap(), alice);
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
        assert_eq!(by_id.writer().commit_files_by_id(alice, &batch), Ok(version));
        assert_eq!(version, 3);
        // The empty batch writes nothing and reports where the counter is.
        assert_eq!(by_id.writer().commit_files_by_id(alice, &[]), Ok(version));

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
    fn a_writer_takes_one_lock_for_its_whole_life() {
        let locks_of = |write: &dyn Fn()| {
            let before = WRITE_LOCKS.with(std::cell::Cell::get);
            write();
            WRITE_LOCKS.with(std::cell::Cell::get) - before
        };
        let store = ObjectStore::new();
        // N four-file commits, each chunk new to its user.
        const N: u8 = 12;
        let names: Vec<Vec<String>> =
            (0..N).map(|c| (0..4u8).map(|f| format!("c{c}/f{f}")).collect()).collect();
        let commits: Vec<Vec<(PathId, StoredChunk)>> = (0..N)
            .map(|c| {
                (0..4u8)
                    .map(|f| {
                        let path = store.intern_path(&names[c as usize][f as usize]).unwrap();
                        (path, stored(&[c, f]))
                    })
                    .collect()
            })
            .collect();
        let alice = store.writer().intern_user("alice").unwrap();
        let bob = store.writer().intern_user("bob").unwrap();
        let through = |user: UserId| {
            let mut writer = store.writer();
            for files in &commits {
                writer.commit_files_by_id(user, files).unwrap();
            }
        };
        // Every chunk new to the user, or every one held already: one lock.
        assert_eq!(locks_of(&|| through(alice)), 1);
        assert_eq!(locks_of(&|| through(alice)), 1);
        // A writer per commit: one each.
        let per_commit = || {
            for files in &commits {
                store.writer().commit_files_by_id(bob, files).unwrap();
            }
        };
        assert_eq!(locks_of(&per_commit), N as u64);
        // The same four files as puts and commits: one lock per call.
        let separately = || {
            for (f, (_, chunk)) in commits[0].iter().enumerate() {
                store.put_chunk("cy", chunk.clone());
                store.commit_manifest("cy", manifest_for(&names[0][f], &[chunk]));
            }
        };
        assert_eq!(locks_of(&separately), 8);
    }

    // ---- model-based property tests -------------------------------------

    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

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
        observe_store_over(store, &universe().iter().map(|d| sha256(d)).collect::<Vec<_>>())
    }

    fn observe_model(model: &Model) -> Observed {
        observe_model_over(model, &universe().iter().map(|d| sha256(d)).collect::<Vec<_>>())
    }

    /// [`observe_store`] over the chunks of `hashes`.
    fn observe_store_over(store: &ObjectStore, hashes: &[ContentHash]) -> Observed {
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

    fn observe_model_over(model: &Model, hashes: &[ContentHash]) -> Observed {
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

    /// Every record's two row lists are strictly sorted by their key (chunk
    /// id, path id): what the bisections rest on, and no key is there
    /// twice. The ids are whole too: a held id is an owned entry, a live
    /// manifest's are held, and the index holds each live entry once, in a
    /// slot its hash's probe reaches, at most half full. Each id list is
    /// named by one live manifest or free, and no freed id has a payload.
    fn assert_rows_sorted(store: &ObjectStore) {
        let tables = store.read();
        let chunks = &tables.chunks;
        let indexed = |id: ChunkId| chunks.find(&chunks.entry(id).hash) == Some(id);
        let mut handles: Vec<u32> = (tables.records.iter().flat_map(|record| &record.files))
            .filter_map(|file| match file.chunks {
                ChunkRef::Many(handle) => Some(handle),
                ChunkRef::One(_) => None,
            })
            .chain(tables.lists.free.iter().copied())
            .collect();
        handles.sort_unstable();
        assert_eq!(handles, (0..tables.lists.lists.len() as u32).collect::<Vec<_>>());
        assert!(tables
            .lists
            .free
            .iter()
            .all(|&handle| tables.lists.lists[handle as usize].is_empty()));
        assert!(chunks.free.iter().all(|&id| chunks.payload(id).is_none()));
        for record in &tables.records {
            assert!(record.held.windows(2).all(|pair| pair[0].0 < pair[1].0));
            assert!(record.files.windows(2).all(|pair| pair[0].path.0 < pair[1].path.0));
            assert!(record.held.iter().all(|&(id, _)| indexed(id) && chunks.entry(id).owners > 0));
            let listed = record.files.iter().flat_map(|file| tables.lists.ids(&file.chunks));
            assert!(listed.copied().all(|id| record.find_held(id).is_ok()));
        }
        let mut live: Vec<ChunkId> = chunks.index.ids().map(ChunkId).collect();
        assert!(live.iter().all(|&id| indexed(id)));
        live.sort_unstable();
        live.dedup();
        assert_eq!(live.len(), chunks.len());
        assert!(chunks.len() * 2 <= chunks.index.slots.len() || chunks.index.slots.is_empty());
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
        let ann = store.writer().intern_user("ann").unwrap();
        let scattered: Vec<u32> = (0..FILES).map(|i| i * 7_919 % FILES).collect();
        for run in scattered.chunks(250) {
            let mut batch = Vec::new();
            for &i in run {
                let chunk = chunk_of(i, 0);
                model.put("ann", chunk.clone(), None);
                model.commit("ann", one(path_of(i), &chunk)).unwrap();
                batch.push((store.intern_path(&path_of(i)).unwrap(), chunk));
            }
            let version = store.writer().commit_files_by_id(ann, &batch).unwrap();
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

    /// A hash whose index word ([`hash_word`]) is `word`, told apart from
    /// others of that word by `tag`. SHA-256 never makes two of them, so
    /// only crafted hashes reach the index's collision, wrap and shift
    /// paths.
    fn crafted(word: u64, tag: u8) -> ContentHash {
        let mut bytes = [tag; 32];
        bytes[8..16].copy_from_slice(&word.to_le_bytes());
        ContentHash(bytes)
    }

    impl ChunkTable {
        /// The slot `hash`'s probe run starts at.
        fn home(&self, hash: &ContentHash) -> usize {
            self.index.home(hash_word(hash))
        }

        /// The slot holding `hash`'s id (`Ok`), or the empty slot that
        /// ends its probe run (`Err`).
        fn probe(&self, hash: &ContentHash) -> Result<usize, usize> {
            self.index.probe(hash_word(hash), |id| self.entries[id as usize].hash == *hash)
        }
    }

    fn sized(hash: ContentHash, len: u64) -> StoredChunk {
        StoredChunk { hash, stored_len: len, plain_len: len }
    }

    /// One write, taken by the store and by the naive model.
    enum Step {
        Put(&'static str, StoredChunk, Option<Vec<u8>>),
        Commit(&'static str, &'static str, Vec<StoredChunk>),
        HardDelete(&'static str, &'static str),
        Sweep,
    }

    fn store_and_model(eager: bool) -> (ObjectStore, Model) {
        let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
        (ObjectStore::with_policy(policy), Model { eager, ..Model::default() })
    }

    /// Takes `steps` on both, comparing everything readable over `hashes`
    /// and the store's invariants after each.
    fn agree(store: &ObjectStore, model: &mut Model, hashes: &[ContentHash], steps: Vec<Step>) {
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Put(user, chunk, payload) => {
                    let put = match &payload {
                        Some(bytes) => store.put_chunk_with_payload(user, chunk.clone(), bytes),
                        None => store.put_chunk(user, chunk.clone()),
                    };
                    assert_eq!(put, model.put(user, chunk, payload.as_deref()));
                }
                Step::Commit(user, path, chunks) => {
                    let manifest = manifest_for(path, &chunks.iter().collect::<Vec<_>>());
                    let version = model.commit(user, manifest.clone());
                    assert_eq!(Some(store.commit_manifest(user, manifest)), version);
                }
                Step::HardDelete(user, path) => {
                    assert_eq!(
                        store.delete_manifest(user, path),
                        model.delete_manifest(user, path)
                    );
                }
                Step::Sweep => assert_eq!(store.collect_garbage(), model.collect_garbage()),
            }
            assert_eq!(
                (i, observe_store_over(store, hashes)),
                (i, observe_model_over(model, hashes))
            );
            assert_rows_sorted(store);
        }
    }

    /// Where each hash sits in the index, and the index's last slot.
    fn slots_of(store: &ObjectStore, hashes: &[ContentHash]) -> (Vec<Option<usize>>, usize) {
        let tables = store.read();
        let at = hashes.iter().map(|hash| tables.chunks.probe(hash).ok()).collect();
        (at, tables.chunks.index.slots.len() - 1)
    }

    /// Each chunk put by `user` and published alone at its own path.
    fn owned_alone(user: &'static str, chunks: &[(StoredChunk, &'static str)]) -> Vec<Step> {
        let puts = chunks.iter().map(|(chunk, _)| Step::Put(user, chunk.clone(), None));
        let commits =
            chunks.iter().map(|(chunk, path)| Step::Commit(user, path, vec![chunk.clone()]));
        puts.chain(commits).collect()
    }

    #[test]
    fn distinct_hashes_that_share_an_index_word_stay_distinct_chunks() {
        let (a, b, c) = (crafted(7, 1), crafted(7, 2), crafted(7, 3));
        for eager in [false, true] {
            let (store, mut model) = store_and_model(eager);
            let steps = vec![
                Step::Put("ann", sized(a, 10), None),
                Step::Put("ann", sized(b, 20), Some(vec![2; 20])),
                Step::Put("bob", StoredChunk { stored_len: 15, ..sized(b, 20) }, None),
                Step::Commit("ann", "a.bin", vec![sized(a, 10), sized(b, 20)]),
                Step::Commit("bob", "c", vec![sized(b, 20)]),
                Step::HardDelete("ann", "a.bin"),
                Step::Sweep,
                Step::Put("cy", sized(c, 30), Some(vec![3; 30])),
                Step::Put("cy", sized(a, 10), None),
            ];
            agree(&store, &mut model, &[a, b, c], steps);
            let tables = store.read();
            assert_eq!(tables.chunks.home(&a), tables.chunks.home(&c), "one probe run");
            assert_eq!(tables.chunks.len(), 3);
        }
    }

    #[test]
    fn a_probe_run_wraps_past_the_last_slot_and_shifts_back_across_it() {
        // Word u64::MAX starts at the last slot of any index; the run goes on
        // at slot 0, where a chunk whose home is slot 0 then has to queue.
        let [w0, w1, w2] = [1, 2, 3].map(|tag| crafted(u64::MAX, tag));
        let zero = crafted(0, 4);
        let hashes = [w0, w1, w2, zero];
        for eager in [false, true] {
            let (store, mut model) = store_and_model(eager);
            let mut steps = owned_alone("ann", &[(sized(w0, 11), "a.bin"), (sized(w1, 12), "c")]);
            steps.extend(owned_alone("ann", &[(sized(w2, 13), "docs/b.bin")]));
            steps.extend(owned_alone("bob", &[(sized(zero, 14), "a.bin")]));
            agree(&store, &mut model, &hashes, steps);
            let (at, last) = slots_of(&store, &hashes);
            assert_eq!(at, [Some(last), Some(0), Some(1), Some(2)]);

            // Freeing the run's head shifts each later member back one
            // slot: across the end of the array, and the slot-0 chunk too.
            agree(&store, &mut model, &hashes, vec![Step::HardDelete("ann", "a.bin"), Step::Sweep]);
            let (at, last) = slots_of(&store, &hashes);
            assert_eq!(at, [None, Some(last), Some(0), Some(1)], "eager: {eager}");
            agree(&store, &mut model, &hashes, vec![Step::Put("cy", sized(w0, 11), None)]);
            assert_eq!(slots_of(&store, &hashes).0[0], Some(2));
        }
    }

    #[test]
    fn a_removal_inside_a_probe_run_keeps_every_later_member_reachable() {
        // Homes 8, 9, 8, 8, 9: the run fills slots 8..=12 in put order.
        let (a, b, c, d, e) =
            (crafted(8, 1), crafted(9, 2), crafted(8, 3), crafted(8, 4), crafted(9, 5));
        let hashes = [a, b, c, d, e];
        for eager in [false, true] {
            let (store, mut model) = store_and_model(eager);
            let mut steps =
                owned_alone("ann", &[(sized(a, 1), "a.bin"), (sized(b, 2), "docs/b.bin")]);
            steps.extend(owned_alone("ann", &[(sized(c, 3), "c")]));
            steps.extend(owned_alone("bob", &[(sized(d, 4), "a.bin"), (sized(e, 5), "c")]));
            agree(&store, &mut model, &hashes, steps);
            let (at, _) = slots_of(&store, &hashes);
            assert_eq!(at, [8, 9, 10, 11, 12].map(Some));

            // Out of the middle: d (home 8) and e (home 9) both move back.
            agree(&store, &mut model, &hashes, vec![Step::HardDelete("ann", "c"), Step::Sweep]);
            assert_eq!(slots_of(&store, &hashes).0, [Some(8), Some(9), None, Some(10), Some(11)]);
            // Out of the head: b sits at its home and must stay; d and e
            // move past it.
            agree(&store, &mut model, &hashes, vec![Step::HardDelete("ann", "a.bin"), Step::Sweep]);
            assert_eq!(slots_of(&store, &hashes).0, [None, Some(9), None, Some(8), Some(10)]);
        }
    }

    #[test]
    fn a_freed_id_goes_to_the_next_new_chunk_and_no_other_answer_moves() {
        let (x, y, z) =
            (stored(b"ann's only chunk"), stored(b"bob's chunk"), stored(b"cy's new chunk"));
        let hashes = [x.hash, y.hash, z.hash];
        for eager in [false, true] {
            let (store, mut model) = store_and_model(eager);
            let steps = vec![
                Step::Put("ann", x.clone(), Some(b"ann's only chunk".to_vec())),
                Step::Put("bob", y.clone(), Some(b"bob's chunk".to_vec())),
                Step::Commit("ann", "a.bin", vec![x.clone()]),
                Step::Commit("bob", "a.bin", vec![y.clone()]),
            ];
            agree(&store, &mut model, &hashes, steps);
            let id_of = |hash: &ContentHash| store.read().chunks.find(hash);
            let freed = id_of(&x.hash).unwrap();
            let bobs = |store: &ObjectStore| {
                (
                    store.chunk("bob", &y.hash),
                    store.manifest("bob", "a.bin"),
                    store.chunk_payload(&y.hash),
                )
            };
            let before = bobs(&store);

            agree(&store, &mut model, &hashes, vec![Step::HardDelete("ann", "a.bin"), Step::Sweep]);
            assert_eq!(store.read().chunks.free, [freed]);
            agree(&store, &mut model, &hashes, vec![Step::Put("cy", z.clone(), None)]);
            assert_eq!(id_of(&z.hash), Some(freed), "the new chunk takes the freed id");
            assert_eq!(store.read().chunks.entries.len(), 2, "and the entries do not grow");
            assert_eq!(bobs(&store), before);
            assert_eq!((store.chunk("ann", &x.hash), store.chunk_payload(&x.hash)), (None, None));
            assert_eq!(
                store.chunk_payload(&z.hash),
                None,
                "the freed entry's payload went with it"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random names — the empty one, names that are prefixes of each
        /// other, repeats — interned into an empty interner until its index
        /// has doubled several times, against a `HashMap` model: after every
        /// step each name has the model's id (unknown names none), and each
        /// id gives its name back.
        #[test]
        fn the_name_interner_agrees_with_a_map(draws in proptest::collection::vec(0u8..127, 1..400)) {
            // Every string of up to six letters `a`/`b`: 127 names, each a
            // prefix of longer ones.
            let universe: Vec<String> = (0..127u32)
                .map(|n| {
                    let len = (n + 1).ilog2();
                    (0..len).map(|bit| if (n + 1) >> bit & 1 == 1 { 'b' } else { 'a' }).collect()
                })
                .collect();
            let mut names = Names::default();
            let mut model: HashMap<&str, u32> = HashMap::new();
            for &draw in &draws {
                let name = &universe[draw as usize];
                let next = model.len() as u32;
                let id = *model.entry(name).or_insert(next);
                prop_assert_eq!(names.intern(name), Some(id));
                for name in &universe {
                    prop_assert_eq!(names.get(name), model.get(name.as_str()).copied());
                }
                prop_assert_eq!(names.len(), model.len());
                for (&name, &id) in &model {
                    prop_assert_eq!(names.name(id), name);
                }
            }
            prop_assert!(names.len() * 2 <= names.index.slots.len());
        }

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
                        // 300 files long. The model runs put-then-commit
                        // per file.
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
                        let id = store.writer().intern_user(user).unwrap();
                        prop_assert_eq!(
                            store.writer().commit_files_by_id(id, &files),
                            Ok(model.users.get(user).map_or(0, |ns| ns.next_version))
                        );
                    }
                }
                prop_assert_eq!((step, observe_store(&store)), (step, observe_model(&model)));
                assert_rows_sorted(&store);
            }
        }

        /// The naive-model comparison again, over chunks whose hashes
        /// collide on purpose: eight hashes on three index words — the last
        /// slot's, so runs wrap, slot 0's and slot 1's — through every
        /// write the store has, so removals and freed-id reuse land inside
        /// long, wrapping probe runs.
        #[test]
        fn colliding_hashes_agree_with_the_naive_model(
            eager in any::<bool>(),
            ops in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let hashes: Vec<ContentHash> =
                (0..8u8).map(|tag| crafted([u64::MAX, 0, 1][tag as usize % 3], tag)).collect();
            let chunk = |pick: usize, variant: u64| StoredChunk {
                stored_len: 12 + pick as u64 - variant,
                ..sized(hashes[pick], 12 + pick as u64)
            };
            let (store, mut model) = store_and_model(eager);
            for (step, word) in ops.iter().enumerate() {
                let field = |shift: u32, modulo: u64| ((word >> shift) % modulo) as usize;
                let (user, path) = (USERS[field(8, 3)], PATHS[field(16, 3)]);
                let (a, b) = (chunk(field(24, 8), (word >> 40) % 3), chunk(field(32, 8), 0));
                match word % 8 {
                    0 | 1 => prop_assert_eq!(store.put_chunk(user, a.clone()), model.put(user, a, None)),
                    2 => {
                        let payload = vec![a.hash.0[0]; a.plain_len as usize];
                        prop_assert_eq!(
                            store.put_chunk_with_payload(user, a.clone(), &payload),
                            model.put(user, a, Some(&payload))
                        );
                    }
                    3 => {
                        let chunks = if word >> 48 & 1 == 1 { vec![&a, &b] } else { vec![&a] };
                        let manifest = manifest_for(path, &chunks);
                        if let Some(version) = model.commit(user, manifest.clone()) {
                            prop_assert_eq!(store.commit_manifest(user, manifest), version);
                        }
                    }
                    4 => prop_assert_eq!(store.delete_manifest(user, path), model.delete_manifest(user, path)),
                    5 => prop_assert_eq!(store.purge_user(user), model.purge(user)),
                    6 => prop_assert_eq!(store.collect_garbage(), model.collect_garbage()),
                    _ => {
                        let mut files = Vec::new();
                        for f in 0..[1, 3, 9][field(48, 3)] {
                            let (path, chunk) = (PATHS[(field(52, 3) + f) % 3], chunk((field(56, 8) + 3 * f) % 8, 0));
                            model.put(user, chunk.clone(), None);
                            prop_assert!(model.commit(user, manifest_for(path, &[&chunk])).is_some());
                            files.push((store.intern_path(path).unwrap(), chunk));
                        }
                        let id = store.writer().intern_user(user).unwrap();
                        prop_assert_eq!(store.writer().commit_files_by_id(id, &files), Ok(model.users[user].next_version));
                    }
                }
                prop_assert_eq!((step, observe_store_over(&store, &hashes)), (step, observe_model_over(&model, &hashes)));
                assert_rows_sorted(&store);
            }
        }

        /// How long a writer lives is invisible: the same interleaving of
        /// batches over six users — shared and private chunks, a hash
        /// repeated inside a batch, paths superseded — with hard deletes,
        /// purges and sweeps between writers, written through one writer
        /// over every batch and through a writer per batch, reads back the
        /// same after every writer, and every chunk a user holds is in the
        /// physical table once its writer is dropped.
        #[test]
        fn a_writers_queue_changes_nothing_a_caller_can_read(
            eager in any::<bool>(),
            // Per segment: the operation after its writer, then its batches.
            segments in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..13), 1..6),
        ) {
            let policy = if eager { GcPolicy::Eager } else { GcPolicy::MarkSweep };
            let users: Vec<String> = (0..6).map(|u| format!("user-{u}")).collect();
            let paths: Vec<String> = (0..6).map(|p| format!("dir/p{p}")).collect();
            let shared: Vec<Vec<u8>> = (0..8u8).map(|j| vec![j; 12 + j as usize]).collect();
            let private = |u: usize, i: u64| stored(format!("{} owns {i}", users[u]).as_bytes());
            let mut hashes: Vec<ContentHash> = shared.iter().map(|d| sha256(d)).collect();
            hashes.extend((0..6).flat_map(|u| (0..64).map(move |i| (u, i))).map(|(u, i)| private(u, i).hash));
            // The batches of one segment: a user, then one-chunk files on a
            // few paths (so paths are superseded), half of them shared.
            let batches_of = |words: &[u64], store: &ObjectStore| -> Vec<(UserId, Vec<(PathId, StoredChunk)>)> {
                words.iter().map(|&word| {
                    let u = (word % 6) as usize;
                    let mut draw = word;
                    let mut files: Vec<(PathId, StoredChunk)> = (0..[1, 4, 9, 40, 80][(word >> 8) as usize % 5])
                        .map(|_| {
                            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let chunk = if draw >> 63 == 1 {
                                variant_of(&shared[(draw >> 40) as usize % 8], (draw >> 50) % 3)
                            } else {
                                private(u, (draw >> 40) % 64)
                            };
                            (store.intern_path(&paths[(draw >> 32) as usize % 6]).unwrap(), chunk)
                        })
                        .collect();
                    if word >> 16 & 1 == 1 {
                        let again = files[0].1.clone();
                        files.push((store.intern_path(&paths[(word >> 20) as usize % 6]).unwrap(), again));
                    }
                    (store.writer().intern_user(&users[u]).unwrap(), files)
                }).collect()
            };
            let read_back = |store: &ObjectStore| {
                let namespaces: Vec<_> = users.iter().map(|user| (
                    store.stats(user),
                    store.list_files(user),
                    paths.iter().map(|path| store.manifest(user, path)).collect::<Vec<_>>(),
                    hashes.iter().map(|hash| store.chunk(user, hash)).collect::<Vec<_>>(),
                )).collect();
                let owned: Vec<u64> = hashes.iter().map(|hash| owners(store, hash)).collect();
                (store.aggregate(), namespaces, owned)
            };
            let stores: Vec<ObjectStore> = (0..2).map(|_| ObjectStore::with_policy(policy)).collect();
            for (step, segment) in segments.iter().enumerate() {
                let (between, words) = (segment[0], &segment[1..]);
                let mut seen = Vec::new();
                for (store, one_writer) in stores.iter().zip([true, false]) {
                    let batches = batches_of(words, store);
                    let versions: Vec<u64> = if one_writer {
                        let mut writer = store.writer();
                        batches.iter().map(|(user, files)| writer.commit_files_by_id(*user, files).unwrap()).collect()
                    } else {
                        batches.iter().map(|(user, files)| store.writer().commit_files_by_id(*user, files).unwrap()).collect()
                    };
                    for user in &users {
                        for hash in &hashes {
                            if store.chunk(user, hash).is_some() {
                                prop_assert!(store.has_chunk_globally(hash), "{} holds {}", user, hash);
                            }
                        }
                    }
                    let (user, path) = (&users[(between % 6) as usize], &paths[(between >> 8) as usize % 6]);
                    match (between >> 16) % 4 {
                        0 => { store.delete_manifest(user, path); }
                        1 => { store.purge_user(user); }
                        2 => { store.collect_garbage(); }
                        _ => {}
                    }
                    seen.push((step, versions, read_back(store)));
                }
                prop_assert_eq!(&seen[1], &seen[0]);
            }
        }

        /// `reserve` is a hint: whatever it is asked for — nothing, a
        /// little, more than any allocator grants — on an empty store or
        /// one that holds data, nothing readable moves, then or later.
        #[test]
        fn reserve_changes_nothing_a_caller_can_read(
            eager in any::<bool>(),
            script in proptest::collection::vec(any::<u64>(), 0..24),
            asks in proptest::collection::vec(any::<u64>(), 5..6),
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
                        store.reserve(ask(asks[0]), ask(asks[1]), ask(asks[2]), ask(asks[3]), ask(asks[4]));
                    }
                    let field = |shift: u32, modulo: u64| ((word >> shift) % modulo) as usize;
                    let user = store.writer().intern_user(USERS[field(8, 3)]).unwrap();
                    let path = store.intern_path(PATHS[field(16, 3)]).unwrap();
                    let chunk = variant_of(&data[field(24, 4)], (word >> 40) % 3);
                    store.writer().commit_files_by_id(user, &[(path, chunk)]).unwrap();
                    if word % 5 == 0 {
                        store.delete_manifest(USERS[field(8, 3)], PATHS[field(32, 3)]);
                    }
                }
                if reserving && reserve_at >= script.len() {
                    store.reserve(ask(asks[0]), ask(asks[1]), ask(asks[2]), ask(asks[3]), ask(asks[4]));
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
                sequential.writer().intern_user(user).unwrap();
            }
            (0..3).for_each(|u| commit_phase(&sequential, u));
            (0..3).for_each(|u| release_phase(&sequential, u));
            sequential.collect_garbage();

            let threaded = ObjectStore::with_policy(policy);
            for user in USERS.iter().rev() {
                threaded.writer().intern_user(user).unwrap();
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
