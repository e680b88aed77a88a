//! The fleet-scale runner: 100k–1M lightweight clients on the event heap.
//!
//! The full fleet harness ([`crate::fleet`]) gives every client a real
//! [`crate::client::SyncClient`] — a planner, a simulator, a packet trace —
//! which is the right fidelity for tens of clients and hopeless for a
//! million. This module keeps the *population-scale* questions (commits per
//! second against the shared store, concurrency peaks, inter-user dedup at
//! scale) and drops the per-client machinery: each client is a compact
//! [`ScaleSpec`]-derived state record of a few dozen bytes, its commit
//! instants are seeded draws over a virtual horizon, its transfer times are
//! computed analytically from its access link, and its chunks are committed
//! to the [`ObjectStore`] as metadata-only records (hashes derived from the
//! content seeds — no file bytes are ever generated or retained, because
//! at 100k clients the plaintext would dominate the host's memory).
//!
//! Execution is two sequential walks on the calling thread over one
//! [`Phase::Sync`] event per `(client, commit)` pair, sorted once by
//! `(timestamp, client id)`. The **timeline** walk goes first to last in
//! that order and touches only the event's client's state record: the
//! transfer interval from the event instant, the client's `busy_until` and
//! its link, the interval log — no store access. The
//! **store** walk goes client by client, each client's commits in the order
//! the timeline walk met them in, one store write per commit. The two
//! orders leave the same store because scale clients never interact except
//! through the store's commutative updates: different users' writes commute
//! (counts of distinct keys, sums, a `min`), and a user's own writes keep
//! their event-key order, so every version number, manifest and counter is
//! the one the event order would have produced — a test replays both a spec
//! and a remapped capture in plain event order through the store's public
//! API and compares every user's namespace. What the client-major order
//! buys is locality: a user's rows live in the user's record (see the
//! store's module docs), so both of a client's commits write one record
//! while it is hot, and the heap fills in client order.
//!
//! Nothing here needs the wave-by-wave lock step the full-fidelity fleet
//! ([`crate::fleet`]) executes — waves survive on this path only as a
//! *count* (`crate::engine::wave_count`) the partition suite reports.
//! The partition runner ([`crate::partition`]) cuts the population into
//! disjoint client sets, walks them in order and merges them by event key
//! into exactly the timeline walk's order, which is what makes a
//! partitioned run bit-identical to this one, and two runs of the same
//! spec dump identical JSON (the `fleet-scale` golden dump pins exactly
//! that). Splitting the walk across threads was measured and
//! deleted: two client stripes ran at 0.78× one thread on the perf
//! instrument's 10k-client row (`services.scale_nw_speedup`), so nothing on
//! this path takes a worker count.
//!
//! ## One commit runner
//!
//! Every scale-path surface — [`run_population`], [`run_population_traced`],
//! [`crate::capture::replay_capture`], [`crate::partition::run_one`] — is a
//! thin adapter over the private `drive`: the adapter names a `Source` (a
//! spec plus the [`ClientSet`] it drives, or a capture under a replay mix)
//! and post-processes the result; `drive` resolves the source *once* into
//! its events, per-commit shape and interned paths (`Commits`), sizes the
//! store, takes the one store writer and interns the owned clients through
//! it, sorts the events, and walks them through the one timeline and that
//! writer. Packet capture is the traceless run plus
//! one pass after it: [`run_population_traced`] emits every commit's packets
//! from the run's events and interval log, already in the capture's
//! canonical order. The unsliced run is simply the partition that owns
//! every client, so there is no second loop for the bit-identity tests to
//! keep in step.
//!
//! ## Memory discipline
//!
//! The runner's own per-client budget is the state record, the client's
//! interned store id and its share of the event list, the interval log and
//! the store walk's index (one `u32` round per commit) — under 256 bytes
//! per client, asserted by a `size_of` test below — against the many
//! kilobytes a `SyncClient` costs. The store is the larger share: a
//! client's eight files cost it eight rows in each of its record's two
//! lists, 16-byte held rows and 24-byte file rows that carry `u32` chunk
//! ids, plus its four private chunks' 44-byte entries, the one place their
//! hashes are kept, and its name, 12 bytes in the store's one name text
//! with an 8-byte end and its index slots — 645 bytes of store per client
//! at 10 000 clients and 621 at a million, which `ObjectStore::footprint`
//! counts and the `store_footprint` tests pin (see the store's module
//! docs). All of it is sized **once**: a resolved run knows its clients,
//! their names' lengths, commits, files and shared-pool share before the
//! first event fires, so the driver hands the store the totals
//! (`reserve_population`; the partition controller does it once for all
//! partitions, whose own calls then find the room already there). The
//! records, the names and their index, the chunk entries and their index
//! never double on the way up — a doubling holds the old and the new
//! allocation at once — and a scale client costs the store **two exact
//! allocations**, its record's two lists at their final eight rows, made by
//! the client's first commit and never grown. The event list, the interval
//! log and the summary vectors are not streamed yet.
//!
//! The commit loop allocates nothing, and is a *bundling* client of its own
//! store: paths are interned when the run is resolved, users through the
//! walk's [`cloudsim_storage::store::StoreWriter`] before the walk (each
//! name formatted into one reused `String`), and a commit of `n` files
//! refills the driver's one batch buffer and makes **one** call to that
//! writer (one lookup in the chunk table and one search of the user's rows
//! per file), which holds the store's lock for the whole run. Beyond its
//! record's two lists a client allocates nothing, and a run allocates what
//! it reserves: an integration test with a counting allocator pins a whole
//! run's allocations and allocated bytes per commit to what this path
//! measures, plus five per cent.

use crate::capture::{FleetCapture, ReplayMix};
use crate::engine::{EventHeap, FleetEvent, Phase};
use crate::partition::ClientSet;
use cloudsim_net::AccessLink;
use cloudsim_storage::{AggregateStats, ContentHash, ObjectStore, PathId, StoredChunk, UserId};
use cloudsim_trace::packet::{
    Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol, TCP_HEADER_BYTES,
};
use cloudsim_trace::{
    series, FlowId, FlowKind, LatencyHistogram, SimDuration, SimTime, Trace, TraceShard,
};
use cloudsim_workload::seed::{derive_seed, unit_f64};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt::Write;

#[doc(hidden)]
pub use crate::perf_pins::{run_scale, run_scale_traced};

/// The user name of scale client `i` in the shared store — shared with the
/// capture/replay path ([`crate::capture`]), which reconstructs the same
/// store keyspace from client indices alone.
pub(crate) fn scale_user(i: usize) -> String {
    let mut name = String::new();
    write_scale_user(&mut name, i);
    name
}

/// Writes [`scale_user`]`(i)` over `name`, reusing its allocation.
fn write_scale_user(name: &mut String, i: usize) {
    name.clear();
    write!(name, "scale-{i:06}").expect("a String takes any write");
}

/// The length of [`scale_user`]`(i)`: the prefix and at least six digits.
fn scale_user_len(i: usize) -> usize {
    "scale-".len() + i.checked_ilog10().map_or(1, |digits| digits as usize + 1).max(6)
}

/// Interns the store paths of one client's files, indexed
/// `round * files_per_commit + file`. Every client commits the same
/// paths, so a run interns `commits × files` of them, once.
pub(crate) fn intern_paths(
    store: &ObjectStore,
    commits_per_client: usize,
    files_per_commit: usize,
    shared_files: usize,
) -> Result<Vec<PathId>, String> {
    let mut paths = Vec::with_capacity(commits_per_client * files_per_commit);
    for round in 0..commits_per_client {
        for f in 0..files_per_commit {
            let label = if f < shared_files { "shared" } else { "private" };
            let path = format!("{label}/c{round:03}_f{f:03}");
            paths.push(store.intern_path(&path).map_err(|e| e.to_string())?);
        }
    }
    Ok(paths)
}

/// Sizes `store` once for the clients `owned` holds, each committing
/// `files_per_client` one-chunk files to as many paths, the first
/// `shared_per_client` of them from the population-wide pool: every other
/// chunk is private to its client, a pool chunk is stored once. What the
/// tables then never do is double (see [`ObjectStore::reserve`]).
pub(crate) fn reserve_population(
    store: &ObjectStore,
    owned: &ClientSet,
    files_per_client: usize,
    shared_per_client: usize,
) {
    let clients = owned.len();
    let name_bytes = owned.iter().map(scale_user_len).sum();
    let private = files_per_client.saturating_sub(shared_per_client);
    let unique = clients.saturating_mul(private).saturating_add(shared_per_client);
    store.reserve(clients, name_bytes, files_per_client, files_per_client, unique);
}

/// Salt distinguishing commit-instant draws from every other seeded stream.
const SALT_SCALE_AT: u64 = 0x5CA1_E0A7;
/// Salt base for per-file content seeds (offset by the file index, which
/// stays far below the distance to any other salt).
const SALT_SCALE_CONTENT: u64 = 0x5CA1_EC00;

/// Workload description for one fleet-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSpec {
    /// Number of lightweight clients.
    pub clients: usize,
    /// Commits (batches) each client performs over the horizon.
    pub commits_per_client: usize,
    /// Files per commit; each file is one metadata-only chunk.
    pub files_per_commit: usize,
    /// Plaintext size of each file in bytes; at most `u32::MAX`, the
    /// longest chunk the store holds.
    pub file_size: u64,
    /// Master seed; every draw derives from it.
    pub(crate) seed: u64,
}

impl ScaleSpec {
    /// The largest population a run accepts — the CLI's refusal bound, not
    /// a store limit (the store's `u32` user ids reach sixteen times
    /// further, its chunk ids, at four private chunks per client, four
    /// times). Its store alone, at the ~620 B per client the
    /// `store_footprint` tests count (621 B at a million clients), would
    /// need ~167 GB, so `repro` refuses a larger `--clients` before
    /// anything is allocated, and [`run_population`] and its siblings panic on a
    /// larger spec.
    pub const MAX_CLIENTS: usize = 268_435_455;

    /// Fraction of each commit drawn from a population-wide shared pool
    /// (identical content seeds across clients — what inter-user dedup
    /// acts on at scale).
    pub(crate) const SHARED_FRACTION: f64 = 0.5;

    /// The virtual horizon commit instants are drawn uniformly over.
    pub const HORIZON: SimDuration = SimDuration::from_secs(3600);

    /// Access links distributed round-robin across the clients (client `i`
    /// uploads through `LINKS[i % len]`): all four presets.
    pub(crate) const LINKS: [AccessLink; 4] = AccessLink::all();

    /// A population of `clients` uploaders: two commits each of four 64 kB
    /// files (half from the shared pool) spread over one virtual hour,
    /// across all four link presets.
    pub fn new(clients: usize) -> ScaleSpec {
        ScaleSpec {
            clients,
            commits_per_client: 2,
            files_per_commit: 4,
            file_size: 64 * 1024,
            seed: 0x5CA1E,
        }
    }

    /// Sets the commits each client performs.
    pub fn with_commits(mut self, commits: usize) -> ScaleSpec {
        self.commits_per_client = commits;
        self
    }

    /// Sets the per-commit workload (file count and size).
    pub fn with_files(mut self, files_per_commit: usize, file_size: u64) -> ScaleSpec {
        self.files_per_commit = files_per_commit;
        self.file_size = file_size;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> ScaleSpec {
        self.seed = seed;
        self
    }

    /// The user name of client `i` in the shared store.
    pub fn user(&self, i: usize) -> String {
        scale_user(i)
    }

    /// The link client `i` uploads through.
    pub fn link(&self, i: usize) -> &AccessLink {
        &ScaleSpec::LINKS[i % ScaleSpec::LINKS.len()]
    }

    /// Files per commit that come from the population-wide shared pool.
    pub fn shared_files_per_commit(&self) -> usize {
        ((self.files_per_commit as f64) * ScaleSpec::SHARED_FRACTION).round() as usize
    }

    /// The seeded virtual instant of client `i`'s commit `k`: a uniform
    /// draw over the horizon. Pure data — no wall clock, no shared RNG.
    pub fn commit_at(&self, i: usize, k: usize) -> SimTime {
        let draw = derive_seed(self.seed, i as u64, k as u64, SALT_SCALE_AT);
        SimTime::ZERO + ScaleSpec::HORIZON * unit_f64(draw)
    }

    /// The content seed of file `f` of client `i`'s commit `k`, the first
    /// `shared_files` ([`ScaleSpec::shared_files_per_commit`], which the
    /// caller computes once) of a commit being shared-pool files: those
    /// exclude the client index, so the same hash lands from every client
    /// and the server dedups it to one physical entry. Captures record
    /// these seeds verbatim so a replay commits identical hashes.
    pub(crate) fn content_seed(&self, shared_files: usize, i: usize, k: usize, f: usize) -> u64 {
        let owner = if f < shared_files { u64::MAX } else { i as u64 };
        derive_seed(self.seed, owner, k as u64, SALT_SCALE_CONTENT + f as u64)
    }

    /// The trace flow id of client `i`'s commit `k` — a pure function of
    /// the spec, *not* an allocation from a worker shard, so the traced
    /// capture merges bit-identically whatever worker executed the commit.
    pub fn commit_flow(&self, i: usize, k: usize) -> FlowId {
        FlowId((i * self.commits_per_client + k) as u64)
    }

    /// Lowers the spec into its event queue: one [`Phase::Sync`] event per
    /// `(client, commit)` pair at its seeded instant. Deriving twice yields
    /// identical queues.
    pub fn events(&self) -> EventHeap {
        EventHeap::from_events(self.events_of(&ClientSet::Range { start: 0, end: self.clients }))
    }

    /// The commit events of the clients `owned` holds, in set order.
    fn events_of(&self, owned: &ClientSet) -> Vec<FleetEvent> {
        let mut events = Vec::with_capacity(owned.len() * self.commits_per_client);
        for i in owned.iter() {
            for k in 0..self.commits_per_client {
                events.push(FleetEvent {
                    at: self.commit_at(i, k),
                    phase: Phase::Sync,
                    client: i,
                    round: k,
                });
            }
        }
        events
    }

    /// Resolves the commits of the clients `owned` holds for the driver,
    /// with their events (global client ids, set order): one bundled round
    /// trip per commit over the spec's own links, content seeds derived on
    /// demand, paths interned into `store`.
    fn commits(
        &self,
        owned: &ClientSet,
        store: &ObjectStore,
    ) -> Result<(Commits<'_>, Vec<FleetEvent>), String> {
        self.validate();
        if let Some(stray) = owned.iter().find(|&i| i >= self.clients) {
            return Err(format!(
                "the client set owns client {stray} outside the {}-client spec",
                self.clients
            ));
        }
        let shared_files = self.shared_files_per_commit();
        let commits = Commits {
            owned: owned.clone(),
            files_per_commit: self.files_per_commit,
            shared_files,
            file_size: self.file_size,
            rtts_per_commit: 1,
            links: ScaleSpec::LINKS.to_vec(),
            paths: intern_paths(
                store,
                self.commits_per_client,
                self.files_per_commit,
                shared_files,
            )?,
            seeds: Box::new(move |i, k, f| self.content_seed(shared_files, i, k, f)),
        };
        Ok((commits, self.events_of(owned)))
    }

    /// Refuses a spec whose packet capture would wrap a field: client `i`
    /// records from address `10.(i >> 16).(i >> 8).i` and its commit `k`
    /// from port `40 000 + k`. (Each file is one packet whose payload length
    /// is a `u32`; every run already refuses a larger file.)
    /// [`run_population_traced`] panics with the message; `repro trace`
    /// exits with it.
    pub fn check_traceable(&self) -> Result<(), String> {
        let most_clients = 1usize << 24;
        let most_commits = usize::from(u16::MAX - TRACED_BASE_PORT) + 1;
        if self.clients > most_clients {
            return Err(format!(
                "a traced run records client i from address 10.(i>>16).(i>>8).i, so it takes at \
                 most {most_clients} clients: clients is {}",
                self.clients
            ));
        }
        if self.commits_per_client > most_commits {
            return Err(format!(
                "a traced run opens commit k from port {TRACED_BASE_PORT} + k, so it takes at \
                 most {most_commits} commits per client: commits_per_client is {}",
                self.commits_per_client
            ));
        }
        Ok(())
    }

    pub(crate) fn validate(&self) {
        assert!(self.clients > 0, "a scale run needs at least one client");
        assert!(
            self.clients <= ScaleSpec::MAX_CLIENTS,
            "a scale run indexes at most {} clients, got {}",
            ScaleSpec::MAX_CLIENTS,
            self.clients
        );
        assert!(self.commits_per_client > 0, "a scale run needs at least one commit per client");
        assert!(self.files_per_commit > 0, "a commit needs at least one file");
        assert!(self.file_size > 0, "files must have at least one byte");
        let (files, size) = (self.files_per_commit, self.file_size);
        if let Err(e) = check_run_totals(self.clients, self.commits_per_client, files, size) {
            panic!("{e}");
        }
    }
}

/// The products a run of `clients × commits` commits of `files` files of
/// `file_size` bytes computes — a commit's bytes, the event count, the
/// packets and paths of a run, its logical bytes — checked once, so none of
/// them can wrap later, and the file size, which the store must hold as one
/// chunk's `u32` length. [`ScaleSpec`] and [`crate::capture::FleetCapture`]
/// both validate through it.
pub(crate) fn check_run_totals(
    clients: usize,
    commits: usize,
    files: usize,
    file_size: u64,
) -> Result<(), String> {
    let commit_bytes = (files as u64).checked_mul(file_size).ok_or_else(|| {
        format!("files_per_commit × file_size ({files} × {file_size}) overflows u64")
    })?;
    let events = clients.checked_mul(commits).ok_or_else(|| {
        format!("clients × commits_per_client ({clients} × {commits}) overflows usize")
    })?;
    let packets = events.checked_mul(files.saturating_add(1));
    let bytes = (events as u64).checked_mul(commit_bytes);
    if packets.is_none() || bytes.is_none() {
        return Err(format!(
            "the run total of {events} commits (clients × commits_per_client) of {files} files \
             and {commit_bytes} bytes (files_per_commit × file_size) overflows u64 or usize"
        ));
    }
    if u32::try_from(file_size).is_err() {
        return Err(format!(
            "a file is one chunk, and the store keeps chunk lengths of at most {} bytes: \
             file_size is {file_size}",
            u32::MAX
        ));
    }
    Ok(())
}

/// One lightweight client's compact state: everything the runner keeps per
/// client between events. The `size_of` budget test below pins this to at
/// most 64 bytes — the allocation discipline that lets 100k–1M clients fit
/// where a single [`crate::client::SyncClient`] would not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScaleClientState {
    /// When the client's link is free again (commits on one link serialise).
    pub(crate) busy_until: SimTime,
    /// Plaintext bytes committed so far.
    pub(crate) logical_bytes: u64,
    /// Commits performed so far.
    pub(crate) commits: u32,
}

/// Expands a content seed into a synthetic 256-bit content hash: four
/// chained [`derive_seed`] finalisations, one per 8-byte lane. Identical
/// seeds (the shared pool) produce identical hashes, which is all the
/// dedup accounting needs — no file bytes exist to hash for real.
fn synth_hash(content_seed: u64) -> ContentHash {
    let mut bytes = [0u8; 32];
    for lane in 0..4u64 {
        let word = derive_seed(content_seed, lane, 0, 0);
        bytes[(lane as usize) * 8..][..8].copy_from_slice(&word.to_le_bytes());
    }
    ContentHash(bytes)
}

/// Where a run's commits come from — the one thing the adapters
/// ([`run_population`], [`run_population_traced`],
/// [`crate::capture::replay_capture`], [`crate::partition::run_one`]) tell
/// the driver.
pub(crate) enum Source<'a> {
    /// The commits of the clients in the set, derived live from the spec.
    Spec(&'a ScaleSpec, &'a ClientSet),
    /// Every commit a capture (whole-run or slice) recorded, re-driven
    /// under a mix.
    Capture(&'a FleetCapture, &'a ReplayMix),
}

/// Yields the content seed of file `f` of (global) client `i`'s commit
/// `k`: derived on demand from a spec's master seed, or looked up in a
/// capture.
type ContentSeeds<'a> = Box<dyn Fn(usize, usize, usize) -> u64 + Sync + 'a>;

/// One run's commits, resolved once from its [`Source`] before the first
/// event fires: who owns them and the per-commit shape.
pub(crate) struct Commits<'a> {
    /// The global clients the run drives; state records are set-local.
    pub(crate) owned: ClientSet,
    pub(crate) files_per_commit: usize,
    /// Leading files of each commit drawn from the shared pool.
    pub(crate) shared_files: usize,
    pub(crate) file_size: u64,
    /// Access round trips a commit pays: one when the service bundles, one
    /// per file when a replay remaps onto a service that does not.
    pub(crate) rtts_per_commit: u64,
    /// Access links, round-robin over global client ids.
    pub(crate) links: Vec<AccessLink>,
    /// The interned store paths of a client's files (see [`intern_paths`]).
    pub(crate) paths: Vec<PathId>,
    pub(crate) seeds: ContentSeeds<'a>,
}

impl Commits<'_> {
    /// The timeline half of a commit: advances the client's analytic
    /// timeline — the transfer starts when both the event instant and the
    /// client's link are ready, and lasts `rtts_per_commit` access round
    /// trips plus the serialised transmission time of the commit's bytes.
    /// No store access.
    fn transfer(&self, ev: &FleetEvent, state: &mut ScaleClientState) -> (SimTime, SimTime) {
        let link = &self.links[ev.client % self.links.len()];
        let batch_bytes = self.files_per_commit as u64 * self.file_size;
        let start = ev.at.max(state.busy_until);
        let end = start
            + link.access_rtt * self.rtts_per_commit
            + SimDuration::for_transmission(batch_bytes, link.up_bandwidth);
        state.busy_until = end;
        state.logical_bytes += batch_bytes;
        state.commits += 1;
        (start, end)
    }

    /// Refuses a run whose virtual clock would pass `u64::MAX` µs. A
    /// client's transfers serialise on its link, so its last one ends no
    /// later than the latest event instant plus one longest transfer per
    /// commit it performs: the commit's round trips plus its bytes over the
    /// slowest of the links.
    fn check_clock(&self, events: &[FleetEvent]) -> Result<(), String> {
        let latest = events.iter().map(|ev| ev.at).max().unwrap_or(SimTime::ZERO);
        let rounds = (self.paths.len() / self.files_per_commit) as u64;
        let batch_bytes = self.files_per_commit as u64 * self.file_size;
        let longest = self
            .links
            .iter()
            .map(|link| {
                let tx = SimDuration::checked_for_transmission(batch_bytes, link.up_bandwidth)?;
                link.access_rtt
                    .as_micros()
                    .checked_mul(self.rtts_per_commit)?
                    .checked_add(tx.as_micros())
            })
            .try_fold(0u64, |longest, us| us.map(|us| longest.max(us)));
        match longest.and_then(|us| us.checked_mul(rounds)?.checked_add(latest.as_micros())) {
            Some(_) => Ok(()),
            None => Err(format!(
                "the latest event (t_us {}) plus {rounds} commits (commits_per_client) of \
                 {batch_bytes} bytes (files_per_commit × file_size) each passes the virtual \
                 clock's u64 µs",
                latest.as_micros()
            )),
        }
    }

    /// The store half of a commit: refills `batch` — the driver's one
    /// buffer, so nothing here allocates — with (global) client `i`'s commit
    /// `k`, one metadata-only chunk per file under its interned path, for
    /// the driver to write in **one** store call.
    fn fill(&self, i: usize, k: usize, batch: &mut Vec<(PathId, StoredChunk)>) {
        let file_size = self.file_size;
        let paths = &self.paths[k * self.files_per_commit..][..self.files_per_commit];
        batch.clear();
        batch.extend(paths.iter().enumerate().map(|(f, &path)| {
            let hash = synth_hash((self.seeds)(i, k, f));
            (path, StoredChunk { hash, stored_len: file_size, plain_len: file_size })
        }));
    }
}

/// What the driver hands back: plain totals, events and intervals.
pub(crate) struct Driven {
    /// Clients the run owned.
    clients: usize,
    files_per_commit: usize,
    /// Commits performed, summed over the per-client state records.
    pub(crate) commits: u64,
    /// Plaintext bytes committed, summed likewise.
    pub(crate) logical_bytes: u64,
    /// The run's events in firing (= key) order, global client ids.
    pub(crate) events: Vec<FleetEvent>,
    /// Transfer intervals, parallel to `events`.
    pub(crate) intervals: Vec<(SimTime, SimTime)>,
}

impl Driven {
    /// Closes an unsliced run over the store it committed into.
    pub(crate) fn into_run(self, store: ObjectStore) -> ScaleRun {
        ScaleRun {
            clients: self.clients,
            commits: self.commits,
            files: self.commits * self.files_per_commit as u64,
            logical_bytes: self.logical_bytes,
            intervals: self.intervals,
            store,
        }
    }
}

/// The one commit runner. Resolves `source` into its [`Commits`], sizes the
/// store, takes its writer and interns the owned clients through it (in
/// client order), sorts the events once and walks them twice on the calling
/// thread. The **timeline** walk goes first to last in event-key order,
/// threading per-client state records through [`Commits::transfer`] and
/// logging each commit's transfer interval beside its event, which is all
/// the packet capture reads afterwards. The **store** walk goes client by
/// client, each client's commits in the event-key order the timeline walk
/// met them in, one [`Commits::fill`] and one call to the walk's store
/// writer per commit (see the module docs for why the two orders leave the
/// same store). The writer holds the store's lock from the first user
/// interned to the last commit; nothing in the run calls the store
/// otherwise.
///
/// An unsliced run is the one-partition run: its [`ClientSet`] is the
/// whole range, and nothing below distinguishes it from a slice.
pub(crate) fn drive(source: Source<'_>, store: &ObjectStore) -> Result<Driven, String> {
    let (commits, mut events) = match source {
        Source::Spec(spec, owned) => spec.commits(owned, store)?,
        Source::Capture(capture, mix) => capture.commits(mix, store)?,
    };
    commits.check_clock(&events)?;
    // Before the first name is interned: the names and their index are
    // sized too.
    let rounds = commits.paths.len() / commits.files_per_commit;
    reserve_population(
        store,
        &commits.owned,
        commits.paths.len(),
        rounds.saturating_mul(commits.shared_files),
    );
    // One lock for the run: the users are interned through the writer
    // that then walks the commits.
    let mut writer = store.writer();
    let mut name = String::new();
    let users = (commits.owned.iter())
        .map(|i| {
            write_scale_user(&mut name, i);
            writer.intern_user(&name)
        })
        .collect::<Result<Vec<UserId>, _>>()
        .map_err(|e| e.to_string())?;
    events.sort_unstable();
    assert_eq!(events.len(), users.len() * rounds, "every owned client commits every round");

    let mut states = vec![ScaleClientState::default(); users.len()];
    let mut intervals = Vec::with_capacity(events.len());
    // The store walk's index: per client, its rounds in event-key order
    // (a run's paths are interned per round under `u32` ids, so one fits).
    let mut order = vec![0u32; events.len()];
    for ev in &events {
        let local =
            commits.owned.local_index(ev.client).expect("a resolved event's client is owned");
        let state = &mut states[local];
        let nth = state.commits as usize;
        assert!(nth < rounds, "client {} commits more than {rounds} times", ev.client);
        order[local * rounds + nth] = u32::try_from(ev.round).expect("a round has u32 path ids");
        intervals.push(commits.transfer(ev, state));
    }

    let mut batch = Vec::with_capacity(commits.files_per_commit);
    for (local, &user) in users.iter().enumerate() {
        let client = commits.owned.global_id(local);
        for &round in &order[local * rounds..][..rounds] {
            commits.fill(client, round as usize, &mut batch);
            writer.commit_files_by_id(user, &batch).map_err(|e| e.to_string())?;
        }
    }
    drop(writer);
    Ok(Driven {
        clients: states.len(),
        files_per_commit: commits.files_per_commit,
        commits: states.iter().map(|s| s.commits as u64).sum(),
        logical_bytes: states.iter().map(|s| s.logical_bytes).sum(),
        events,
        intervals,
    })
}

/// Commit `k` of a traced run opens its connection from port
/// `TRACED_BASE_PORT + k`.
const TRACED_BASE_PORT: u16 = 40_000;

/// When packet `r` of a traced commit on `link` is sent, after the
/// commit's transfer start: the SYN (`r = 0`) at the start, the payload
/// packet of file `r - 1` one access round trip plus the transmission of
/// `r` files of `file_size` bytes later.
fn packet_offset(link: &AccessLink, file_size: u64, r: usize) -> SimDuration {
    match r {
        0 => SimDuration::ZERO,
        _ => {
            link.access_rtt + SimDuration::for_transmission(r as u64 * file_size, link.up_bandwidth)
        }
    }
}

/// Emits the packet skeleton of every commit `driven` performed into
/// `shard`, already in the canonical `(timestamp, flow, seq)` order, so the
/// shard's sort in [`TraceShard::freeze`] meets a sorted run. A commit
/// of client `i` opens its connection (flow [`ScaleSpec::commit_flow`])
/// with a SYN at its transfer start and sends one storage payload packet
/// per file at that file's analytic completion instant; `seq` is the
/// packet's place in its commit, SYN first.
///
/// Packet `r` of a commit on link `l` sits at `start + offset(l, r)`, so
/// once each link's commits are sorted by `(start, flow)`, every
/// `(l, r)` stream is sorted by `(timestamp, flow)`, and a k-way merge of
/// the streams keyed `(timestamp, flow, r)` gives the canonical order: `r`
/// orders a flow's packets that share a timestamp (one-byte files give a
/// commit's payload packets equal instants), and no key repeats because a
/// flow is one commit. `spec` has passed [`ScaleSpec::check_traceable`].
fn emit_commit_packets(shard: &mut TraceShard, spec: &ScaleSpec, driven: &Driven) {
    let payload_len = spec.file_size as u32;
    let links = &ScaleSpec::LINKS;
    let dst = Endpoint::from_octets(198, 18, 0, 1, 443);
    // Every commit as (link, start, flow, source endpoint), sorted once:
    // each link's commits form one run in (start, flow) order.
    type Commit = (usize, SimTime, FlowId, Endpoint);
    let mut commits: Vec<Commit> = (driven.events.iter().zip(&driven.intervals))
        .map(|(ev, &(start, _))| {
            let (i, k) = (ev.client, ev.round);
            let port = TRACED_BASE_PORT + k as u16;
            let src = Endpoint::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8, port);
            (i % links.len(), start, spec.commit_flow(i, k), src)
        })
        .collect();
    commits.sort_unstable();
    // One stream per (link, r): the link's run, each commit shifted by the
    // offset of its packet r.
    let streams: Vec<(&[Commit], SimDuration, usize)> = commits
        .chunk_by(|a, b| a.0 == b.0)
        .flat_map(|run| {
            let link = &links[run[0].0];
            (0..=spec.files_per_commit)
                .map(move |r| (run, packet_offset(link, spec.file_size, r), r))
        })
        .collect();

    // One heap entry per stream, keyed by its front packet; `next[s]` is
    // the index of stream `s`'s front commit in its run.
    let mut next = vec![0usize; streams.len()];
    let mut heap: BinaryHeap<_> = (streams.iter().enumerate())
        .map(|(s, &(run, offset, r))| Reverse((run[0].1 + offset, run[0].2, r, s)))
        .collect();
    while let Some(mut front) = heap.peek_mut() {
        let Reverse((timestamp, flow, r, s)) = *front;
        let (run, offset, _) = streams[s];
        let (flags, payload_len) =
            if r == 0 { (TcpFlags::SYN, 0) } else { (TcpFlags::ACK, payload_len) };
        shard.record(PacketRecord {
            timestamp,
            src: run[next[s]].3,
            dst,
            protocol: TransportProtocol::Tcp,
            flags,
            payload_len,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow,
            kind: FlowKind::Storage,
        });
        next[s] += 1;
        match run.get(next[s]) {
            Some(&(_, start, flow, _)) => *front = Reverse((start + offset, flow, r, s)),
            None => {
                PeekMut::pop(front);
            }
        }
    }
}

/// The result of one fleet-scale run: population-level aggregates plus the
/// transfer intervals the concurrency analysis consumes.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Clients the run drove.
    pub clients: usize,
    /// Commits (batches) performed across the population.
    pub commits: u64,
    /// File manifests committed across the population.
    pub files: u64,
    /// Plaintext bytes committed across the population.
    pub logical_bytes: u64,
    /// Every commit's `[start, end)` transfer interval on the shared
    /// virtual axis, in event order.
    pub intervals: Vec<(SimTime, SimTime)>,
    /// The shared store the population committed into.
    pub store: ObjectStore,
}

impl ScaleRun {
    /// Aggregate server-side statistics after the run.
    pub fn aggregate(&self) -> AggregateStats {
        self.store.aggregate()
    }

    /// Start of the earliest transfer.
    pub fn first_start(&self) -> SimTime {
        series::interval_span(&self.intervals).0
    }

    /// The virtual span the population was active over, in seconds.
    pub fn virtual_span_secs(&self) -> f64 {
        let (first, last) = series::interval_span(&self.intervals);
        (last - first).as_secs_f64()
    }

    /// Commits per virtual second over the active span — the server-side
    /// load figure. 0.0 for an empty run, never NaN.
    pub fn commits_per_vsec(&self) -> f64 {
        let span = self.virtual_span_secs();
        if span > 0.0 {
            self.commits as f64 / span
        } else {
            0.0
        }
    }

    /// The most transfers in flight at any virtual instant.
    pub fn concurrency_peak(&self) -> usize {
        series::concurrency_peak(&self.intervals)
    }

    /// Distribution of per-commit transfer durations. Intervals are logged
    /// in event order and the histogram's buckets are fixed, so the result
    /// is bit-identical across worker counts and reruns.
    pub fn transfer_histogram(&self) -> LatencyHistogram {
        series::duration_histogram(&self.intervals)
    }

    /// The server-side load curve: commits bucketed by start instant into
    /// `buckets` equal slices of the active span. The sum of the buckets is
    /// the commit total; an empty run yields all-zero buckets.
    pub fn load_curve(&self, buckets: usize) -> Vec<u64> {
        let (first, last) = series::interval_span(&self.intervals);
        series::start_curve(&self.intervals, first, (last - first).as_secs_f64(), buckets)
    }
}

/// Runs the population, committing into `store` — the one-partition case
/// of the commit runner, on the calling thread. A partitioned run
/// ([`crate::partition::run_partitioned`]) is bit-identical to this one.
///
/// Panics on a spec [`ScaleSpec`]'s own checks reject — among them more
/// than [`ScaleSpec::MAX_CLIENTS`] clients — and when `store` cannot index
/// the population (it already holds close to `u32::MAX` users).
pub fn run_population(spec: &ScaleSpec, store: ObjectStore) -> ScaleRun {
    let everyone = ClientSet::Range { start: 0, end: spec.clients };
    drive(Source::Spec(spec, &everyone), &store)
        .unwrap_or_else(|err| panic!("cannot run the population: {err}"))
        .into_run(store)
}

/// Runs the population with full packet capture: the traceless
/// [`run_population`], after which every commit's packets are emitted from
/// the run's events and interval log, in canonical order, into one
/// [`TraceShard`] that is frozen into one [`Trace`] (see
/// `emit_commit_packets`). The [`ScaleRun`] is bit-identical to the
/// traceless [`run_population`] of the same spec, which it panics like —
/// and on the checks of
/// [`ScaleSpec::check_traceable`]: a spec whose packets would wrap a
/// payload length, a source address or a source port is refused rather
/// than recorded wrapped.
pub fn run_population_traced(spec: &ScaleSpec, store: ObjectStore) -> (ScaleRun, Trace) {
    spec.validate();
    if let Err(err) = spec.check_traceable() {
        panic!("{err}");
    }
    let everyone = ClientSet::Range { start: 0, end: spec.clients };
    let driven = drive(Source::Spec(spec, &everyone), &store)
        .unwrap_or_else(|err| panic!("cannot run the population: {err}"));
    let mut shard = TraceShard::new();
    // The packet count per commit is known up front: one allocation.
    shard.reserve(driven.events.len() * (1 + spec.files_per_commit));
    emit_commit_packets(&mut shard, spec, &driven);
    (driven.into_run(store), shard.freeze())
}

/// The unsliced live run the scale-path tests compare against, on a
/// fresh mark-sweep store.
#[cfg(test)]
pub(crate) fn run_wide(spec: &ScaleSpec) -> ScaleRun {
    let store = ObjectStore::with_policy(cloudsim_storage::GcPolicy::MarkSweep);
    run_population(spec, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_storage::GcPolicy;

    fn small_spec() -> ScaleSpec {
        ScaleSpec::new(64).with_seed(0xAB)
    }

    #[test]
    fn per_client_state_respects_the_memory_budget() {
        // The whole point of the lightweight path: a client is a compact
        // state record, an event-heap entry per commit and an interval per
        // commit — not a SyncClient. Pin the sizes so a refactor cannot
        // silently fatten the per-client footprint.
        assert!(
            std::mem::size_of::<ScaleClientState>() <= 64,
            "ScaleClientState grew past the 64-byte budget: {} bytes",
            std::mem::size_of::<ScaleClientState>()
        );
        assert!(
            std::mem::size_of::<FleetEvent>() <= 40,
            "FleetEvent grew past the 40-byte budget: {} bytes",
            std::mem::size_of::<FleetEvent>()
        );
        // The runner's own per-client budget at the default two commits
        // per client: state + store id + 2 events + 2 intervals + 2 entries
        // of the store walk's index stays under a quarter kilobyte. (What
        // the *store* keeps per client is pinned by its own row-size test.)
        let per_client = std::mem::size_of::<ScaleClientState>()
            + std::mem::size_of::<UserId>()
            + 2 * std::mem::size_of::<FleetEvent>()
            + 2 * std::mem::size_of::<(SimTime, SimTime)>()
            + 2 * std::mem::size_of::<u32>();
        assert!(per_client <= 256, "per-client footprint {per_client} B exceeds 256 B");
    }

    #[test]
    fn a_user_name_is_as_long_as_the_store_is_told() {
        // `reserve_population` sizes the names' text from these lengths.
        for i in [0, 9, 10, 99_999, 999_999, 1_000_000, 12_345_678, usize::MAX] {
            assert_eq!(scale_user(i).len(), scale_user_len(i), "client {i}");
        }
        let mut name = String::from("a much longer name than any scale user's");
        write_scale_user(&mut name, 42);
        assert_eq!(name, "scale-000042");
    }

    /// What the two walks must leave behind: the same commits written the
    /// plain way — one writer per event, in event-key order —
    /// through the store's public API alone.
    fn written_in_event_order(
        mut commits: Vec<(FleetEvent, Vec<u64>)>,
        rounds: usize,
        shared_files: usize,
        file_size: u64,
    ) -> ObjectStore {
        commits.sort_by_key(|(ev, _)| *ev);
        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        let files = commits[0].1.len();
        let paths = intern_paths(&store, rounds, files, shared_files).unwrap();
        for (ev, seeds) in &commits {
            let user = store.writer().intern_user(&scale_user(ev.client)).unwrap();
            let batch: Vec<(PathId, StoredChunk)> = (seeds.iter().zip(&paths[ev.round * files..]))
                .map(|(&seed, &path)| {
                    let hash = synth_hash(seed);
                    (path, StoredChunk { hash, stored_len: file_size, plain_len: file_size })
                })
                .collect();
            store.writer().commit_files_by_id(user, &batch).unwrap();
        }
        store
    }

    /// Everything a caller can read of `clients` scale users, store against
    /// store: the aggregate, and per user the stats, the paths and every
    /// manifest with its version and chunks.
    fn assert_same_namespaces(run: &ObjectStore, plain: &ObjectStore, clients: usize) {
        assert_eq!(run.aggregate(), plain.aggregate());
        assert_eq!(run.users(), plain.users());
        for user in (0..clients).map(scale_user) {
            assert_eq!(run.stats(&user), plain.stats(&user), "{user}");
            let paths = plain.list_files(&user);
            assert_eq!(run.list_files(&user), paths, "{user}");
            for path in &paths {
                assert_eq!(run.manifest(&user, path), plain.manifest(&user, path), "{user} {path}");
            }
        }
    }

    #[test]
    fn the_two_walks_leave_the_store_the_event_order_leaves() {
        // A client's rounds fire in seeded order, so its manifests' version
        // numbers say in which order the store saw its commits.
        let spec = small_spec().with_commits(4);
        let shared_files = spec.shared_files_per_commit();
        let seeds_of = |i, k| {
            (0..spec.files_per_commit).map(|f| spec.content_seed(shared_files, i, k, f)).collect()
        };
        let everyone = ClientSet::Range { start: 0, end: spec.clients };
        let live = (spec.events_of(&everyone).into_iter())
            .map(|ev| (ev, seeds_of(ev.client, ev.round)))
            .collect();
        let plain = written_in_event_order(live, 4, shared_files, spec.file_size);
        let run = run_wide(&spec);
        assert_same_namespaces(&run.store, &plain, spec.clients);
        let versions: Vec<u64> = (plain.list_files(&scale_user(0)).iter())
            .map(|path| plain.manifest(&scale_user(0), path).unwrap().version)
            .collect();
        assert_eq!(versions.len(), 16);
        assert!(versions.windows(2).any(|pair| pair[0] > pair[1]), "rounds fire out of order");

        // A capture remapped onto a service that does not bundle, its
        // events listed last to first: the same store again.
        let mut capture = crate::capture::capture_of_spec(&spec);
        capture.events.reverse();
        let recorded = (capture.events.iter())
            .map(|ev| {
                let at = FleetEvent {
                    at: ev.at,
                    phase: Phase::Sync,
                    client: ev.client,
                    round: ev.round,
                };
                (at, ev.content_seeds.clone())
            })
            .collect();
        let plain = written_in_event_order(recorded, 4, shared_files, spec.file_size);
        let mix = ReplayMix::Profile(crate::profile::ServiceProfile::skydrive());
        let replayed = crate::capture::replay(&capture, &mix, 1).unwrap();
        assert_ne!(replayed.intervals, run.intervals, "the remap moves the timeline");
        assert_same_namespaces(&replayed.store, &plain, spec.clients);
        assert_same_namespaces(&replayed.store, &run.store, spec.clients);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let spec = small_spec();
        let a = run_wide(&spec);
        let b = run_wide(&spec);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.aggregate(), b.aggregate());
        assert_eq!(a.load_curve(16), b.load_curve(16));
        // A different seed reshuffles the instants.
        let c = run_wide(&spec.clone().with_seed(0xCD));
        assert_ne!(a.intervals, c.intervals);
    }

    #[test]
    fn shared_pool_dedups_across_the_population() {
        let run = run_wide(&small_spec());
        let agg = run.aggregate();
        assert_eq!(agg.users, 64);
        assert_eq!(run.commits, 128);
        assert_eq!(run.files, 512);
        // Half of every commit is shared content: 64 clients commit the
        // same two chunks per commit, so referenced approaches twice the
        // physical bytes (private files bound the ratio from above at 2).
        assert!(
            run.aggregate().dedup_ratio() > 1.5 && run.aggregate().dedup_ratio() < 2.1,
            "population-scale dedup ratio {} outside the expected band",
            run.aggregate().dedup_ratio()
        );
        assert!(agg.server_dedup_hits > 0);
        // Private files stay private: physical entries cover at least the
        // private chunks plus the shared pool.
        let shared = 2 * 2u64; // 2 shared files x 2 commits
        let private = 64 * 2 * 2u64;
        assert_eq!(agg.unique_chunks, shared + private);
    }

    #[test]
    fn load_metrics_are_positive_and_consistent() {
        let run = run_wide(&small_spec());
        assert!(run.virtual_span_secs() > 0.0);
        assert!(run.commits_per_vsec() > 0.0);
        assert!(run.concurrency_peak() >= 1);
        let curve = run.load_curve(12);
        assert_eq!(curve.iter().sum::<u64>(), run.commits);
        assert!(curve.iter().filter(|&&c| c > 0).count() > 1, "load must spread over the horizon");
    }

    #[test]
    fn commit_instants_stay_inside_the_horizon_and_serialise_per_client() {
        let spec = small_spec().with_commits(4);
        for i in [0usize, 9, 63] {
            for k in 0..4 {
                let at = spec.commit_at(i, k);
                assert!(at <= SimTime::ZERO + ScaleSpec::HORIZON);
            }
        }
        let run = run_population(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        // A client's transfers never overlap: its link serialises them.
        let per_client: Vec<Vec<(SimTime, SimTime)>> = (0..spec.clients)
            .map(|i| {
                let mut heap = spec.events();
                let mut mine = Vec::new();
                let mut idx = 0usize;
                while let Some(wave) = heap.next_wave() {
                    for ev in wave.events {
                        if ev.client == i {
                            mine.push(run.intervals[idx]);
                        }
                        idx += 1;
                    }
                }
                mine
            })
            .collect();
        for mine in per_client {
            for pair in mine.windows(2) {
                assert!(pair[0].1 <= pair[1].0 || pair[1].1 <= pair[0].0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panic() {
        run_wide(&ScaleSpec::new(0));
    }

    // The three products a run computes, each refused by name where it
    // would wrap: a two-file commit of 2^63-byte files used to report zero
    // logical bytes in release builds.
    #[test]
    #[should_panic(expected = "files_per_commit × file_size (2 × 9223372036854775808) overflows")]
    fn commit_bytes_past_u64_are_refused() {
        run_wide(&ScaleSpec::new(1).with_files(2, 1 << 63));
    }

    #[test]
    #[should_panic(expected = "clients × commits_per_client (2 × ")]
    fn an_event_count_past_usize_is_refused() {
        run_wide(&ScaleSpec::new(2).with_commits(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "the run total of 1099511627776 commits")]
    fn a_run_total_past_u64_is_refused() {
        run_wide(&ScaleSpec::new(1 << 20).with_commits(1 << 20).with_files(1 << 20, 1 << 20));
    }

    #[test]
    #[should_panic(expected = "file_size is 4294967296")]
    fn a_traced_run_refuses_a_file_size_its_packets_would_wrap() {
        // 4 GiB files: `file_size as u32` recorded empty payload packets.
        let spec = ScaleSpec::new(1).with_files(1, 1 << 32);
        run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
    }

    #[test]
    fn a_file_size_the_store_cannot_hold_is_refused_by_name() {
        // A file is one chunk, whose length the store keeps in a u32: the
        // traceless run refuses what it used to take, after the u64
        // product checks, and a run at the limit still goes.
        let err = check_run_totals(1, 2, 1, 1 << 32).unwrap_err();
        assert_eq!(
            err,
            "a file is one chunk, and the store keeps chunk lengths of at most 4294967295 \
             bytes: file_size is 4294967296"
        );
        let err = check_run_totals(1, 1, 2, 1 << 63).unwrap_err();
        assert!(err.starts_with("files_per_commit × file_size"), "{err}");
        let spec = ScaleSpec::new(1).with_files(1, u32::MAX.into());
        assert_eq!(run_wide(&spec).logical_bytes, 2 * u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "at most 16777216 clients: clients is 16777217")]
    fn a_traced_run_refuses_clients_its_source_addresses_would_alias() {
        // Client 2^24 would record from 10.0.0.0, client 0's address.
        let spec = ScaleSpec::new((1 << 24) + 1);
        run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
    }

    #[test]
    #[should_panic(expected = "at most 25536 commits per client: commits_per_client is 25537")]
    fn a_traced_run_refuses_commits_its_source_ports_would_wrap() {
        // Commit 25 536 would open from port 40 000 + 25 536, which wraps
        // to 0. The traceless run takes the same spec.
        let spec = ScaleSpec::new(1).with_commits(25_537).with_files(1, 1);
        assert_eq!(run_wide(&spec).commits, 25_537);
        run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
    }

    #[test]
    fn traced_run_matches_the_traceless_run_bit_for_bit() {
        let spec = small_spec();
        let plain = run_population(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        let (traced, _trace) =
            run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        assert_eq!(traced.commits, plain.commits);
        assert_eq!(traced.logical_bytes, plain.logical_bytes);
        assert_eq!(traced.intervals, plain.intervals);
        assert_eq!(traced.aggregate(), plain.aggregate());
    }

    /// The packets `emit_commit_packets` writes for `commits`, each a
    /// `(client, round, start)`.
    fn emitted(spec: &ScaleSpec, commits: &[(usize, usize, SimTime)]) -> Vec<PacketRecord> {
        let driven = Driven {
            clients: spec.clients,
            files_per_commit: spec.files_per_commit,
            commits: commits.len() as u64,
            logical_bytes: 0,
            events: (commits.iter())
                .map(|&(client, round, at)| FleetEvent { at, phase: Phase::Sync, client, round })
                .collect(),
            intervals: commits.iter().map(|&(_, _, start)| (start, start)).collect(),
        };
        let mut shard = TraceShard::new();
        emit_commit_packets(&mut shard, spec, &driven);
        shard.view().packets().to_vec()
    }

    #[test]
    fn emission_breaks_cross_flow_timestamp_ties_by_flow() {
        // Every start is t0 plus one of its link's packet offsets, so the
        // SYN of one commit lands on the microsecond of another commit's
        // payload packet `r`: ties between flows at different places in
        // their commits, which a merge keyed by `r` before `flow` would
        // order wrongly.
        let spec = ScaleSpec::new(32).with_commits(2).with_files(3, 64 * 1024);
        let t0 = SimTime::ZERO + ScaleSpec::HORIZON;
        let commits: Vec<(usize, usize, SimTime)> = (0..spec.clients)
            .flat_map(|i| (0..2).map(move |k| (i, k)))
            .map(|(i, k)| {
                let r = (i / 4 + k) % (1 + spec.files_per_commit);
                (i, k, t0 + packet_offset(spec.link(i), spec.file_size, r))
            })
            .collect();
        // The reference: each commit emitted alone (its packets in `seq`
        // order), concatenated, then stably sorted by (timestamp, flow).
        let mut reference: Vec<PacketRecord> =
            commits.iter().flat_map(|&commit| emitted(&spec, &[commit])).collect();
        reference.sort_by_key(|p| (p.timestamp, p.flow));
        let mixed_ties = (reference.windows(2))
            .filter(|w| w[0].timestamp == w[1].timestamp && w[0].flags != w[1].flags)
            .count();
        assert!(mixed_ties >= 16, "only {mixed_ties} SYN/payload ties across flows");
        assert_eq!(emitted(&spec, &commits), reference);
    }

    #[test]
    fn traced_capture_accounts_every_commit() {
        let spec = small_spec();
        let (run, trace) =
            run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        let view = trace.view();
        // One SYN + one payload packet per file, per commit.
        let expected = run.commits as usize * (1 + spec.files_per_commit);
        assert_eq!(view.len(), expected);
        let syns = view.packets().iter().filter(|p| p.flags == TcpFlags::SYN).count();
        assert_eq!(syns as u64, run.commits);
        let table = view.flow_table();
        assert_eq!(table.len(), run.commits as usize, "one flow per commit");
        // Wire bytes exceed the logical payload (headers), but not by much.
        let wire = view.wire_bytes(FlowKind::Storage);
        assert!(wire > run.logical_bytes);
        assert!((wire as f64) < run.logical_bytes as f64 * 1.1);
        // The capture is timestamp-faithful: packets stay inside the span.
        let last = view.packets().iter().map(|p| p.timestamp).max().expect("packets");
        assert!(last <= series::interval_span(&run.intervals).1);
    }
}
