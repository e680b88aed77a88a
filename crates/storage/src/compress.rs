//! Transparent compression of uploads.
//!
//! §4.5 of the paper finds that Dropbox compresses *everything* before
//! transmission (wasting CPU and sometimes bytes on already-compressed
//! content), Google Drive compresses *smartly* (it detects JPEG content from
//! the file header and skips compression), and the other three services do
//! not compress at all. The compression test uses three file sets: highly
//! compressible dictionary text, incompressible random bytes, and "fake
//! JPEGs" (JPEG header but text payload) that expose whether the smart policy
//! looks at magic numbers only or at the actual content.
//!
//! The compressor is a self-contained LZSS (LZ77 with a literal/match flag
//! bitmap): dictionary text compresses to a fraction of its size, random
//! bytes expand by the flag overhead (~1/8), which is exactly the behaviour
//! Fig. 5 shows for Dropbox.
//!
//! # Why a settled count is exact
//!
//! The paper's Dropbox wastes CPU compressing what cannot shrink, and
//! counting it through the coder would waste the simulator's too: a parse
//! of random bytes only ever answers the stored size. So before any parse,
//! the size count ([`LzssScratch::upload_size`]) makes one cheap pass that
//! counts the positions whose 4 bytes may repeat within the window. Where
//! at most about one in eleven can (`11·|R′| ≤ len + 32`), no parse could beat
//! stored mode, and the count is `len + 1` without one; otherwise the coder
//! runs as before. [`LzssScratch`]'s docs derive the bound, and the tests
//! `certificate_*` hold every settled input to the coder's own answer.

use crate::hash::ContentHash;
use cloudsim_parallel::{auto_workers, run_with_contexts};
use parking_lot::Mutex;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// When a service compresses data before upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CompressionPolicy {
    /// Never compress (SkyDrive, Wuala, Cloud Drive).
    Never,
    /// Compress every file regardless of content (Dropbox).
    Always,
    /// Compress unless the file looks already compressed, judged by magic
    /// numbers in its first bytes (Google Drive).
    Smart,
}

impl CompressionPolicy {
    /// Table-1 wording: "no", "always", "smart".
    pub fn describe(&self) -> &'static str {
        match self {
            CompressionPolicy::Never => "no",
            CompressionPolicy::Always => "always",
            CompressionPolicy::Smart => "smart",
        }
    }

    /// Number of bytes that would actually be uploaded for `data` under this
    /// policy (the quantity Fig. 5 plots). Compression is only kept when it
    /// helps; like real implementations, an incompressible input falls back to
    /// stored mode with a one-byte marker.
    pub fn upload_size(&self, data: &[u8]) -> u64 {
        with_thread_scratch(|scratch| self.upload_size_with(scratch, data))
    }

    /// Whether `data` goes through the coder under this policy (it may still
    /// come out in stored mode when coding does not help).
    pub(crate) fn compresses(&self, data: &[u8]) -> bool {
        match self {
            CompressionPolicy::Never => false,
            CompressionPolicy::Always => true,
            CompressionPolicy::Smart => !looks_compressed(data),
        }
    }

    /// [`CompressionPolicy::upload_size`] against an explicit, caller-owned
    /// scratch state — the form the upload pipeline's worker threads use so
    /// the coder tables are reused across chunks without any locking.
    pub fn upload_size_with(&self, scratch: &mut LzssScratch, data: &[u8]) -> u64 {
        if self.compresses(data) {
            scratch.upload_size(data)
        } else {
            data.len() as u64
        }
    }
}

/// One run's LZSS size counts, keyed by the counted content's SHA-256.
///
/// The count ([`LzssScratch::upload_size`]) is a pure function of the
/// bytes, so a run that meets the same content twice — Google Drive's
/// chunk of a file Dropbox already synced, a Fig. 4 base synced again, a
/// restore of a chunk an upload priced — needs it once. Both byte
/// pipelines price through the memo they are handed: a hit returns the
/// recorded count, a miss counts and records. A policy that does not code
/// the bytes ([`CompressionPolicy::Never`], a JPEG under `Smart`) never
/// asks.
///
/// Whoever owns a run owns its memo — a testbed, a fleet run, a planner
/// built on its own — so no count outlives its run. The lock is held for
/// one lookup or one insert, never while counting: two workers that miss
/// the same content at once both count it, and the second insert finds the
/// slot taken. The counts are equal.
///
/// Three readings repeat exactly, whatever the thread count:
/// [`SizeMemo::offered_bytes`], [`SizeMemo::distinct_bytes`] and
/// [`SizeMemo::certified_bytes`]. Which lookups hit does not, so it is not
/// reported.
pub struct SizeMemo {
    counts: Mutex<HashMap<ContentHash, u64>>,
    offered: AtomicU64,
    distinct: AtomicU64,
    certified: AtomicU64,
}

impl SizeMemo {
    /// An empty memo.
    pub fn new() -> SizeMemo {
        SizeMemo {
            counts: Mutex::new(HashMap::new()),
            offered: AtomicU64::new(0),
            distinct: AtomicU64::new(0),
            certified: AtomicU64::new(0),
        }
    }

    /// Bytes whose count was asked for: every coded chunk priced through
    /// this memo, once per time it was priced.
    pub fn offered_bytes(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Bytes of the distinct contents recorded: each once, added only by
    /// the insert that found its slot vacant.
    pub fn distinct_bytes(&self) -> u64 {
        self.distinct.load(Ordering::Relaxed)
    }

    /// Bytes of the distinct contents whose count the repeat pass settled
    /// without a parse (see [`LzssScratch`]): a part of
    /// [`SizeMemo::distinct_bytes`], recorded the same way.
    pub fn certified_bytes(&self) -> u64 {
        self.certified.load(Ordering::Relaxed)
    }

    /// What `policy.upload_size_with(scratch, data)` returns, for `data`
    /// hashing to `hash`; a count made here is recorded.
    pub(crate) fn upload_size(
        &self,
        policy: CompressionPolicy,
        scratch: &mut LzssScratch,
        hash: &ContentHash,
        data: &[u8],
    ) -> u64 {
        let (size, counted) = self.price(policy, scratch, hash, data);
        if let Some(count) = counted {
            self.record(*hash, data.len(), count);
        }
        size
    }

    /// [`SizeMemo::upload_size`] without recording: the size, plus the
    /// count when it was made here, for the caller to
    /// [`record`](SizeMemo::record) once it knows `data` hashes to `hash`.
    pub(crate) fn price(
        &self,
        policy: CompressionPolicy,
        scratch: &mut LzssScratch,
        hash: &ContentHash,
        data: &[u8],
    ) -> (u64, Option<Count>) {
        if !policy.compresses(data) {
            return (data.len() as u64, None);
        }
        self.offered.fetch_add(data.len() as u64, Ordering::Relaxed);
        let recorded = self.counts.lock().get(hash).copied();
        match recorded {
            Some(size) => (size, None),
            None => {
                let count = scratch.count(data);
                (count.size, Some(count))
            }
        }
    }

    /// Records `count` for the `len` bytes hashing to `hash`, unless a
    /// count is recorded for them already.
    pub(crate) fn record(&self, hash: ContentHash, len: usize, count: Count) {
        if let Entry::Vacant(slot) = self.counts.lock().entry(hash) {
            slot.insert(count.size);
            self.distinct.fetch_add(len as u64, Ordering::Relaxed);
            if count.settled {
                self.certified.fetch_add(len as u64, Ordering::Relaxed);
            }
        }
    }

    /// Whether a count is recorded for `hash`.
    #[cfg(test)]
    pub(crate) fn holds(&self, hash: &ContentHash) -> bool {
        self.counts.lock().contains_key(hash)
    }
}

impl Default for SizeMemo {
    fn default() -> Self {
        SizeMemo::new()
    }
}

impl std::fmt::Debug for SizeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizeMemo")
            .field("offered_bytes", &self.offered_bytes())
            .field("distinct_bytes", &self.distinct_bytes())
            .field("certified_bytes", &self.certified_bytes())
            .finish_non_exhaustive()
    }
}

/// Dropbox in the paper compresses with zlib; the LZSS implemented here is
/// weaker, so sizes are scaled against what the paper's Fig. 5(a) shows for
/// dictionary text. The wire format starts with a 1-byte tag: 0 = stored,
/// 1 = LZSS.
const TAG_STORED: u8 = 0;
const TAG_LZSS: u8 = 1;

/// Window and match-length limits of the LZSS coder.
const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259;

/// Number of hash-chain candidates examined per position.
const MAX_TRIES: u32 = 32;

/// Entries of the `head` table.
const HEAD_SIZE: usize = 1 << 16;

/// Bits of the repeat pass's bitset for one `WINDOW`-long block of
/// positions: 16 per position, so on random bytes a bit is set by chance
/// for at most ~9 % of the positions the pass checks against the last two
/// blocks (`R′` below) — under the certificate's budget of 1/11. Two such
/// bitsets fill half of `head`.
const REPEAT_BITS: usize = 16 * WINDOW;

/// Where a fresh (or refilled) scratch starts its position offset: far
/// enough above the zeroed `head` that a zero entry is out of window.
const BASE_START: u32 = WINDOW as u32 + 1;

/// Largest input one call accepts: `base + len + WINDOW + 1` must fit a
/// `u32` even straight after a refill.
const MAX_INPUT: usize = (u32::MAX - 2 * BASE_START) as usize;

/// "No earlier position in reach" in the `chain` ring: any step this long
/// leaves the window.
const FAR: u16 = u16::MAX;

/// Smallest part of one input the size count gives a core of its own: a
/// segment re-inserts up to `WINDOW` bytes before its start and parses
/// `SEAM_OVERLAP` bytes past its end, which a smaller part would not repay.
const MIN_PART: usize = WINDOW;

/// How far past its end a segment keeps parsing to meet the next one (on
/// the paper's corpora they meet 0–38 bytes past the seam; the test
/// `seams_meet_on_the_paper_corpora` prints it).
const SEAM_OVERLAP: usize = 2 * 1024;

/// Reusable match-finder state of the LZSS coder.
///
/// `head` maps the hash of a 4-byte prefix to the most recent position with
/// that hash; `chain` is a ring of `WINDOW` entries, `chain[pos & (WINDOW -
/// 1)]` holding how far back the previous position with `pos`'s hash lies —
/// a ring is enough, because candidates further than `WINDOW` back are
/// never followed. Both tables are reused, so a sequential size count
/// performs **zero heap allocation**.
///
/// # Why the tokens are exactly the plain hash-chain coder's
///
/// The coder this one replaced (kept under `#[cfg(test)]` as the reference
/// of the differential tests) wiped `head` before every call, kept absolute
/// positions in both tables, walked up to `MAX_TRIES` candidates per
/// position comparing byte by byte, and took a candidate when its match
/// length `l` satisfied `l > best_len`. Two shortcuts here skip work
/// without changing which `(dist, len)` wins:
///
/// * **The `best_len` pre-check.** A candidate whose byte at index
///   `best_len` differs from the current position's has a common prefix of
///   at most `best_len` bytes, so it can never satisfy `l > best_len`; it
///   is skipped without being measured (it still uses up one of the tries,
///   as before). Candidates that pass are measured in full, eight bytes per
///   step, and update `best` under the same strict test in the same chain
///   order. Once `best_len` is the longest match this position allows, no
///   candidate can beat it and the walk stops, as it did at `MAX_MATCH`.
/// * **Offset-encoded tables.** `head` holds `base + position`, and each
///   call advances `base` by `len + WINDOW + 1`. For the position `cur =
///   base + i`, an entry written in this call sits exactly the match
///   distance below `cur`; an entry left by an earlier call sits at least
///   `WINDOW + 2` below every `cur` of this call; a never-written entry is
///   0 and `base >= WINDOW + 1`. `chain` holds the step from a position to
///   its predecessor, `cur - head[h]` at the time it was inserted
///   (saturated to 16 bits, which is already out of window), so a stale or
///   empty predecessor is a step of more than `WINDOW` as well, and a ring
///   slot is only ever read for a candidate of this call that is still in
///   window, i.e. one written in this call and not yet overwritten. The
///   single test `dist > WINDOW` therefore ends the walk exactly where the
///   reference ended it with "slot empty" or "further than `WINDOW` back",
///   and nothing an earlier input left behind is ever followed — without
///   wiping 256 kB per call, and with a chain of half the size.
///
/// **Wrap rule:** a call whose `base + len + WINDOW + 1` would pass
/// `u32::MAX` first zeroes `head` and restarts `base` at `WINDOW + 1`, the
/// state of a fresh scratch (once per ~4 GB of input). `chain` needs no
/// refill: its slots are only read behind a `head` entry of this call.
///
/// One scratch per worker thread: exclusivity comes from the `&mut self`
/// receivers (the type itself auto-derives `Send`/`Sync` like any plain
/// `Vec` holder — there is no internal locking to share it through).
///
/// # Why the size count may split its input
///
/// [`LzssScratch::upload_size`] spreads one input over the host's cores
/// (see there), and the count comes out the sequential coder's exactly.
/// What a search at position `i` finds depends only on the chains, and the
/// chains at `i` hold every position `≤ len − 4` below `i`, inserted in
/// order, whatever the parse did: a searched position enters after its
/// search, the positions a match skips right after the match. The walk
/// never follows a candidate more than `WINDOW` back, and a predecessor
/// that was never inserted reads as a step out of window, just like one
/// that is too far. So a segment that first only *inserts* the `WINDOW`
/// bytes before its start (`tokenize_range`'s warm-up) finds the
/// sequential `(dist, len)` at every position it searches, and from any
/// position the sequential parse also visits, its greedy parse *is* the
/// sequential one.
///
/// # Why a settled count is exact
///
/// Before any parse or split, [`LzssScratch::upload_size`] makes one
/// branch-free pass over the input. Let `R` be the positions `j ≤ len − 4`
/// whose 4 bytes also occur 1..=`WINDOW` bytes earlier. The pass counts a
/// superset `R′ ⊇ R` and stops as soon as `11·|R′| > len + 32`; then the
/// coder runs as it always did. If the pass gets to the end, the count is
/// `len + 1`, the stored-mode fallback, without a parse, because that is
/// what the coder would have answered:
///
/// * a match `(L, d)` at `i` puts the positions `i..=i+L−4` into `R`, and
///   matches are disjoint, so `Σ(L−3) ≤ |R|`, and the number of matches
///   `M` is at most `|R|`;
/// * so the token bytes are `B = len − Σ(L−3) ≥ len − |R|`, and the token
///   count is `T = len − Σ(L−3) − 2M ≥ len − 3|R|`;
/// * so `stream_len = 5 + max(1, ⌈T/8⌉) + B ≥ len + 5 + (len − 11|R|)/8`,
///   which is at least `len + 1` whenever `11|R| ≤ len + 32`.
///
/// `R′` comes from two hashed bitsets of 64 kB each: one for the positions
/// of the current `WINDOW`-aligned block, one for the block before. A
/// position is counted when its hash's bit is set in either, then sets it
/// in the current one. Every position within `WINDOW` before `j` lies in
/// one of the two blocks and hashes its bytes as `j` would, so every member
/// of `R` is counted; a hash collision only adds to `R′`, which can make
/// the pass give up, never settle wrongly. An input shorter than a block
/// hashes into a share of the bitsets in proportion. On random bytes `|R′|`
/// stays under the budget; on the paper's text, where most positions
/// repeat, the pass gives up after about a tenth of a large input (a small
/// one repeats less early on, so more of it).
///
/// The bitsets are not a table of their own: the pass borrows the first
/// half of `head`, interleaved word by word, since it never runs while the
/// match finder does. It zeroes its share before it starts and leaves it
/// `dirty`; the match finder zeroes the dirty words before it reads `head`
/// again. A zero entry is one never written, so that changes no token.
#[derive(Debug, Clone)]
pub struct LzssScratch {
    /// Hash → `base` + most recent position with that 4-byte-prefix hash.
    /// (Fixed-size arrays: the masked indices need no bounds check.)
    head: Box<[u32; HEAD_SIZE]>,
    /// Ring buffer: `chain[pos & (WINDOW-1)]` = distance from `pos` back to
    /// the previous position with the same prefix hash, or [`FAR`].
    chain: Box<[u16; WINDOW]>,
    /// How many words at the start of `head` hold the repeat pass's bits
    /// instead of positions (see "Why a settled count is exact").
    dirty: usize,
    /// Offset the next call adds to its positions.
    base: u32,
}

impl Default for LzssScratch {
    fn default() -> Self {
        LzssScratch::new()
    }
}

/// Receives the token sequence the match finder chooses.
trait TokenSink {
    /// A run of literal tokens, one per byte.
    fn literals(&mut self, run: &[u8]);
    /// A match token.
    fn matched(&mut self, dist: usize, len: usize);
}

/// Materialises the wire stream: a flag byte per eight tokens (bit set =
/// match), literals as one byte, matches as 2-byte distance + 1-byte
/// `len - MIN_MATCH`.
struct StreamSink<'a> {
    out: &'a mut Vec<u8>,
    /// Index of the open flag byte and how many of its bits are used; a
    /// full one is replaced when the next token arrives.
    flags_pos: usize,
    flag_bit: u8,
}

impl<'a> StreamSink<'a> {
    fn new(out: &'a mut Vec<u8>, plain_len: usize) -> Self {
        out.push(TAG_LZSS);
        out.extend_from_slice(&(plain_len as u32).to_le_bytes());
        let flags_pos = out.len();
        out.push(0);
        StreamSink { out, flags_pos, flag_bit: 0 }
    }

    fn open_flag_byte(&mut self) {
        self.flags_pos = self.out.len();
        self.out.push(0);
        self.flag_bit = 0;
    }
}

impl TokenSink for StreamSink<'_> {
    fn literals(&mut self, run: &[u8]) {
        // Literal flags are zero bits: fill the open flag byte, then whole
        // groups of eight under a zero flag byte each, then open one for
        // the rest.
        let (fill, run) = run.split_at(run.len().min(8 - self.flag_bit as usize));
        self.out.extend_from_slice(fill);
        self.flag_bit += fill.len() as u8;
        let mut groups = run.chunks_exact(8);
        for group in &mut groups {
            self.out.push(0);
            self.out.extend_from_slice(group);
        }
        let rest = groups.remainder();
        if !rest.is_empty() {
            self.open_flag_byte();
            self.out.extend_from_slice(rest);
            self.flag_bit = rest.len() as u8;
        }
    }

    fn matched(&mut self, dist: usize, len: usize) {
        if self.flag_bit == 8 {
            self.open_flag_byte();
        }
        self.out[self.flags_pos] |= 1 << self.flag_bit;
        self.flag_bit += 1;
        self.out.extend_from_slice(&[
            (dist & 0xFF) as u8,
            (dist >> 8) as u8,
            (len - MIN_MATCH) as u8,
        ]);
    }
}

/// Counts what [`StreamSink`] would have written.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CountingSink {
    tokens: u64,
    token_bytes: u64,
}

impl CountingSink {
    /// Length of the LZSS stream: tag, 4-byte length, the flag bytes (the
    /// first is written before any token) and the token bytes.
    fn stream_len(&self) -> u64 {
        5 + self.tokens.div_ceil(8).max(1) + self.token_bytes
    }
}

impl TokenSink for CountingSink {
    fn literals(&mut self, run: &[u8]) {
        self.tokens += run.len() as u64;
        self.token_bytes += run.len() as u64;
    }

    fn matched(&mut self, _dist: usize, _len: usize) {
        self.tokens += 1;
        self.token_bytes += 3;
    }
}

/// A size count ([`LzssScratch::upload_size`]) and how it was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Count {
    /// Bytes on the wire.
    pub(crate) size: u64,
    /// Whether the repeat pass settled it without a parse.
    pub(crate) settled: bool,
}

/// A segment's `(tokens, token_bytes)` before some position.
type Counts = (u64, u64);

/// `len` consecutive positions from `pos` at which a segment's parse starts
/// a token (a run of literals, or one match with `len == 1`), and the
/// segment's counts before `pos`.
#[derive(Debug, Clone, Copy)]
struct Run {
    pos: usize,
    len: usize,
    tokens: u64,
    token_bytes: u64,
}

impl Run {
    /// The segment's `(tokens, token_bytes)` before `at`, one of the run's
    /// positions: every position before it in the run is a one-byte literal.
    fn before(&self, at: usize) -> Counts {
        let literals = (at - self.pos) as u64;
        (self.tokens + literals, self.token_bytes + literals)
    }
}

/// A [`CountingSink`] for one segment of a split count, which also records
/// where the parse stood near the segment's seams: at positions below
/// `lead_end` (its start seam) and from `trail_from` on (past its end seam).
struct SeamSink {
    count: CountingSink,
    /// The position the next token starts at.
    pos: usize,
    lead_end: usize,
    trail_from: usize,
    lead: Vec<Run>,
    trail: Vec<Run>,
}

impl SeamSink {
    /// Records that tokens start at the `n` positions from `self.pos`.
    fn visit(&mut self, n: usize) {
        let (from, to) = (self.pos, self.pos + n);
        let (tokens, token_bytes) = (self.count.tokens, self.count.token_bytes);
        let run = |lo: usize, hi: usize| {
            let skipped = (lo - from) as u64;
            Run {
                pos: lo,
                len: hi - lo,
                tokens: tokens + skipped,
                token_bytes: token_bytes + skipped,
            }
        };
        if from < self.lead_end {
            self.lead.push(run(from, to.min(self.lead_end)));
        }
        if to > self.trail_from {
            self.trail.push(run(from.max(self.trail_from), to));
        }
    }
}

impl TokenSink for SeamSink {
    fn literals(&mut self, run: &[u8]) {
        if !run.is_empty() {
            self.visit(run.len());
        }
        self.count.literals(run);
        self.pos += run.len();
    }

    fn matched(&mut self, dist: usize, len: usize) {
        self.visit(1);
        self.count.matched(dist, len);
        self.pos += len;
    }
}

/// The first position two segments' parses both visit — the earlier one's
/// `trail` against the later one's `lead` — with each segment's counts
/// before it; `None` if they do not meet in the overlap.
fn meet(trail: &[Run], lead: &[Run]) -> Option<(usize, Counts, Counts)> {
    let (mut a, mut b) = (trail.iter().peekable(), lead.iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let at = x.pos.max(y.pos);
        if at < x.pos + x.len && at < y.pos + y.len {
            return Some((at, x.before(at), y.before(at)));
        }
        if x.pos + x.len <= y.pos + y.len {
            a.next();
        } else {
            b.next();
        }
    }
    None
}

/// A size count done in segments: per seam in order, how far past it the
/// two parses met, up to the first seam where they did not (`None`); and
/// the counts spliced up to there.
#[derive(Debug)]
struct Split {
    count: CountingSink,
    meets: Vec<Option<usize>>,
}

impl Split {
    /// The spliced count, if the parses met at every seam.
    fn exact(self) -> Option<CountingSink> {
        self.meets.iter().all(Option::is_some).then_some(self.count)
    }
}

/// Counts the tokens of `data` in `parts` segments, one per scratch of
/// `scratches` at a time, in parallel. Segment `k` covers the `k`-th of
/// `parts` equal slices of `data`; it warms its chains up over the
/// `WINDOW` bytes before its start, parses greedily from there to
/// `SEAM_OVERLAP` bytes past its end, and records its parse positions near
/// both seams. At each seam the counts are spliced at the first position
/// both neighbours' parses visit: from there on the two parses are one (see
/// [`LzssScratch`]), so the total is each segment's counts between the
/// meeting points on either side of it.
fn split_count(scratches: &mut [&mut LzssScratch], data: &[u8], parts: usize) -> Split {
    let len = data.len();
    let seam = |k: usize| (len as u64 * k as u64 / parts as u64) as usize;
    let segments: Vec<SeamSink> = run_with_contexts(scratches, parts, |scratch, k| {
        let (start, end) = (seam(k), seam(k + 1));
        let last = k + 1 == parts;
        let mut sink = SeamSink {
            count: CountingSink::default(),
            pos: start,
            // Ends at `end`, so a meeting point never passes the next one.
            lead_end: if k == 0 { start } else { (start + SEAM_OVERLAP).min(end) },
            trail_from: if last { usize::MAX } else { end },
            lead: Vec::new(),
            trail: Vec::new(),
        };
        let stop_at = if last { len } else { (end + SEAM_OVERLAP).min(len) };
        scratch.tokenize_range(data, start.saturating_sub(WINDOW), start, stop_at, &mut sink);
        sink
    });

    let mut count = CountingSink::default();
    let mut meets = Vec::with_capacity(parts - 1);
    // Each segment contributes its counts from where it takes over from
    // the one before (`entered`) to where the next one takes over (`left`).
    let mut entered: Counts = (0, 0);
    for (k, segment) in segments.iter().enumerate() {
        let (left, next_entered) = match segments.get(k + 1) {
            None => ((segment.count.tokens, segment.count.token_bytes), (0, 0)),
            Some(next) => {
                let Some((at, here, there)) = meet(&segment.trail, &next.lead) else {
                    meets.push(None);
                    break;
                };
                meets.push(Some(at - seam(k + 1)));
                (here, there)
            }
        };
        count.tokens += left.0 - entered.0;
        count.token_bytes += left.1 - entered.1;
        entered = next_entered;
    }
    Split { count, meets }
}

/// The token count of `data` in `parts` segments over `scratches`, or —
/// with one part, or where a seam's parses do not meet — sequentially on
/// the first scratch.
fn count_in_parts(scratches: &mut [&mut LzssScratch], data: &[u8], parts: usize) -> CountingSink {
    if parts > 1 {
        if let Some(count) = split_count(scratches, data, parts).exact() {
            return count;
        }
    }
    let mut sink = CountingSink::default();
    scratches[0].tokenize(data, &mut sink);
    sink
}

/// Length of the common prefix of two equally long slices, eight bytes per
/// step.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut a_words = a.chunks_exact(8);
    let mut b_words = b.chunks_exact(8);
    let mut n = 0usize;
    for (x, y) in (&mut a_words).zip(&mut b_words) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact yields 8-byte words"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact yields 8-byte words"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a_words.remainder().iter().zip(b_words.remainder()).take_while(|(x, y)| x == y).count()
}

/// A zeroed table on the heap (never built on the stack first).
fn zeroed_table<T: Clone + Default, const N: usize>() -> Box<[T; N]> {
    let table = vec![T::default(); N].into_boxed_slice();
    table.try_into().unwrap_or_else(|_| unreachable!("the slice was built with N entries"))
}

impl LzssScratch {
    /// Allocates the scratch tables (the only allocations the coder makes).
    /// Zeroed tables hold no reachable entry, so nothing is filled.
    pub fn new() -> LzssScratch {
        LzssScratch::with_base(BASE_START)
    }

    /// A scratch whose next call starts at position offset `base` — how the
    /// tests reach the wrap rule without 4 GB of input.
    fn with_base(base: u32) -> LzssScratch {
        assert!(base >= BASE_START);
        LzssScratch { head: zeroed_table(), chain: zeroed_table(), dirty: 0, base }
    }

    /// Bytes that travel on the wire for `data` (compressed or stored-mode
    /// fallback): the token sequence [`compress`] writes, counted instead.
    ///
    /// An input of at least two `MIN_PART`s, counted at top level (not on
    /// a fan-out worker), is split into one segment per core, each parsed
    /// on its own thread with this scratch or one lent by the calling
    /// thread (see [`LzssScratch`] for why that is exact, `split_count` for
    /// the splice). Where two neighbouring parses do not meet within
    /// `SEAM_OVERLAP` bytes of their seam, the input is counted again
    /// sequentially; the answer is the same either way.
    ///
    /// Neither happens to an input the repeat pass settles first (see
    /// [`LzssScratch`]): random bytes are counted as stored without a
    /// parse.
    pub fn upload_size(&mut self, data: &[u8]) -> u64 {
        self.count(data).size
    }

    /// [`LzssScratch::upload_size`], and whether the repeat pass settled it.
    pub(crate) fn count(&mut self, data: &[u8]) -> Count {
        assert!(data.len() <= MAX_INPUT, "input too large for the LZSS coder");
        let stored = data.len() as u64 + 1;
        if self.settles(data) {
            return Count { size: stored, settled: true };
        }
        let parts = auto_workers(data.len() / MIN_PART, data.len() as u64, 0);
        let count = with_lent(self, parts - 1, |scratches| count_in_parts(scratches, data, parts));
        Count { size: count.stream_len().min(stored), settled: false }
    }

    /// The repeat pass: whether `11·|R′| ≤ len + 32` for `data`, which
    /// makes its count `len + 1` (see "Why a settled count is exact").
    /// Gives up at the first position that takes `|R′|` over that budget.
    fn settles(&mut self, data: &[u8]) -> bool {
        let len = data.len();
        let budget = (len + 32) / 11;
        let searchable = (len + 1).saturating_sub(MIN_MATCH);
        // This input's share of each bitset: 16 bits per position of its
        // first block, rounded up to a power of two; `table[w][b & 1]` is
        // word `w` of block `b`'s bitset.
        let bits = (16 * searchable.min(WINDOW)).next_power_of_two().clamp(32, REPEAT_BITS);
        let (words, shift) = (bits / 32, 32 - bits.trailing_zeros());
        self.dirty = self.dirty.max(2 * words);
        let table = &mut self.head.as_chunks_mut::<2>().0[..words];
        table.fill([0, 0]);
        let mut repeats = 0usize;
        for (block, start) in (0..searchable).step_by(WINDOW).enumerate() {
            let current = block & 1;
            if block > 1 {
                // Block `block − 2`'s bits give way to this block's.
                table.iter_mut().for_each(|pair| pair[current] = 0);
            }
            // Counts the position whose 4 bytes are `prefix` if they were
            // seen, marks them seen, and says whether that broke the budget.
            let mut check = |prefix: u32| {
                let h = (prefix.wrapping_mul(2654435761) >> shift) as usize;
                let pair = &mut table[h / 32];
                let bit = 1u32 << (h % 32);
                repeats += usize::from((pair[0] | pair[1]) & bit != 0);
                pair[current] |= bit;
                repeats > budget
            };
            let end = (start + WINDOW).min(searchable);
            let mut j = start;
            // Four positions per 8-byte load while one fits, then one each.
            while j + 4 <= end && j + 8 <= len {
                let word = u64::from_le_bytes(data[j..j + 8].try_into().expect("8 bytes"));
                let over = check(word as u32)
                    | check((word >> 8) as u32)
                    | check((word >> 16) as u32)
                    | check((word >> 24) as u32);
                if over {
                    return false;
                }
                j += 4;
            }
            for j in j..end {
                if check(u32::from_le_bytes(data[j..j + 4].try_into().expect("4 bytes"))) {
                    return false;
                }
            }
        }
        true
    }

    /// The match finder: feeds `sink` the literal/match tokens of `data`.
    fn tokenize(&mut self, data: &[u8], sink: &mut impl TokenSink) {
        self.tokenize_range(data, 0, 0, data.len(), sink);
    }

    /// The match finder over part of `data`: enters the positions
    /// `warm_from..start` into the hash chains without searching them, then
    /// feeds `sink` the tokens of the greedy parse from `start` until it
    /// reaches `stop_at` — or the last `MIN_MATCH - 1` bytes of `data`,
    /// which follow as literals. Matches may reach past `stop_at`, up to the
    /// end of `data`. [`LzssScratch::tokenize`] is the whole-input case.
    fn tokenize_range(
        &mut self,
        data: &[u8],
        warm_from: usize,
        start: usize,
        stop_at: usize,
        sink: &mut impl TokenSink,
    ) {
        let len = data.len();
        assert!(len <= MAX_INPUT, "input too large for the LZSS coder");
        debug_assert!(warm_from <= start && start <= stop_at && stop_at <= len);
        // Zero is "never written": what the repeat pass left reads as out
        // of window, like any entry of an earlier call.
        self.head[..self.dirty].fill(0);
        self.dirty = 0;
        let span = len as u32 + BASE_START;
        if u32::MAX - self.base < span {
            self.head.fill(0);
            self.base = BASE_START;
        }
        let base = self.base;
        self.base += span;
        let head = &mut *self.head;
        let chain = &mut *self.chain;

        let hash = |pos: usize| -> usize {
            let prefix = data[pos..pos + 4].try_into().expect("a 4-byte slice");
            (u32::from_le_bytes(prefix).wrapping_mul(2654435761) >> 16) as usize
        };
        // Positions with `MIN_MATCH` bytes ahead: the ones that are hashed.
        let searchable = (len + 1).saturating_sub(MIN_MATCH);

        for pos in warm_from..start.min(searchable) {
            insert(head, chain, hash(pos), pos, base + pos as u32);
        }
        let parse_end = stop_at.min(searchable);
        let mut i = start;
        let mut literals_from = start;
        while i < parse_end {
            let limit = (len - i).min(MAX_MATCH);
            let here = &data[i..i + limit];
            let cur = base + i as u32;
            let h = hash(i);

            // Every `head` entry is below `cur`; see the type's docs for
            // why `dist > WINDOW` covers "empty", "stale" and "too far".
            let newest = cur - head[h];
            let mut dist = newest as usize;
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            for _ in 0..MAX_TRIES {
                if dist > WINDOW {
                    break;
                }
                let c = i - dist;
                if data[c + best_len] == here[best_len] {
                    let l = common_prefix(&data[c..c + limit], here);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                }
                dist += chain[c & (WINDOW - 1)] as usize;
            }

            chain[i & (WINDOW - 1)] = newest.min(FAR as u32) as u16;
            head[h] = cur;
            if best_len >= MIN_MATCH {
                sink.literals(&data[literals_from..i]);
                sink.matched(best_dist, best_len);
                // Insert the skipped positions into the hash chains.
                let end = i + best_len;
                for pos in i + 1..end.min(searchable) {
                    insert(head, chain, hash(pos), pos, base + pos as u32);
                }
                i = end;
                literals_from = end;
            } else {
                i += 1;
            }
        }
        // Stopped short of the tail: the pending literals. Fewer than
        // MIN_MATCH bytes left: literals only, to the end.
        sink.literals(&data[literals_from..if i < searchable { i } else { len }]);
    }
}

/// Makes `pos`, stored as `at = base + pos`, the newest position with hash
/// `h`, chained to the one before it.
#[inline(always)]
fn insert(head: &mut [u32; HEAD_SIZE], chain: &mut [u16; WINDOW], h: usize, pos: usize, at: u32) {
    chain[pos & (WINDOW - 1)] = (at - head[h]).min(FAR as u32) as u16;
    head[h] = at;
}

thread_local! {
    /// The calling thread's own scratch, for [`compress`] and
    /// [`CompressionPolicy::upload_size`].
    static THREAD_SCRATCH: RefCell<LzssScratch> = RefCell::new(LzssScratch::new());
    /// The scratches this thread lends to the workers of its fan-outs, one
    /// per extra core, allocated here when first needed: no coder table is
    /// ever allocated on a spawned thread (where glibc would keep it in a
    /// per-thread arena).
    static LENT: RefCell<Vec<LzssScratch>> = const { RefCell::new(Vec::new()) };
}

fn with_thread_scratch<T>(f: impl FnOnce(&mut LzssScratch) -> T) -> T {
    THREAD_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Runs `f` over `own` and `extra` more scratches lent by the calling
/// thread: the contexts of a fan-out over `extra + 1` workers. With
/// `extra == 0` nothing is borrowed, so the one worker may lend in turn.
pub(crate) fn with_lent<T>(
    own: &mut LzssScratch,
    extra: usize,
    f: impl FnOnce(&mut [&mut LzssScratch]) -> T,
) -> T {
    if extra == 0 {
        return f(&mut [own]);
    }
    LENT.with(|lent| {
        let mut lent = lent.borrow_mut();
        if lent.len() < extra {
            lent.resize_with(extra, LzssScratch::new);
        }
        let mut scratches: Vec<&mut LzssScratch> =
            std::iter::once(own).chain(&mut lent[..extra]).collect();
        f(&mut scratches)
    })
}

/// Compresses `data` with LZSS. Falls back to stored mode when compression
/// would expand the input. Uses a per-thread [`LzssScratch`], so repeated
/// calls do not re-allocate the match-finder tables. The library itself
/// never writes a stream: both byte pipelines only count one
/// ([`CompressionPolicy::upload_size_with`]).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    with_thread_scratch(|scratch| {
        scratch.tokenize(data, &mut StreamSink::new(&mut out, data.len()));
    });
    if out.len() > data.len() {
        out.clear();
        out.push(TAG_STORED);
        out.extend_from_slice(data);
    }
    out
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let Some((&tag, rest)) = stream.split_first() else {
        return Err(DecompressError::Truncated);
    };
    match tag {
        TAG_STORED => Ok(rest.to_vec()),
        TAG_LZSS => decompress_lzss(rest),
        other => Err(DecompressError::BadTag(other)),
    }
}

/// Errors produced while decoding a compressed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended unexpectedly.
    Truncated,
    /// The stream carried an unknown format tag.
    BadTag(u8),
    /// A match token referenced data before the start of the output.
    BadDistance,
    /// A match token ran past the length the stream's header declared.
    Overrun,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream is truncated"),
            DecompressError::BadTag(t) => write!(f, "unknown compression tag {t}"),
            DecompressError::BadDistance => write!(f, "match distance out of range"),
            DecompressError::Overrun => write!(f, "match runs past the declared length"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Upper bound on what `token_bytes` of flag and token bytes can decode to.
fn max_decoded_len(token_bytes: usize) -> usize {
    token_bytes.div_ceil(3).saturating_mul(MAX_MATCH)
}

fn decompress_lzss(stream: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if stream.len() < 4 {
        return Err(DecompressError::Truncated);
    }
    let expected = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    // The declared length is input: reserve no more than the tokens that
    // follow could expand to (at best `MAX_MATCH` bytes per 3-byte match).
    let mut out = Vec::with_capacity(expected.min(max_decoded_len(stream.len() - 4)));
    let mut i = 4usize;
    while out.len() < expected {
        if i >= stream.len() {
            return Err(DecompressError::Truncated);
        }
        let flags = stream[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            let is_match = flags & (1 << bit) != 0;
            if is_match {
                if i + 3 > stream.len() {
                    return Err(DecompressError::Truncated);
                }
                let dist = stream[i] as usize | ((stream[i + 1] as usize) << 8);
                let len = stream[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadDistance);
                }
                if len > expected - out.len() {
                    return Err(DecompressError::Overrun);
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= stream.len() {
                    return Err(DecompressError::Truncated);
                }
                out.push(stream[i]);
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Magic-number sniffing, the paper's suggested "verify the file format before
/// trying to compress it (e.g., using magic numbers)" approach. Only the
/// header is inspected — which is why the *fake JPEG* test (JPEG header, text
/// body) fools the smart policy into skipping compression (Fig. 5c shows
/// Google Drive uploading fake JPEGs uncompressed).
pub fn looks_compressed(data: &[u8]) -> bool {
    const SIGNATURES: &[&[u8]] = &[
        b"\xFF\xD8\xFF",         // JPEG
        b"\x89PNG\r\n\x1a\n",    // PNG
        b"GIF87a",               // GIF
        b"GIF89a",               // GIF
        b"PK\x03\x04",           // ZIP / OOXML
        b"\x1F\x8B",             // gzip
        b"7z\xBC\xAF\x27\x1C",   // 7-Zip
        b"Rar!\x1A\x07",         // RAR
        b"\x42\x5A\x68",         // bzip2
        b"\x00\x00\x00\x1Cftyp", // MP4
        b"OggS",                 // Ogg
        b"fLaC",                 // FLAC
        b"\xFF\xFB",             // MP3
        b"ID3",                  // MP3 with ID3 tag
    ];
    SIGNATURES.iter().any(|sig| data.starts_with(sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_workload::{generate, FileKind, Mutation};
    use proptest::prelude::*;

    fn dictionary_text(len: usize) -> Vec<u8> {
        #[rustfmt::skip]
        const WORDS: &[&str] = &[
            "cloud", "storage", "benchmark", "synchronization", "personal", "measurement",
            "service", "traffic", "capability", "performance", "network", "protocol",
        ];
        let mut out = Vec::with_capacity(len);
        let mut i = 0usize;
        while out.len() < len {
            out.extend_from_slice(WORDS[i % WORDS.len()].as_bytes());
            out.push(b' ');
            i += 1;
        }
        out.truncate(len);
        out
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        // Mix the seed so that nearby seeds produce unrelated streams.
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

    /// The stored-mode wire form of `data`: its tag, then the bytes.
    fn stored(data: &[u8]) -> Vec<u8> {
        let mut out = vec![TAG_STORED];
        out.extend_from_slice(data);
        out
    }

    #[test]
    fn text_compresses_well_and_roundtrips() {
        let text = dictionary_text(200_000);
        let compressed = compress(&text);
        assert!(
            compressed.len() < text.len() / 3,
            "text should compress to <1/3: {} -> {}",
            text.len(),
            compressed.len()
        );
        assert_eq!(decompress(&compressed).unwrap(), text);
    }

    #[test]
    fn random_bytes_fall_back_to_stored_mode() {
        let data = random_bytes(100_000, 7);
        let compressed = compress(&data);
        assert_eq!(compressed.len(), data.len() + 1, "stored mode adds exactly one tag byte");
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_various_sizes_and_patterns() {
        for (i, data) in [
            Vec::new(),
            vec![0u8; 1],
            vec![42u8; 10_000],
            dictionary_text(1),
            dictionary_text(65),
            random_bytes(3, 1),
            random_bytes(70_000, 2),
            dictionary_text(300_000),
        ]
        .into_iter()
        .enumerate()
        {
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "case {i}");
            let s = stored(&data);
            assert_eq!(decompress(&s).unwrap(), data, "stored case {i}");
        }
    }

    #[test]
    fn policies_match_the_paper_behaviour() {
        let text = dictionary_text(500_000);
        let random = random_bytes(500_000, 3);
        let mut fake_jpeg = b"\xFF\xD8\xFF\xE0".to_vec();
        fake_jpeg.extend_from_slice(&dictionary_text(500_000 - 4));

        // Never: uploads exactly the input size for every content type.
        assert_eq!(CompressionPolicy::Never.upload_size(&text), 500_000);
        assert_eq!(CompressionPolicy::Never.upload_size(&random), 500_000);
        assert_eq!(CompressionPolicy::Never.upload_size(&fake_jpeg), 500_000);

        // Always (Dropbox): shrinks text, does not shrink random data, and
        // wastes effort compressing the fake JPEG (but does shrink it, since
        // its body is text).
        assert!(CompressionPolicy::Always.upload_size(&text) < 200_000);
        assert!(CompressionPolicy::Always.upload_size(&random) >= 500_000);
        assert!(CompressionPolicy::Always.upload_size(&fake_jpeg) < 200_000);

        // Smart (Google Drive): shrinks text, skips the (fake) JPEG entirely,
        // and gains nothing on random bytes (stored-mode marker only).
        assert!(CompressionPolicy::Smart.upload_size(&text) < 200_000);
        assert_eq!(CompressionPolicy::Smart.upload_size(&fake_jpeg), 500_000);
        let smart_random = CompressionPolicy::Smart.upload_size(&random);
        assert!((500_000..=500_001).contains(&smart_random), "got {smart_random}");
    }

    #[test]
    fn magic_number_detection() {
        assert!(looks_compressed(b"\xFF\xD8\xFF\xE0 rest of jpeg"));
        assert!(looks_compressed(b"\x89PNG\r\n\x1a\n...."));
        assert!(looks_compressed(b"PK\x03\x04zipfile"));
        assert!(looks_compressed(b"\x1F\x8Bgzip"));
        assert!(!looks_compressed(b"plain text document"));
        assert!(!looks_compressed(b""));
        assert!(!looks_compressed(&[0u8; 100]));
    }

    #[test]
    fn describe_matches_table1_wording() {
        assert_eq!(CompressionPolicy::Never.describe(), "no");
        assert_eq!(CompressionPolicy::Always.describe(), "always");
        assert_eq!(CompressionPolicy::Smart.describe(), "smart");
    }

    #[test]
    fn scratch_reuse_is_allocation_stable_and_correct() {
        let mut scratch = LzssScratch::new();
        let inputs = [
            dictionary_text(150_000),
            random_bytes(100_000, 21),
            dictionary_text(10),
            Vec::new(),
            dictionary_text(300_000),
        ];
        // The tables are the scratch's only heap, allocated once: every
        // count reuses them, and each one prices what `compress` writes.
        let tables = (scratch.head.as_ptr(), scratch.chain.as_ptr());
        for _ in 0..2 {
            for (i, data) in inputs.iter().enumerate() {
                let wire = compress(data);
                assert_eq!(decompress(&wire).unwrap(), *data, "case {i}");
                assert_eq!(scratch.upload_size(data), wire.len() as u64, "case {i}");
                assert_eq!((scratch.head.as_ptr(), scratch.chain.as_ptr()), tables, "case {i}");
            }
        }
    }

    /// Regression pin for the emitted byte stream itself: the scratch-based
    /// coder was written to be byte-identical to the original per-call
    /// allocator version, and every figure of the paper reproduction depends
    /// on these byte counts staying put. A future match-finder change that
    /// alters the stream (even roundtrip-correctly) must update these
    /// digests deliberately.
    #[test]
    fn compressed_streams_are_byte_stable() {
        use crate::hash::sha256;
        let text = dictionary_text(200_000);
        let c1 = compress(&text);
        assert_eq!(c1.len(), 2548);
        assert_eq!(
            sha256(&c1).to_hex(),
            "7f9700701e586d9657b9f0c81acceab1a5f5b6d7a69dc1f3102e37079ea7f022"
        );
        let mut mixed = pseudo_random_for_golden(50_000, 42);
        mixed.extend_from_slice(&dictionary_text(50_000));
        mixed.extend_from_slice(&mixed.clone()[..30_000]);
        let c2 = compress(&mixed);
        assert_eq!(c2.len(), 90739);
        assert_eq!(
            sha256(&c2).to_hex(),
            "7def903e84f30d1b5ee829360797c8dbce762c5760336545fe8a4f9b41f74f8e"
        );
    }

    /// Same generator as `random_bytes`, pinned separately so test-helper
    /// refactors cannot silently change the golden inputs.
    fn pseudo_random_for_golden(len: usize, seed: u64) -> Vec<u8> {
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

    #[test]
    fn upload_size_with_matches_upload_size() {
        let mut scratch = LzssScratch::new();
        let text = dictionary_text(80_000);
        let random = random_bytes(80_000, 5);
        let mut fake_jpeg = b"\xFF\xD8\xFF\xE0".to_vec();
        fake_jpeg.extend_from_slice(&dictionary_text(20_000));
        for policy in
            [CompressionPolicy::Never, CompressionPolicy::Always, CompressionPolicy::Smart]
        {
            for data in [&text, &random, &fake_jpeg] {
                assert_eq!(
                    policy.upload_size_with(&mut scratch, data),
                    policy.upload_size(data),
                    "{policy:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A memo's price, cold (counted, then recorded) and warm (read
        /// back), is `upload_size_with`'s, for each content kind under each
        /// policy; only coded bytes reach the memo.
        #[test]
        fn memo_prices_equal_the_size_count(
            kind in 0usize..3,
            policy in 0usize..3,
            len in 0usize..40_000,
            seed in any::<u64>(),
        ) {
            let kind = [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg][kind];
            let policy =
                [CompressionPolicy::Never, CompressionPolicy::Always, CompressionPolicy::Smart][policy];
            let data = generate(kind, len, seed);
            let hash = crate::hash::sha256(&data);
            let expected = policy.upload_size_with(&mut LzssScratch::new(), &data);
            let (memo, mut scratch) = (SizeMemo::new(), LzssScratch::new());
            let cold = memo.upload_size(policy, &mut scratch, &hash, &data);
            let warm = memo.upload_size(policy, &mut scratch, &hash, &data);
            prop_assert_eq!((cold, warm), (expected, expected));
            let coded = policy.compresses(&data);
            prop_assert_eq!(memo.holds(&hash), coded);
            let len = if coded { data.len() as u64 } else { 0 };
            prop_assert_eq!((memo.offered_bytes(), memo.distinct_bytes()), (2 * len, len));
            let settled = LzssScratch::new().count(&data).settled;
            prop_assert_eq!(memo.certified_bytes(), if settled { len } else { 0 });
        }
    }

    #[test]
    fn decompress_rejects_malformed_streams() {
        assert_eq!(decompress(&[]), Err(DecompressError::Truncated));
        assert_eq!(decompress(&[9, 1, 2]), Err(DecompressError::BadTag(9)));
        assert_eq!(decompress(&[TAG_LZSS, 1, 0]), Err(DecompressError::Truncated));
        // A match that points before the beginning of the output.
        let bad = vec![TAG_LZSS, 10, 0, 0, 0, 0b0000_0001, 5, 0, 2];
        assert_eq!(decompress(&bad), Err(DecompressError::BadDistance));
        assert!(!DecompressError::Truncated.to_string().is_empty());
        assert!(!DecompressError::BadTag(3).to_string().is_empty());
        assert!(!DecompressError::BadDistance.to_string().is_empty());
    }

    #[test]
    fn decompress_bounds_its_reservation_by_the_stream() {
        // Nine bytes declaring 4 GB: truncated, and found so without
        // reserving what the header claims.
        let hostile = [TAG_LZSS, 0xFF, 0xFF, 0xFF, 0xFF, 0, b'a', b'b', b'c'];
        assert_eq!(decompress(&hostile), Err(DecompressError::Truncated));
        assert!(max_decoded_len(hostile.len() - 5) <= 2 * MAX_MATCH);
        // The bound is an upper bound: the densest stream there is (match
        // tokens of MAX_MATCH bytes each) stays below it.
        let run = vec![7u8; 100_000];
        let packed = compress(&run);
        assert!(max_decoded_len(packed.len() - 5) >= run.len());
        assert_eq!(decompress(&packed).unwrap(), run);
    }

    #[test]
    fn decompress_rejects_a_match_that_overruns_the_declared_length() {
        // Declared length 6: one literal, then a match of 4 + 2 = 6 bytes.
        let overrun = [TAG_LZSS, 6, 0, 0, 0, 0b0000_0010, b'x', 1, 0, 2];
        assert_eq!(decompress(&overrun), Err(DecompressError::Overrun));
        assert!(!DecompressError::Overrun.to_string().is_empty());
        // The same token with the length it really produces decodes.
        let exact = [TAG_LZSS, 7, 0, 0, 0, 0b0000_0010, b'x', 1, 0, 2];
        assert_eq!(decompress(&exact).unwrap(), vec![b'x'; 7]);
    }

    /// The match finder as it stood before the pre-check, the word-wise
    /// compare, the offset-encoded tables and the token sinks: absolute
    /// positions, tables wiped per call, byte-by-byte compare. Frozen here
    /// as the reference the differential tests hold the coder to. Returns
    /// the LZSS stream itself, before the stored-mode decision, so that the
    /// token choices stay visible on inputs that do not compress.
    fn reference_stream(data: &[u8]) -> Vec<u8> {
        const NO_POS: u32 = u32::MAX;
        let mut head = vec![NO_POS; 1 << 16];
        let mut chain = vec![NO_POS; WINDOW];
        let mut out = vec![TAG_LZSS];
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        let hash = |window: &[u8]| -> usize {
            let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
            ((v.wrapping_mul(2654435761)) >> 16) as usize
        };
        let mut flags_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        let mut push_token = |out: &mut Vec<u8>, is_match: bool, bytes: &[u8]| {
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
            if is_match {
                out[flags_pos] |= 1 << flag_bit;
            }
            flag_bit += 1;
            out.extend_from_slice(bytes);
        };
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let mut candidate = head[hash(&data[i..i + 4])];
                let mut tries = MAX_TRIES;
                while candidate != NO_POS && tries > 0 {
                    let c = candidate as usize;
                    if i - c > WINDOW {
                        break;
                    }
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                    candidate = chain[c & (WINDOW - 1)];
                    tries -= 1;
                }
            }
            let end = if best_len >= MIN_MATCH {
                let token = [
                    (best_dist & 0xFF) as u8,
                    (best_dist >> 8) as u8,
                    (best_len - MIN_MATCH) as u8,
                ];
                push_token(&mut out, true, &token);
                i + best_len
            } else {
                push_token(&mut out, false, &data[i..i + 1]);
                i + 1
            };
            while i < end {
                if i + 4 <= data.len() {
                    let h = hash(&data[i..i + 4]);
                    chain[i & (WINDOW - 1)] = head[h];
                    head[h] = i as u32;
                }
                i += 1;
            }
        }
        out
    }

    /// One input of the differential tests, drawn from `seed`: random,
    /// dictionary text (periodic), one long run, a short self-overlapping
    /// period, an echo of the input's start at a distance around `WINDOW`,
    /// words in random order and bytes of a tiny alphabet (both full of
    /// partial matches of every length, which is what the `best_len` logic
    /// has to rank), or a mix; lengths from 0 (and the under-`MIN_MATCH`
    /// tail) through the window boundary up to 300 k.
    fn differential_input(seed: u64) -> Vec<u8> {
        let pick = |salt: u64, bound: usize| -> usize {
            let mut rng = TestRng::deterministic("differential_input", seed ^ (salt << 56));
            rng.below(bound as u64) as usize
        };
        let len = match pick(1, 16) {
            0..=5 => pick(2, 24),
            6..=10 => pick(2, 5_000),
            11 => WINDOW - 1,
            12 => WINDOW,
            13 => WINDOW + 1,
            14 => 2 * WINDOW + pick(2, 5_000),
            _ => pick(2, 300_001),
        };
        let mut data = match pick(3, 8) {
            0 => random_bytes(len, seed),
            1 => dictionary_text(len),
            2 => vec![seed as u8; len],
            3 => {
                let period = random_bytes(1 + pick(4, 9), seed);
                period.iter().copied().cycle().take(len).collect()
            }
            4 => {
                // The first 600 bytes again at distance WINDOW - 2 ..= WINDOW + 2.
                let mut data = random_bytes(WINDOW - 2 + pick(4, 5), seed);
                data.extend_from_within(..600);
                data.extend_from_slice(&random_bytes(pick(5, 40), seed + 1));
                data
            }
            5 => {
                let words = dictionary_text(400);
                let words: Vec<&[u8]> = words.split_inclusive(|&b| b == b' ').collect();
                let order = random_bytes(len / 4 + 1, seed);
                let mut data: Vec<u8> =
                    order.iter().flat_map(|&r| words[r as usize % words.len()]).copied().collect();
                data.truncate(len);
                data
            }
            6 => {
                let symbols = 2 + pick(4, 3) as u8;
                random_bytes(len, seed).into_iter().map(|b| b'a' + b % symbols).collect()
            }
            _ => {
                let mut data = random_bytes(len / 3, seed);
                data.extend_from_slice(&dictionary_text(len / 3));
                data.extend_from_within(..len / 4);
                data
            }
        };
        // Sometimes end on a few bytes the tail rule has to emit as literals.
        data.extend_from_slice(&random_bytes(pick(6, 4), seed + 2));
        data
    }

    /// The token stream and both entry points against the reference: three
    /// coder calls on `scratch`, and [`compress`] on the thread's own.
    fn assert_matches_reference(
        scratch: &mut LzssScratch,
        data: &[u8],
    ) -> Result<(), TestCaseError> {
        let reference = reference_stream(data);
        let mut stream = Vec::new();
        scratch.tokenize(data, &mut StreamSink::new(&mut stream, data.len()));
        prop_assert!(stream == reference, "stream differs, len {}", data.len());
        let mut counted = CountingSink::default();
        scratch.tokenize(data, &mut counted);
        prop_assert_eq!(counted.stream_len(), reference.len() as u64);

        let wire = if reference.len() > data.len() { stored(data) } else { reference };
        prop_assert!(compress(data) == wire, "wire differs, len {}", data.len());
        prop_assert_eq!(scratch.upload_size(data), (wire.len() as u64).min(data.len() as u64 + 1));
        Ok(())
    }

    #[test]
    fn edge_lengths_match_the_reference() {
        let mut scratch = LzssScratch::new();
        let lengths = (0..=12).chain([WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + MAX_MATCH + 3]);
        for len in lengths {
            for data in [random_bytes(len, 9), dictionary_text(len), vec![b'z'; len]] {
                assert_matches_reference(&mut scratch, &data).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// "Byte-identical" as a checked property: the emitted stream and
        /// the counted size against the frozen reference coder.
        #[test]
        fn coder_matches_the_reference_stream(seed in any::<u64>()) {
            let data = differential_input(seed);
            assert_matches_reference(&mut LzssScratch::new(), &data)?;
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever earlier inputs left in the tables is never followed.
        #[test]
        fn reused_scratch_matches_the_reference(seeds in collection::vec(any::<u64>(), 2..7)) {
            let mut scratch = LzssScratch::new();
            for seed in seeds {
                assert_matches_reference(&mut scratch, &differential_input(seed))?;
            }
        }

        /// The wrap rule: `base` starts so close to `u32::MAX` that the
        /// second or third input cannot be offset any more and the refill
        /// path runs, with the earlier inputs' entries in the tables.
        #[test]
        fn wrapping_base_refills_and_matches_the_reference(
            seeds in collection::vec(any::<u64>(), 3..5),
            slack in 0u32..4,
        ) {
            let inputs: Vec<Vec<u8>> = seeds.into_iter().map(differential_input).collect();
            let first_span = inputs[0].len() as u32 + BASE_START;
            let mut scratch = LzssScratch::with_base(u32::MAX - first_span - slack);
            for data in &inputs {
                // Three calls per input: only the very first fits under the
                // wrap, the second has already refilled.
                assert_matches_reference(&mut scratch, data)?;
                prop_assert!(scratch.base >= BASE_START && scratch.base < u32::MAX / 2);
            }
        }
    }

    /// The sequential count of `data`.
    fn sequential_count(data: &[u8]) -> CountingSink {
        let mut sink = CountingSink::default();
        LzssScratch::new().tokenize(data, &mut sink);
        sink
    }

    /// `data` split in `parts` on as many fresh scratches — an explicit
    /// part count, so the split runs on a one-core host too.
    fn split_in_parts(data: &[u8], parts: usize) -> Split {
        let mut owned: Vec<LzssScratch> = (0..parts).map(|_| LzssScratch::new()).collect();
        let mut scratches: Vec<&mut LzssScratch> = owned.iter_mut().collect();
        split_count(&mut scratches, data, parts)
    }

    /// Where the matches of `data`'s sequential parse end.
    #[derive(Default)]
    struct MatchEnds {
        pos: usize,
        ends: Vec<usize>,
    }

    impl TokenSink for MatchEnds {
        fn literals(&mut self, run: &[u8]) {
            self.pos += run.len();
        }

        fn matched(&mut self, _dist: usize, len: usize) {
            self.pos += len;
            self.ends.push(self.pos);
        }
    }

    /// One input of the split tests, drawn from `seed`: the paper's text,
    /// random bytes or fake JPEG, or a mix of the three with an echo of its
    /// start; cut so that the first seam of a `parts`-way split lands
    /// `nudge - 3` bytes from where a match of the sequential parse ends
    /// (random bytes have none and are cut anywhere).
    fn seam_input(seed: u64, parts: usize, nudge: usize) -> Vec<u8> {
        let mut rng = TestRng::deterministic("seam_input", seed);
        let len = 40_000 + rng.below(110_000) as usize;
        let mut data = match rng.below(4) {
            0 => generate(FileKind::Text, len, seed),
            1 => generate(FileKind::RandomBinary, len, seed),
            2 => generate(FileKind::FakeJpeg, len, seed),
            _ => {
                let mut data = generate(FileKind::RandomBinary, len / 4, seed);
                data.extend_from_slice(&generate(FileKind::Text, len / 4, seed));
                data.extend_from_slice(&generate(FileKind::FakeJpeg, len / 4, seed));
                data.extend_from_within(..len / 4);
                data
            }
        };
        let mut sink = MatchEnds::default();
        LzssScratch::new().tokenize(&data, &mut sink);
        // Seams past 1 000 bytes, and a cut that leaves the parse up to the
        // first seam as it was (its matches look at most MAX_MATCH ahead).
        let room = data.len() / parts - 3;
        let ends: Vec<usize> =
            sink.ends.into_iter().filter(|e| (1_000..room).contains(e)).collect();
        let seam = if ends.is_empty() {
            1_000 + rng.below((room - 1_000) as u64) as usize
        } else {
            ends[rng.below(ends.len() as u64) as usize]
        };
        data.truncate(parts * (seam + nudge - 3));
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The split count is the sequential count: where every seam's
        /// parses met, the spliced tokens and token bytes; whatever
        /// happened, what `upload_size` answers (which splits by itself
        /// on a host with several cores).
        #[test]
        fn split_count_equals_the_sequential_count(
            seed in any::<u64>(),
            parts in 2usize..=8,
            nudge in 0usize..7,
        ) {
            let data = seam_input(seed, parts, nudge);
            let sequential = sequential_count(&data);
            let split = split_in_parts(&data, parts);
            // Every seam met, or the first one that did not ended the splice.
            prop_assert!(split.meets.len() == parts - 1 || split.meets.last() == Some(&None));
            if let Some(count) = split.exact() {
                prop_assert_eq!(count, sequential);
            }
            let size = sequential.stream_len().min(data.len() as u64 + 1);
            prop_assert_eq!(LzssScratch::new().upload_size(&data), size);
            prop_assert_eq!(CompressionPolicy::Always.upload_size(&data), size);
        }
    }

    /// A run of one byte value across a seam: both greedy parses step
    /// through it by `MAX_MATCH`, so they meet only when the seam sits a
    /// multiple of `MAX_MATCH` past the run's first match; otherwise not
    /// within `SEAM_OVERLAP`, and the count falls back — still exact.
    #[test]
    fn a_seam_inside_a_constant_run_falls_back_unless_aligned() {
        let seam = 20_000;
        for (offset, aligned) in [(38 * MAX_MATCH, true), (38 * MAX_MATCH + 100, false)] {
            // The run's first byte is a literal; its matches start one later.
            let run_start = seam - offset - 1;
            let mut data = random_bytes(run_start, 1);
            data.resize(30_000, 7);
            data.extend_from_slice(&random_bytes(2 * seam - data.len(), 2));
            let split = split_in_parts(&data, 2);
            assert_eq!(split.meets, vec![aligned.then_some(0)], "offset {offset}");
            let mut owned = [LzssScratch::new(), LzssScratch::new()];
            let [a, b] = &mut owned;
            let count = count_in_parts(&mut [a, b], &data, 2);
            assert_eq!(count, sequential_count(&data), "offset {offset}");
        }
    }

    /// The paper's corpora (Fig. 5's three kinds at its sizes, the suite's
    /// text and binary files, Fig. 4's modified revisions) split 2–8 ways:
    /// every count exact, every seam met. Prints how far past the seam the
    /// parses met and how many seams fell back, so a tokenizer change that
    /// breaks the meeting shows in CI's log as fallbacks first.
    #[test]
    fn seams_meet_on_the_paper_corpora() {
        let sizes: &[usize] =
            if cfg!(debug_assertions) { &[100_000] } else { &[100_000, 500_000, 1_000_000] };
        let mut corpora = Vec::new();
        for &size in sizes {
            for kind in [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg] {
                corpora.push(generate(kind, size, size as u64));
            }
        }
        let base = generate(FileKind::RandomBinary, 200_000, 4);
        for mutation in [Mutation::Append { len: 100_000 }, Mutation::InsertRandom { len: 100_000 }]
        {
            corpora.push(mutation.apply(&base, 5));
        }
        let (mut meets, mut fallbacks) = (Vec::<usize>::new(), 0);
        for data in &corpora {
            let sequential = sequential_count(data);
            for parts in 2..=8 {
                let split = split_in_parts(data, parts);
                fallbacks += split.meets.iter().filter(|m| m.is_none()).count();
                meets.extend(split.meets.iter().flatten());
                if let Some(count) = split.exact() {
                    assert_eq!(count, sequential, "{} bytes in {parts}", data.len());
                }
            }
        }
        meets.sort_unstable();
        let quantile = |q: usize| meets[(meets.len() - 1) * q / 100];
        println!(
            "seams met: {} (distance past the seam min {} / median {} / p90 {} / max {} bytes); \
             fallbacks: {fallbacks}",
            meets.len(),
            quantile(0),
            quantile(50),
            quantile(90),
            quantile(100),
        );
        assert_eq!(fallbacks, 0);
    }

    /// `|R|` of `data` (see "Why a settled count is exact"), counted
    /// exactly: the positions whose 4 bytes' closest earlier occurrence is
    /// at most `WINDOW` back.
    fn exact_repeats(data: &[u8]) -> usize {
        let mut last = HashMap::new();
        let mut repeats = 0;
        for (j, prefix) in data.windows(MIN_MATCH).enumerate() {
            repeats += usize::from(last.insert(prefix, j).is_some_and(|p| j - p <= WINDOW));
        }
        repeats
    }

    /// The repeat pass's budget for `len` bytes: the most `|R′|` it settles.
    fn budget(len: usize) -> usize {
        (len + 32) / 11
    }

    /// Random bytes with 4–6-byte repeats planted at distances
    /// 1..=`WINDOW` (copied forward, so a short distance repeats itself)
    /// until `|R|` reaches `budget − 1`, `budget` or `budget + 1`, as
    /// `offset` is 0, 1 or 2, where the input has room. Most inputs are
    /// short enough that the pass's hash collisions may leave `R′ = R`, so
    /// the budget's edge is tried.
    fn planted_input(seed: u64, offset: usize) -> Vec<u8> {
        let mut rng = TestRng::deterministic("planted_input", seed);
        let len = match rng.below(8) {
            0..=6 => 16 + rng.below(120) as usize,
            _ => 16 + rng.below(3 * WINDOW as u64) as usize,
        };
        let mut data = random_bytes(len, seed);
        // A plant of `n` bytes adds `n − 3` positions to `R`. The plants
        // go left to right: each reads only bytes before it and writes
        // past every earlier one, so none undoes another.
        let mut missing = (budget(len) + offset - 1).saturating_sub(exact_repeats(&data));
        // Up to 4, 5 or 6 bytes each: 4-byte repeats pack `R` the densest.
        let longest = rng.below(3);
        let mut plants = Vec::new();
        while missing > 0 {
            let n = 4 + rng.below(longest + 1).min(missing as u64 - 1) as usize;
            plants.push(n);
            missing -= n - 3;
        }
        let spare = (len - 1).saturating_sub(plants.iter().sum());
        let mut gaps: Vec<usize> =
            plants.iter().map(|_| rng.below(spare as u64 + 1) as usize).collect();
        gaps.sort_unstable();
        let (mut at, mut skipped) = (1, 0);
        for (n, gap) in plants.into_iter().zip(gaps) {
            at += gap - skipped;
            skipped = gap;
            if at + n > len {
                break;
            }
            // Neither neighbouring byte extends the repeat: the one before
            // differs from its source's where a few draws find a distance
            // for that, the one after is changed if it does not.
            let draw = |rng: &mut TestRng| 1 + rng.below(at.min(WINDOW) as u64) as usize;
            let dist = (0..8)
                .map(|_| draw(&mut rng))
                .find(|&d| d == at || data[at - 1] != data[at - 1 - d])
                .unwrap_or_else(|| draw(&mut rng));
            for k in at..at + n {
                data[k] = data[k - dist];
            }
            at += n;
            if at < len && data[at] == data[at - dist] {
                data[at] ^= 1;
            }
        }
        data
    }

    /// One input of the certificate's tests, drawn from `seed`: random
    /// bytes, paper text, a fake JPEG, an echo mix, 0–3 bytes, or planted
    /// repeats at the budget's edge.
    fn certificate_input(seed: u64) -> Vec<u8> {
        let mut rng = TestRng::deterministic("certificate_input", seed);
        let len = match rng.below(3) {
            0 => rng.below(300) as usize,
            1 => rng.below(5_000) as usize,
            _ => rng.below(100_000) as usize,
        };
        match rng.below(7) {
            0 => generate(FileKind::RandomBinary, len, seed),
            1 => generate(FileKind::Text, len, seed),
            2 => generate(FileKind::FakeJpeg, len, seed),
            3 => {
                // Random bytes, some text, then an echo of what lies up to
                // `WINDOW` back.
                let mut data = generate(FileKind::RandomBinary, len, seed);
                data.extend_from_slice(&generate(FileKind::Text, rng.below(2_000) as usize, seed));
                let dist = 1 + rng.below(data.len().clamp(1, WINDOW) as u64) as usize;
                for _ in 0..rng.below(len as u64 / 2 + 1) {
                    data.push(data[data.len() - dist]);
                }
                data
            }
            4 => random_bytes(rng.below(4) as usize, seed),
            _ => planted_input(seed, rng.below(3) as usize),
        }
    }

    /// Holds the pass to its proof on `data`: a settled input is one the
    /// coder stores (`len + 1`), and an input with `|R|` over the budget is
    /// never settled (the pass's `R′` includes `R`). Returns whether it
    /// settled.
    fn check_certificate(data: &[u8]) -> Result<bool, TestCaseError> {
        if !LzssScratch::new().count(data).settled {
            return Ok(false);
        }
        let wire = compress(data).len();
        prop_assert!(
            wire == data.len() + 1,
            "settled, but coded to {wire} of {} bytes",
            data.len()
        );
        prop_assert!(exact_repeats(data) <= budget(data.len()), "settled over the budget");
        Ok(true)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whenever the repeat pass settles an input, the coder would have
        /// stored it: the settled count is the parsed one.
        #[test]
        fn certificate_never_settles_a_shrinkable_input(seed in any::<u64>()) {
            check_certificate(&certificate_input(seed))?;
        }
    }

    /// Planted repeats at `|R|` = budget − 1, budget and budget + 1: every
    /// settled input is exact, none over the budget settles, and some
    /// settle at all, so the edge is really tried. Prints how many.
    #[test]
    fn certificate_is_exact_at_its_budget() {
        let cases = if cfg!(debug_assertions) { 300 } else { 2_000 };
        let (mut settled, mut at_budget) = (0, 0);
        for seed in 0..cases {
            let data = planted_input(seed, seed as usize % 3);
            at_budget += usize::from(exact_repeats(&data) == budget(data.len()));
            settled += usize::from(check_certificate(&data).unwrap_or_else(|e| panic!("{e}")));
        }
        println!(
            "planted repeats: {settled} of {cases} inputs settled, all exact; \
             {at_budget} had |R| exactly at the budget"
        );
        assert!(settled > 0 && at_budget > 0, "{settled} settled, {at_budget} at the budget");
    }

    /// The pass settles random bytes — 24 KiB, inside one block, and 1 MB
    /// across 30 block changes — and gives up on repeats from the block
    /// before, paper text and fake JPEGs, so a change that turns the
    /// shortcut off, or loses a block's bits too early, fails here. Over the
    /// paper's corpora (Fig. 5's three kinds at its sizes, Fig. 4's
    /// modified revisions) prints the bytes settled and parsed.
    #[test]
    fn certificate_settles_exactly_the_random_corpora() {
        let mut scratch = LzssScratch::new();
        for len in [24 * 1024, 1_000_000] {
            assert!(scratch.count(&random_bytes(len, 11)).settled, "{len} random bytes");
        }
        // Repeats exactly `WINDOW` back, each from the block before its
        // own: seen, so parsed.
        let mut echoed = random_bytes(2 * WINDOW, 12);
        echoed.extend_from_within(WINDOW..);
        assert!(!scratch.count(&echoed).settled);
        let sizes: &[usize] =
            if cfg!(debug_assertions) { &[100_000] } else { &[100_000, 500_000, 1_000_000] };
        let mut corpora = Vec::new();
        for &size in sizes {
            for kind in [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg] {
                corpora.push((kind == FileKind::RandomBinary, generate(kind, size, size as u64)));
            }
        }
        let base = generate(FileKind::RandomBinary, 200_000, 4);
        for mutation in [Mutation::Append { len: 100_000 }, Mutation::InsertRandom { len: 100_000 }]
        {
            corpora.push((true, mutation.apply(&base, 5)));
        }
        let (mut settled, mut parsed) = (0, 0);
        for (random, data) in &corpora {
            let count = scratch.count(data);
            assert_eq!(count.settled, *random, "{} bytes", data.len());
            assert_eq!(count.size, sequential_count(data).stream_len().min(data.len() as u64 + 1));
            *if count.settled { &mut settled } else { &mut parsed } += data.len();
        }
        println!("paper corpora: {settled} bytes settled without a parse, {parsed} parsed");
    }
}
