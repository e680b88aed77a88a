//! Resumable transfer sessions: the bookkeeping half of fault recovery.
//!
//! When a seeded link outage kills a transfer (a typed
//! [`TransferInterrupted`] from the TCP layer), the session objects here
//! persist how far the transfer *durably* got, so the next attempt
//! re-drives only the uncommitted tail:
//!
//! * [`RangedTransfer`] tracks one byte stream — a file's ranged download
//!   or one chunk's upload: the last durable byte, the resume boundaries,
//!   and what recovery cost ([`FaultStats`] — retries, wasted wire bytes,
//!   salvaged bytes, virtual backoff time, which the fleet aggregates into
//!   the `faults.*` gate metrics). Once a download's last range lands, its
//!   reassembled content is verified against the manifest's chunk hashes in
//!   one SHA-256 pass ([`RangedTransfer::verify`]);
//! * [`UploadSession`] walks a planned batch of chunks over one such stream
//!   at a time — bytes the server acknowledged before a cut are never
//!   uploaded again — and counts what committed and what was abandoned.

use cloudsim_net::TransferInterrupted;
use cloudsim_storage::hash::Sha256;
use cloudsim_storage::RestoredChunk;
use cloudsim_trace::SimDuration;
use serde::Serialize;

/// Fault-recovery accounting for one session (or one client, or one fleet —
/// stats merge additively).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FaultStats {
    /// Transfer attempts a link outage cut mid-flight (immediate failures
    /// on an already-down link included).
    pub interruptions: u64,
    /// Retries the policy granted (each spent a virtual-clock backoff).
    pub retries: u64,
    /// Operations abandoned after the retry budget ran out.
    pub abandoned: u64,
    /// Wire bytes that bought no durable progress: in-flight bytes lost to
    /// a cut, plus partial progress thrown away by an abandonment.
    pub wasted_bytes: u64,
    /// Bytes an interruption had already committed (acked or verified) that
    /// resume kept off the wire — the payoff of sessions over restarts.
    pub salvaged_bytes: u64,
    /// Virtual-clock time spent waiting in retry backoffs.
    pub backoff_wait: SimDuration,
    /// Restored files whose reassembled content matched the manifest's
    /// chunk hashes.
    pub checksums_verified: u64,
    /// Restored files whose reassembled content did not.
    pub checksum_failures: u64,
}

impl FaultStats {
    /// Adds `other` into `self` (stats are additive across sessions).
    pub fn merge(&mut self, other: &FaultStats) {
        self.interruptions += other.interruptions;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
        self.wasted_bytes += other.wasted_bytes;
        self.salvaged_bytes += other.salvaged_bytes;
        self.backoff_wait += other.backoff_wait;
        self.checksums_verified += other.checksums_verified;
        self.checksum_failures += other.checksum_failures;
    }

    /// Fraction of interruption-touched bytes that resume salvaged instead
    /// of re-driving, in `[0, 1]`. 0.0 when no interruption ever happened —
    /// never NaN.
    pub fn resume_efficiency(&self) -> f64 {
        let touched = self.salvaged_bytes + self.wasted_bytes;
        if touched > 0 {
            self.salvaged_bytes as f64 / touched as f64
        } else {
            0.0
        }
    }

    /// True when nothing ever went wrong (the fault-free control's shape).
    pub fn is_clean(&self) -> bool {
        self.interruptions == 0 && self.abandoned == 0 && self.checksum_failures == 0
    }
}

/// Resumable upload state for one planned batch: which chunks are durably
/// committed, which were abandoned, and the stream of the chunk in flight
/// (how far into it the server acknowledged, what recovery cost so far). The
/// driving loop (the sync client) owns the connection; this object owns the
/// offsets.
#[derive(Debug, Clone)]
pub struct UploadSession {
    chunks: Vec<u64>,
    next: usize,
    /// The current chunk's stream; its stats run on across chunks.
    stream: RangedTransfer,
    committed_payload: u64,
    abandoned_chunks: usize,
}

impl UploadSession {
    /// A session over the planned chunk upload sizes (zero-byte chunks —
    /// deduplicated ones — are skipped up front: nothing to transfer).
    pub fn new(chunks: Vec<u64>) -> UploadSession {
        let chunks: Vec<u64> = chunks.into_iter().filter(|b| *b > 0).collect();
        UploadSession {
            stream: RangedTransfer::new(chunks.first().copied().unwrap_or(0)),
            chunks,
            next: 0,
            committed_payload: 0,
            abandoned_chunks: 0,
        }
    }

    /// The next transfer to drive: `(chunk index, uncommitted tail bytes)`,
    /// or `None` when every chunk is committed or abandoned.
    pub fn remaining(&self) -> Option<(usize, u64)> {
        self.chunks.get(self.next).map(|_| (self.next, self.stream.remaining()))
    }

    /// The current chunk's stream, for the driving loop to record
    /// interruptions and retries on and to finish one way or the other.
    pub fn stream_mut(&mut self) -> &mut RangedTransfer {
        &mut self.stream
    }

    /// Settles the current chunk and moves to the next: a chunk whose
    /// stream completed is durable as a whole, one whose stream was
    /// abandoned is lost as a whole.
    pub fn advance(&mut self) {
        let size = self.chunks[self.next];
        if self.stream.is_complete() {
            self.committed_payload += size;
        } else {
            self.abandoned_chunks += 1;
        }
        self.next += 1;
        self.stream.total = self.chunks.get(self.next).copied().unwrap_or(0);
        self.stream.verified = 0;
        self.stream.segments.clear();
    }

    /// Payload bytes durably committed so far (whole chunks only).
    pub fn committed_payload(&self) -> u64 {
        self.committed_payload
    }

    /// Chunks given up on after the retry budget ran out.
    pub fn abandoned_chunks(&self) -> usize {
        self.abandoned_chunks
    }

    /// True when every chunk committed (nothing abandoned, nothing left).
    pub fn is_complete(&self) -> bool {
        self.next >= self.chunks.len() && self.abandoned_chunks == 0
    }

    /// The session's recovery accounting.
    pub fn stats(&self) -> FaultStats {
        self.stream.stats()
    }
}

/// Resumable state of one byte stream — a file's ranged download or one
/// chunk's upload: the last durable byte (verified on the way down,
/// acknowledged on the way up), the resume boundaries, what recovery cost,
/// and the check of a completed download's reassembled content against the
/// manifest's chunk hashes.
#[derive(Debug, Clone)]
pub struct RangedTransfer {
    total: u64,
    verified: u64,
    pending_salvage: u64,
    segments: Vec<u64>,
    stats: FaultStats,
}

impl RangedTransfer {
    /// A ranged transfer of `total` encoded-stream bytes.
    pub fn new(total: u64) -> RangedTransfer {
        RangedTransfer {
            total,
            verified: 0,
            pending_salvage: 0,
            segments: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Bytes still to move — the range the next attempt requests.
    pub fn remaining(&self) -> u64 {
        self.total - self.verified
    }

    /// The last durable byte offset (the next range request's start).
    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Records a cut mid-stream: bytes the peer acknowledged (or the client
    /// received) advance the durable offset — the resume point; bytes in
    /// flight (and the re-sent range request) are wasted.
    pub fn interrupted(&mut self, int: &TransferInterrupted) {
        self.stats.interruptions += 1;
        self.stats.wasted_bytes += int.bytes_sent.saturating_sub(int.bytes_acked);
        if int.bytes_acked > 0 {
            self.segments.push(int.bytes_acked);
            self.verified += int.bytes_acked;
            self.pending_salvage += int.bytes_acked;
        }
    }

    /// Records a granted retry and its virtual backoff.
    pub fn retried(&mut self, wait: SimDuration) {
        self.stats.retries += 1;
        self.stats.backoff_wait += wait;
    }

    /// The final range landed: the stream is complete, and the ranges that
    /// survived interruptions count as salvaged.
    pub fn complete(&mut self) {
        let tail = self.remaining();
        if tail > 0 {
            self.segments.push(tail);
        }
        self.verified = self.total;
        self.stats.salvaged_bytes += self.pending_salvage;
        self.pending_salvage = 0;
    }

    /// The retry budget ran out: everything moved so far — durable or not —
    /// is wasted wire; the stream cannot be reassembled.
    pub fn abandon(&mut self) {
        self.stats.abandoned += 1;
        self.stats.wasted_bytes += self.verified;
        self.pending_salvage = 0;
    }

    /// True once the whole stream moved.
    pub fn is_complete(&self) -> bool {
        self.verified >= self.total
    }

    /// End-to-end validation of a download, in one SHA-256 pass: `content`
    /// is fed to the hasher piece by piece along the recorded resume
    /// boundaries (each stream range maps onto its span of the plaintext),
    /// and at every chunk boundary the running digest is finalised and
    /// compared with that chunk's hash from the manifest (`chunks`, in file
    /// order). Content that differs from what the owner committed in any
    /// byte, chunk hashes out of order, or chunk lengths that do not add up
    /// to `content.len()` all fail. Records the one verdict per file in the
    /// stats and returns it. Must only be called on a complete stream.
    pub fn verify(&mut self, content: &[u8], chunks: &[RestoredChunk]) -> bool {
        assert!(self.is_complete(), "verify requires a complete stream");
        let ok = self.matches_manifest(content, chunks);
        if ok {
            self.stats.checksums_verified += 1;
        } else {
            self.stats.checksum_failures += 1;
        }
        ok
    }

    /// The pass behind [`RangedTransfer::verify`].
    fn matches_manifest(&self, content: &[u8], chunks: &[RestoredChunk]) -> bool {
        let plain = chunks.iter().try_fold(0u64, |sum, c| sum.checked_add(c.plain_len));
        if plain != Some(content.len() as u64) {
            return false;
        }
        // Map the stream's resume boundaries onto the plaintext
        // proportionally (the encoded stream may be smaller than the
        // plaintext when chunks deduplicated or delta-encoded away; a
        // zero-byte stream has no boundary at all).
        let mut cuts = self
            .segments
            .iter()
            .scan(0u64, |covered, seg| {
                *covered += seg;
                Some(if *covered >= self.total {
                    content.len()
                } else {
                    (*covered as u128 * content.len() as u128 / self.total as u128) as usize
                })
            })
            .peekable();
        let mut offset = 0usize;
        for chunk in chunks {
            let end = offset + chunk.plain_len as usize;
            let mut hasher = Sha256::new();
            while let Some(cut) = cuts.next_if(|cut| *cut < end) {
                if cut > offset {
                    hasher.update(&content[offset..cut]);
                    offset = cut;
                }
            }
            hasher.update(&content[offset..end]);
            offset = end;
            if hasher.finalize() != chunk.hash {
                return false;
            }
        }
        true
    }

    /// The stream's recovery accounting.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_storage::hash::sha256;
    use cloudsim_storage::RestoreSource;
    use cloudsim_trace::SimTime;

    /// The manifest's view of `content` cut into chunks of `lens` bytes.
    fn manifest(content: &[u8], lens: &[usize]) -> Vec<RestoredChunk> {
        let mut offset = 0;
        lens.iter()
            .map(|&len| {
                let bytes = &content[offset..offset + len];
                offset += len;
                RestoredChunk {
                    hash: sha256(bytes),
                    plain_len: len as u64,
                    download_bytes: len as u64,
                    source: RestoreSource::Download,
                }
            })
            .collect()
    }

    /// A completed stream of `total` bytes that was cut after each of
    /// `acked` (byte counts per interrupted attempt).
    fn completed(total: u64, acked: &[u64]) -> RangedTransfer {
        let mut r = RangedTransfer::new(total);
        for &bytes in acked {
            r.interrupted(&cut(bytes, bytes));
        }
        r.complete();
        r
    }

    fn cut(acked: u64, sent: u64) -> TransferInterrupted {
        TransferInterrupted {
            bytes_acked: acked,
            bytes_sent: sent,
            elapsed: SimDuration::from_secs(1),
            interrupted_at: SimTime::from_secs(1),
        }
    }

    #[test]
    fn upload_session_resumes_from_the_committed_offset() {
        let mut s = UploadSession::new(vec![1000, 0, 2000]);
        assert_eq!(s.remaining(), Some((0, 1000)), "zero-byte chunks are skipped");
        s.stream_mut().interrupted(&cut(300, 450));
        assert_eq!(s.remaining(), Some((0, 700)), "only the unacked tail is re-driven");
        assert_eq!(s.stream.verified(), 300);
        s.stream_mut().retried(SimDuration::from_secs(2));
        s.stream_mut().complete();
        s.advance();
        assert_eq!(s.remaining(), Some((1, 2000)));
        s.stream_mut().complete();
        s.advance();
        assert!(s.is_complete());
        assert_eq!(s.committed_payload(), 3000);
        let stats = s.stats();
        assert_eq!(stats.interruptions, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.wasted_bytes, 150, "in-flight bytes at the cut");
        assert_eq!(stats.salvaged_bytes, 300, "acked bytes never travelled twice");
        assert_eq!(stats.backoff_wait, SimDuration::from_secs(2));
        assert!(stats.resume_efficiency() > 0.6);
    }

    #[test]
    fn abandoning_a_chunk_wastes_its_partial_progress() {
        let mut s = UploadSession::new(vec![1000, 500]);
        s.stream_mut().interrupted(&cut(400, 600));
        s.stream_mut().abandon();
        s.advance();
        assert!(!s.is_complete());
        assert_eq!(s.abandoned_chunks(), 1);
        assert_eq!(s.committed_payload(), 0, "the abandoned chunk commits nothing");
        assert_eq!(s.remaining(), Some((1, 500)));
        assert_eq!(s.stream.verified(), 0, "the next chunk starts from its first byte");
        s.stream_mut().complete();
        s.advance();
        assert_eq!(s.remaining(), None);
        assert!(!s.is_complete(), "an abandoned chunk means the batch never completed");
        let stats = s.stats();
        // 200 in flight at the cut + 400 acked-then-thrown-away.
        assert_eq!(stats.wasted_bytes, 600);
        assert_eq!(stats.salvaged_bytes, 0);
        assert_eq!(stats.abandoned, 1);
    }

    #[test]
    fn ranged_restore_tracks_verified_bytes_and_validates_reassembly() {
        let content: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut r = RangedTransfer::new(content.len() as u64);
        r.interrupted(&cut(4_000, 5_500));
        assert_eq!(r.verified(), 4_000);
        assert_eq!(r.remaining(), 6_000);
        r.retried(SimDuration::from_secs(1));
        r.complete();
        assert!(r.is_complete());
        assert!(
            r.verify(&content, &manifest(&content, &[2_500, 7_500])),
            "reassembled content must match the manifest"
        );
        let stats = r.stats();
        assert_eq!(stats.checksums_verified, 1);
        assert_eq!(stats.checksum_failures, 0);
        assert_eq!(stats.wasted_bytes, 1_500);
        assert_eq!(stats.salvaged_bytes, 4_000);
    }

    #[test]
    fn an_abandoned_restore_wastes_everything_it_downloaded() {
        let mut r = RangedTransfer::new(8_000);
        r.interrupted(&cut(3_000, 3_500));
        r.abandon();
        assert!(!r.is_complete());
        let stats = r.stats();
        assert_eq!(stats.abandoned, 1);
        // 500 in flight + 3000 verified-but-useless.
        assert_eq!(stats.wasted_bytes, 3_500);
        assert_eq!(stats.resume_efficiency(), 0.0);
    }

    #[test]
    fn stats_merge_additively_and_fault_free_runs_stay_clean() {
        let mut a = FaultStats::default();
        assert!(a.is_clean());
        assert_eq!(a.resume_efficiency(), 0.0);
        let b = FaultStats {
            interruptions: 2,
            retries: 1,
            wasted_bytes: 100,
            salvaged_bytes: 300,
            backoff_wait: SimDuration::from_secs(3),
            ..FaultStats::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.interruptions, 4);
        assert_eq!(a.wasted_bytes, 200);
        assert_eq!(a.salvaged_bytes, 600);
        assert_eq!(a.backoff_wait, SimDuration::from_secs(6));
        assert!(!a.is_clean());
        assert_eq!(a.resume_efficiency(), 0.75);
    }

    #[test]
    fn verification_runs_on_single_shot_and_empty_streams_too() {
        let content = b"personal cloud storage".to_vec();
        let chunks = manifest(&content, &[content.len()]);
        let mut whole = RangedTransfer::new(content.len() as u64);
        whole.complete();
        assert!(whole.verify(&content, &chunks));
        // A fully deduplicated file moves zero stream bytes; its content
        // still validates.
        let mut empty = RangedTransfer::new(0);
        assert!(empty.is_complete());
        empty.complete();
        assert!(empty.verify(&content, &chunks));
        // An empty file has nothing to hash and nothing to get wrong.
        assert!(empty.verify(&[], &[]));
        assert_eq!(empty.stats().checksums_verified, 2);
    }

    #[test]
    fn the_verdict_does_not_depend_on_where_the_cuts_fell() {
        let content: Vec<u8> = (0..3_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let chunks = manifest(&content, &[1_000, 0, 1_500, 500]);
        let mut corrupted = content.clone();
        corrupted[1_200] ^= 1;
        for acked in [
            &[][..],             // never interrupted
            &[400],              // inside the first chunk
            &[1_000],            // exactly on a chunk boundary
            &[1_000, 1_500],     // on two boundaries
            &[1_100, 200, 300],  // several inside one chunk
            &[1, 998, 1, 1_999], // hugging both sides of a boundary
        ] {
            assert!(completed(3_000, acked).verify(&content, &chunks), "{acked:?}");
            assert!(!completed(3_000, acked).verify(&corrupted, &chunks), "{acked:?}");
        }
        // A stream shorter than the plaintext (chunks deduplicated away)
        // maps its boundaries proportionally.
        assert!(completed(700, &[100, 333]).verify(&content, &chunks));
        assert!(!completed(700, &[100, 333]).verify(&corrupted, &chunks));
    }

    #[test]
    fn any_flipped_byte_or_swapped_hash_fails_exactly_once() {
        let content: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        let chunks = manifest(&content, &[250, 100, 250]);
        for i in 0..content.len() {
            let mut flipped = content.clone();
            flipped[i] ^= 0x20;
            let mut r = completed(600, &[180, 170]);
            assert!(!r.verify(&flipped, &chunks), "byte {i}");
            let stats = r.stats();
            assert_eq!((stats.checksum_failures, stats.checksums_verified), (1, 0), "byte {i}");
            assert!(!stats.is_clean());
        }
        // The same bytes under a manifest whose hashes are out of order.
        let mut swapped = chunks.clone();
        let (first, last) = (swapped[0].hash, swapped[2].hash);
        swapped[0].hash = last;
        swapped[2].hash = first;
        let mut r = completed(600, &[180, 170]);
        assert!(!r.verify(&content, &swapped));
        assert_eq!(r.stats().checksum_failures, 1);
        // And the intact pair still passes, once.
        assert!(r.verify(&content, &chunks));
        assert_eq!((r.stats().checksum_failures, r.stats().checksums_verified), (1, 1));
    }

    #[test]
    fn chunk_lengths_that_do_not_add_up_are_a_failed_checksum() {
        let bytes = vec![7u8; 501];
        let content = &bytes[..500];
        let mut r = completed(500, &[]);
        // Too short, one byte too long, no chunks at all.
        for lens in [&[200, 200][..], &[500, 1], &[]] {
            assert!(!r.verify(content, &manifest(&bytes, lens)), "{lens:?}");
        }
        // Lengths whose sum would overflow are no different: no panic.
        let mut huge = manifest(&bytes, &[250, 250]);
        huge[1].plain_len = u64::MAX;
        assert!(!r.verify(content, &huge));
        assert_eq!((r.stats().checksum_failures, r.stats().checksums_verified), (4, 0));
    }
}
