//! File chunking.
//!
//! §4.1 of the paper finds that Dropbox splits files into 4 MB chunks, Google
//! Drive into 8 MB chunks, SkyDrive and Wuala use variable chunk sizes, and
//! Cloud Drive does not chunk at all. Chunking "simplifies upload recovery in
//! case of failures" and interacts with deduplication and delta encoding
//! (Fig. 4 right: a 10 MB Wuala file is split into 3 chunks and only the two
//! modified chunks are re-uploaded).
//!
//! Two chunkers are provided: a fixed-size splitter and a content-defined
//! splitter based on a Gear-style rolling hash, which yields variable chunk
//! sizes whose boundaries survive insertions (the behaviour observed for
//! SkyDrive and Wuala).

use crate::hash::{sha256, ContentHash};
use serde::Serialize;

/// How a service splits file content before upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChunkingStrategy {
    /// Files are uploaded as single objects (Cloud Drive).
    None,
    /// Fixed-size chunks of the given size in bytes (Dropbox: 4 MiB, Google
    /// Drive: 8 MiB).
    Fixed {
        /// Chunk size in bytes.
        size: u64,
    },
    /// Content-defined chunking with the given minimum, average (target) and
    /// maximum chunk sizes (SkyDrive, Wuala).
    ContentDefined {
        /// Smallest chunk the splitter will emit.
        min: u64,
        /// Target average chunk size (must be a power of two).
        avg: u64,
        /// Largest chunk the splitter will emit.
        max: u64,
    },
}

impl ChunkingStrategy {
    /// Dropbox's fixed 4 MiB chunks.
    pub const DROPBOX: ChunkingStrategy = ChunkingStrategy::Fixed { size: 4 * 1024 * 1024 };
    /// Google Drive's fixed 8 MiB chunks.
    pub const GOOGLE_DRIVE: ChunkingStrategy = ChunkingStrategy::Fixed { size: 8 * 1024 * 1024 };
    /// A variable-size splitter averaging ~2 MiB (SkyDrive/Wuala-like).
    pub const VARIABLE: ChunkingStrategy = ChunkingStrategy::ContentDefined {
        min: 1024 * 1024,
        avg: 2 * 1024 * 1024,
        max: 4 * 1024 * 1024,
    };

    /// A human-readable description matching Table 1 of the paper
    /// ("4 MB", "8 MB", "var.", "no").
    pub fn describe(&self) -> String {
        match self {
            ChunkingStrategy::None => "no".to_string(),
            ChunkingStrategy::Fixed { size } => format!("{} MB", size / (1024 * 1024)),
            ChunkingStrategy::ContentDefined { .. } => "var.".to_string(),
        }
    }

    /// Splits `data` into chunks according to the strategy.
    pub fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        self.spans(data)
            .into_iter()
            .map(|span| Chunk::from_slice(span.offset, &data[span.range()]))
            .collect()
    }

    /// Computes chunk boundaries only, without hashing the content — the
    /// cheap sequential part of chunking. The upload pipeline fans the
    /// per-span hashing and coding out across worker threads.
    pub fn spans(&self, data: &[u8]) -> Vec<ChunkSpan> {
        match *self {
            ChunkingStrategy::None => {
                if data.is_empty() {
                    Vec::new()
                } else {
                    vec![ChunkSpan { offset: 0, len: data.len() as u64 }]
                }
            }
            ChunkingStrategy::Fixed { size } => {
                assert!(size > 0, "chunk size must be positive");
                let mut spans = Vec::with_capacity(data.len() / size as usize + 1);
                let mut offset = 0u64;
                while (offset as usize) < data.len() {
                    let len = size.min(data.len() as u64 - offset);
                    spans.push(ChunkSpan { offset, len });
                    offset += len;
                }
                spans
            }
            ChunkingStrategy::ContentDefined { min, avg, max } => {
                content_defined_spans(data, min as usize, avg as usize, max as usize)
            }
        }
    }
}

/// A chunk boundary: offset and length, before the content is hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChunkSpan {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

impl ChunkSpan {
    /// The byte range of the span.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// One chunk of a file: its position, length and content hash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Chunk {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
    /// SHA-256 of the chunk content.
    pub hash: ContentHash,
}

impl Chunk {
    /// Builds a chunk record from a slice of file content.
    pub fn from_slice(offset: u64, data: &[u8]) -> Chunk {
        Chunk { offset, len: data.len() as u64, hash: sha256(data) }
    }

    /// The exclusive end offset of the chunk.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Gear-table rolling hash for content-defined chunking. The table is a fixed
/// pseudo-random permutation derived from a splitmix64 stream so the chunker
/// is fully deterministic across runs. It is built once at compile time —
/// the original implementation recomputed all 256 entries on every chunking
/// call, a fixed cost the pipeline pays millions of times.
static GEAR_TABLE: [u64; 256] = build_gear_table();

const fn build_gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut i = 0usize;
    while i < 256 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

fn content_defined_spans(data: &[u8], min: usize, avg: usize, max: usize) -> Vec<ChunkSpan> {
    assert!(min > 0 && min <= avg && avg <= max, "invalid chunking parameters");
    assert!(avg.is_power_of_two(), "average chunk size must be a power of two");
    if data.is_empty() {
        return Vec::new();
    }
    // A boundary is declared when log2(avg) selected bits of the rolling hash
    // are all zero, which happens with probability 1/avg per position and thus
    // yields an expected chunk length of `avg`. Bits 16.. are used because the
    // gear hash mixes the most recent ~48 bytes into them.
    let bits = avg.trailing_zeros();
    let mask: u64 = ((1u64 << bits) - 1) << 16;

    // `hash << 1` forgets a byte after 64 steps, and no boundary is declared
    // before `min` bytes: rolling over the 64 bytes (fewer when `min` is
    // smaller) that end at a chunk's first candidate position gives the hash
    // rolling from the chunk's start would.
    let warm_up = min.min(64);

    let mut spans = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let rest = &data[start..];
        // The chunk ends at `max`, at the end of the data, or at the first
        // boundary in between; with `min` bytes or fewer there is no in
        // between, and nothing to scan.
        let limit = rest.len().min(max);
        let mut len = limit;
        if limit > min {
            let mut hash: u64 = 0;
            for &byte in &rest[min - warm_up..min - 1] {
                hash = (hash << 1).wrapping_add(GEAR_TABLE[byte as usize]);
            }
            for (extra, &byte) in rest[min - 1..limit].iter().enumerate() {
                hash = (hash << 1).wrapping_add(GEAR_TABLE[byte as usize]);
                if hash & mask == 0 {
                    len = min + extra;
                    break;
                }
            }
        }
        spans.push(ChunkSpan { offset: start as u64, len: len as u64 });
        start += len;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The splitter as it stood before the min-skip: the hash rolled over
    /// every byte of every chunk. Frozen as the reference of the
    /// differential test.
    fn reference_spans(data: &[u8], min: usize, avg: usize, max: usize) -> Vec<ChunkSpan> {
        let mask: u64 = ((1u64 << avg.trailing_zeros()) - 1) << 16;
        let mut spans = Vec::new();
        let mut start = 0usize;
        let mut hash: u64 = 0;
        let mut i = 0usize;
        while i < data.len() {
            hash = (hash << 1).wrapping_add(GEAR_TABLE[data[i] as usize]);
            let length = i - start + 1;
            let at_boundary = length >= min && (hash & mask) == 0;
            if at_boundary || length >= max || i == data.len() - 1 {
                spans.push(ChunkSpan { offset: start as u64, len: length as u64 });
                start = i + 1;
                hash = 0;
            }
            i += 1;
        }
        spans
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random and three-symbol content, `min` below, at and above the 64
        /// bytes the hash remembers, `min == avg == max`, and every length
        /// around `min` and `max`.
        #[test]
        fn min_skip_gives_the_spans_of_the_full_scan(
            random in collection::vec(any::<u8>(), 0..6000),
            three_symbols in any::<bool>(),
        ) {
            let data: Vec<u8> =
                if three_symbols { random.iter().map(|byte| byte % 3).collect() } else { random };
            for (min, avg, max) in [
                (1, 16, 64),
                (16, 16, 16),
                (10, 64, 300),
                (63, 64, 256),
                (64, 64, 64),
                (64, 128, 1000),
                (65, 128, 129),
                (100, 256, 4000),
                (200, 256, 256),
                (1000, 1024, 5000),
            ] {
                let around = [min - 1, min, min + 1, max - 1, max, max + 1, min + max];
                for len in around.into_iter().chain([data.len()]).filter(|&len| len <= data.len()) {
                    prop_assert!(
                        content_defined_spans(&data[..len], min, avg, max)
                            == reference_spans(&data[..len], min, avg, max),
                        "min {min} avg {avg} max {max} len {len}"
                    );
                }
            }
        }
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
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

    #[test]
    fn no_chunking_returns_a_single_object() {
        let data = pseudo_random(100_000, 1);
        let chunks = ChunkingStrategy::None.chunk(&data);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].offset, 0);
        assert_eq!(chunks[0].len, 100_000);
        assert!(ChunkingStrategy::None.chunk(&[]).is_empty());
    }

    #[test]
    fn fixed_chunking_matches_paper_sizes() {
        let data = pseudo_random(10 * 1024 * 1024, 2);
        let dropbox = ChunkingStrategy::DROPBOX.chunk(&data);
        assert_eq!(dropbox.len(), 3); // 4 + 4 + 2 MB
        assert_eq!(dropbox[0].len, 4 * 1024 * 1024);
        assert_eq!(dropbox[2].len, 2 * 1024 * 1024);
        let gdrive = ChunkingStrategy::GOOGLE_DRIVE.chunk(&data);
        assert_eq!(gdrive.len(), 2); // 8 + 2 MB
                                     // Offsets tile the file exactly.
        assert_eq!(dropbox.iter().map(|c| c.len).sum::<u64>(), data.len() as u64);
        assert_eq!(dropbox[1].offset, dropbox[0].end());
    }

    #[test]
    fn fixed_chunks_of_same_content_share_hashes() {
        let data = pseudo_random(8 * 1024 * 1024, 3);
        let a = ChunkingStrategy::DROPBOX.chunk(&data);
        let b = ChunkingStrategy::DROPBOX.chunk(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn content_defined_chunk_sizes_are_within_bounds_and_variable() {
        let data = pseudo_random(16 * 1024 * 1024, 4);
        let strategy = ChunkingStrategy::ContentDefined {
            min: 256 * 1024,
            avg: 1024 * 1024,
            max: 4 * 1024 * 1024,
        };
        let chunks = strategy.chunk(&data);
        assert!(chunks.len() >= 3, "expected several chunks, got {}", chunks.len());
        assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), data.len() as u64);
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len >= 256 * 1024, "chunk below min: {}", c.len);
            assert!(c.len <= 4 * 1024 * 1024, "chunk above max: {}", c.len);
        }
        // Variable: not all chunks the same size.
        let first = chunks[0].len;
        assert!(chunks.iter().any(|c| c.len != first));
        assert_eq!(strategy.describe(), "var.");
    }

    #[test]
    fn content_defined_boundaries_survive_a_prefix_insertion() {
        // Insert bytes at the front; most chunk hashes must still match,
        // which is what makes variable chunking dedup-friendly (Fig. 4 right).
        let data = pseudo_random(8 * 1024 * 1024, 5);
        let strategy = ChunkingStrategy::ContentDefined {
            min: 128 * 1024,
            avg: 512 * 1024,
            max: 2 * 1024 * 1024,
        };
        let before = strategy.chunk(&data);
        let mut shifted = pseudo_random(10_000, 99);
        shifted.extend_from_slice(&data);
        let after = strategy.chunk(&shifted);
        let before_hashes: std::collections::HashSet<_> = before.iter().map(|c| c.hash).collect();
        let preserved = after.iter().filter(|c| before_hashes.contains(&c.hash)).count();
        assert!(
            preserved * 2 >= before.len(),
            "only {preserved} of {} chunks survived the shift",
            before.len()
        );
    }

    #[test]
    fn describe_matches_table1_wording() {
        assert_eq!(ChunkingStrategy::DROPBOX.describe(), "4 MB");
        assert_eq!(ChunkingStrategy::GOOGLE_DRIVE.describe(), "8 MB");
        assert_eq!(ChunkingStrategy::None.describe(), "no");
    }

    #[test]
    fn small_files_are_one_chunk_under_every_strategy() {
        let data = pseudo_random(10_000, 6);
        for strategy in [
            ChunkingStrategy::None,
            ChunkingStrategy::DROPBOX,
            ChunkingStrategy::GOOGLE_DRIVE,
            ChunkingStrategy::VARIABLE,
        ] {
            let chunks = strategy.chunk(&data);
            assert_eq!(chunks.len(), 1, "strategy {strategy:?}");
            assert_eq!(chunks[0].len, 10_000);
        }
    }

    #[test]
    fn spans_agree_with_chunks_under_every_strategy() {
        let data = pseudo_random(6 * 1024 * 1024, 17);
        for strategy in [
            ChunkingStrategy::None,
            ChunkingStrategy::DROPBOX,
            ChunkingStrategy::GOOGLE_DRIVE,
            ChunkingStrategy::VARIABLE,
        ] {
            let spans = strategy.spans(&data);
            let chunks = strategy.chunk(&data);
            assert_eq!(spans.len(), chunks.len(), "{strategy:?}");
            for (span, chunk) in spans.iter().zip(&chunks) {
                assert_eq!(span.offset, chunk.offset);
                assert_eq!(span.len, chunk.len);
                assert_eq!(chunk.hash, sha256(&data[span.range()]));
            }
        }
        assert!(ChunkingStrategy::VARIABLE.spans(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_fixed_size_panics() {
        let _ = ChunkingStrategy::Fixed { size: 0 }.chunk(b"abc");
    }

    #[test]
    #[should_panic(expected = "invalid chunking parameters")]
    fn invalid_cdc_parameters_panic() {
        let _ = ChunkingStrategy::ContentDefined { min: 10, avg: 8, max: 100 }.chunk(b"abc");
    }
}
