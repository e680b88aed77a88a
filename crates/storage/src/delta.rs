//! Rsync-style delta encoding.
//!
//! §4.4: "Delta encoding is a specialized compression technique that
//! calculates file differences among two copies, allowing the transmission of
//! only the modifications between revisions." The paper's test appends or
//! inserts data at the beginning, end or a random position of a file and
//! checks whether the uploaded volume tracks the modification size — which
//! requires a *rolling* hash so that matches are found at arbitrary byte
//! offsets. Dropbox is the only service that implements this.
//!
//! The implementation follows the classic rsync scheme: the old revision is
//! summarised as per-block `(weak Adler-32-style checksum, strong SHA-256)`
//! signatures; the new revision is scanned with a rolling window, emitting
//! `Copy` operations for blocks already on the server and `Literal` runs for
//! new data.

use crate::hash::{sha256, ContentHash};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default delta block size (rsync uses ~700–16 kB; Dropbox-scale clients use
/// a few kB per block inside each 4 MB chunk).
pub const DEFAULT_BLOCK_SIZE: usize = 8 * 1024;

/// Weak rolling checksum (Adler-32 flavour used by rsync). Public so the
/// property tests can assert the rolled value equals a from-scratch
/// recomputation at every offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeakSum(pub u32);

/// Computes the weak checksum of a block from scratch.
pub fn weak_sum(data: &[u8]) -> WeakSum {
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    for (i, &byte) in data.iter().enumerate() {
        a = a.wrapping_add(byte as u32);
        b = b.wrapping_add((data.len() - i) as u32 * byte as u32);
    }
    WeakSum((a & 0xFFFF) | (b << 16))
}

/// Rolls the weak checksum forward by one byte: the sum of
/// `data[i+1..i+1+len]` from the sum of `data[i..i+len]` in O(1).
pub fn roll(sum: WeakSum, out_byte: u8, in_byte: u8, block_len: usize) -> WeakSum {
    let a = sum.0 & 0xFFFF;
    let b = sum.0 >> 16;
    let a = a.wrapping_sub(out_byte as u32).wrapping_add(in_byte as u32) & 0xFFFF;
    let b = b
        .wrapping_sub(block_len as u32 * out_byte as u32)
        .wrapping_add(a)
        .wrapping_sub(in_byte as u32)
        .wrapping_add(in_byte as u32); // keep formula explicit; a already includes in_byte
    WeakSum(a | (b << 16))
}

/// Signature of the server-side (old) revision of a file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Block size the signature was computed with.
    pub block_size: usize,
    /// Strong hash of each block, in order.
    pub blocks: Vec<ContentHash>,
    /// Total length of the old revision.
    pub total_len: u64,
    #[serde(skip)]
    weak_index: HashMap<u32, Vec<usize>>,
}

impl Signature {
    /// Computes the signature of `old` with the default block size.
    pub fn new(old: &[u8]) -> Signature {
        Signature::with_block_size(old, DEFAULT_BLOCK_SIZE)
    }

    /// Computes the signature of `old` with an explicit block size.
    pub fn with_block_size(old: &[u8], block_size: usize) -> Signature {
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = Vec::new();
        let mut weak_index: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, block) in old.chunks(block_size).enumerate() {
            blocks.push(sha256(block));
            if block.len() == block_size {
                weak_index.entry(weak_sum(block).0).or_default().push(i);
            }
        }
        Signature { block_size, blocks, total_len: old.len() as u64, weak_index }
    }

    /// Size of the signature on the wire: one weak (4 B) and one strong (32 B)
    /// checksum per block — this is control traffic the delta protocol costs.
    pub fn wire_size(&self) -> u64 {
        self.blocks.len() as u64 * 36
    }
}

/// One instruction of a delta script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Copy block `index` of the old revision.
    Copy {
        /// Index of the old-revision block to copy.
        index: usize,
    },
    /// Emit the given literal bytes.
    Literal {
        /// Raw bytes not present in the old revision.
        data: Vec<u8>,
    },
}

/// A delta script transforming the old revision into the new one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaScript {
    /// Block size of the signature this script refers to.
    pub block_size: usize,
    /// The instructions, in output order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaScript {
    /// Computes the delta of `new` against the signature of the old revision.
    pub fn compute(signature: &Signature, new: &[u8]) -> DeltaScript {
        let block_size = signature.block_size;
        let mut ops: Vec<DeltaOp> = Vec::new();
        let mut literal: Vec<u8> = Vec::new();
        let mut i = 0usize;

        let mut current_weak: Option<WeakSum> = None;

        while i < new.len() {
            if i + block_size <= new.len() {
                let window = &new[i..i + block_size];
                let weak = match current_weak {
                    Some(w) => w,
                    None => weak_sum(window),
                };
                let matched = signature.weak_index.get(&weak.0).and_then(|candidates| {
                    let strong = sha256(window);
                    candidates.iter().copied().find(|&idx| signature.blocks[idx] == strong)
                });
                if let Some(idx) = matched {
                    if !literal.is_empty() {
                        ops.push(DeltaOp::Literal { data: std::mem::take(&mut literal) });
                    }
                    ops.push(DeltaOp::Copy { index: idx });
                    i += block_size;
                    current_weak = None;
                    continue;
                }
                // No match: shift the window one byte, keep rolling.
                literal.push(new[i]);
                if i + block_size < new.len() {
                    current_weak = Some(roll(weak, new[i], new[i + block_size], block_size));
                } else {
                    current_weak = None;
                }
                i += 1;
            } else {
                literal.push(new[i]);
                i += 1;
            }
        }
        if !literal.is_empty() {
            ops.push(DeltaOp::Literal { data: literal });
        }
        DeltaScript { block_size, ops }
    }

    /// Applies the script to the old revision, reconstructing the new one.
    pub fn apply(&self, old: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                DeltaOp::Copy { index } => {
                    let start = index * self.block_size;
                    let end = (start + self.block_size).min(old.len());
                    out.extend_from_slice(&old[start..end]);
                }
                DeltaOp::Literal { data } => out.extend_from_slice(data),
            }
        }
        out
    }

    /// Bytes of new (literal) data the script carries.
    pub fn literal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal { data } => data.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Size of the script on the wire: literals plus a small fixed cost per
    /// instruction (the quantity Fig. 4 plots for Dropbox).
    pub fn wire_size(&self) -> u64 {
        let op_overhead = self.ops.len() as u64 * 8;
        self.literal_bytes() + op_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn copy_count(delta: &DeltaScript) -> usize {
        delta.ops.iter().filter(|op| matches!(op, DeltaOp::Copy { .. })).count()
    }

    #[test]
    fn identical_files_produce_a_copy_only_script() {
        let old = pseudo_random(100_000, 1);
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &old);
        assert_eq!(delta.literal_bytes(), old.len() as u64 % DEFAULT_BLOCK_SIZE as u64);
        assert!(copy_count(&delta) >= old.len() / DEFAULT_BLOCK_SIZE);
        assert_eq!(delta.apply(&old), old);
        assert!(delta.wire_size() < old.len() as u64 / 4);
    }

    #[test]
    fn append_uploads_roughly_the_appended_bytes() {
        // The paper's Fig. 4 (left): data appended at the end of a file.
        let old = pseudo_random(1_000_000, 2);
        let mut new = old.clone();
        new.extend_from_slice(&pseudo_random(100_000, 3));
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &new);
        assert_eq!(delta.apply(&old), new);
        let literal = delta.literal_bytes();
        assert!(
            (100_000..120_000).contains(&literal),
            "literal bytes {literal} should track the 100 kB append"
        );
    }

    #[test]
    fn prepend_uploads_roughly_the_prepended_bytes() {
        // Rolling matching must find the old content even though every byte
        // offset shifted (this is what separates delta encoding from naive
        // block diffing).
        let old = pseudo_random(1_000_000, 4);
        let mut new = pseudo_random(50_000, 5);
        new.extend_from_slice(&old);
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &new);
        assert_eq!(delta.apply(&old), new);
        let literal = delta.literal_bytes();
        assert!(
            (50_000..70_000).contains(&literal),
            "literal bytes {literal} should track the 50 kB prepend"
        );
    }

    #[test]
    fn random_offset_insertion_uploads_roughly_the_inserted_bytes() {
        let old = pseudo_random(2_000_000, 6);
        let insert_at = 777_777;
        let inserted = pseudo_random(30_000, 7);
        let mut new = Vec::with_capacity(old.len() + inserted.len());
        new.extend_from_slice(&old[..insert_at]);
        new.extend_from_slice(&inserted);
        new.extend_from_slice(&old[insert_at..]);
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &new);
        assert_eq!(delta.apply(&old), new);
        let literal = delta.literal_bytes();
        assert!(
            literal < 30_000 + 2 * DEFAULT_BLOCK_SIZE as u64,
            "literal bytes {literal} should be close to the 30 kB insertion"
        );
    }

    #[test]
    fn completely_different_files_transmit_everything() {
        let old = pseudo_random(200_000, 8);
        let new = pseudo_random(200_000, 9);
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &new);
        assert_eq!(delta.apply(&old), new);
        assert_eq!(delta.literal_bytes(), 200_000);
        assert_eq!(copy_count(&delta), 0);
    }

    #[test]
    fn signature_wire_size_scales_with_block_count() {
        let data = pseudo_random(160_000, 10);
        let sig = Signature::with_block_size(&data, 16_000);
        assert_eq!(sig.blocks.len(), 10);
        assert_eq!(sig.wire_size(), 360);
        assert_eq!(sig.total_len, 160_000);
    }

    #[test]
    fn small_edits_in_place_only_touch_affected_blocks() {
        let old = pseudo_random(512 * 1024, 11);
        let mut new = old.clone();
        // Flip 10 bytes in the middle of one block.
        for b in &mut new[100_000..100_010] {
            *b ^= 0xFF;
        }
        let sig = Signature::new(&old);
        let delta = DeltaScript::compute(&sig, &new);
        assert_eq!(delta.apply(&old), new);
        assert!(delta.literal_bytes() <= 2 * DEFAULT_BLOCK_SIZE as u64);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let sig = Signature::new(&[]);
        assert_eq!(sig.blocks.len(), 0);
        let delta = DeltaScript::compute(&sig, b"brand new content");
        assert_eq!(delta.apply(&[]), b"brand new content");
        let delta_empty = DeltaScript::compute(&Signature::new(b"old stuff"), &[]);
        assert_eq!(delta_empty.apply(b"old stuff"), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = Signature::with_block_size(b"abc", 0);
    }

    #[test]
    fn weak_sum_rolls_correctly() {
        let data = pseudo_random(4_000, 12);
        let block = 256;
        let mut rolled = weak_sum(&data[0..block]);
        for i in 0..data.len() - block - 1 {
            rolled = roll(rolled, data[i], data[i + block], block);
            let direct = weak_sum(&data[i + 1..i + 1 + block]);
            assert_eq!(rolled, direct, "rolling diverged at offset {i}");
        }
    }
}
