//! File mutation operators.
//!
//! The delta-encoding test of §4.4 generates "a sequence of changes ... on a
//! file so that a portion of content is added/changed at each iteration.
//! Three cases are considered: new data added/changed at the end, at the
//! beginning, or at a random position within the file."

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// A mutation applied to an existing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// Append `len` new bytes at the end.
    Append {
        /// Number of bytes to add.
        len: usize,
    },
    /// Insert `len` new bytes at the beginning.
    Prepend {
        /// Number of bytes to add.
        len: usize,
    },
    /// Insert `len` new bytes at a pseudo-random offset.
    InsertRandom {
        /// Number of bytes to add.
        len: usize,
    },
    /// Overwrite `len` bytes in place at a pseudo-random offset (no growth).
    OverwriteRandom {
        /// Number of bytes to overwrite.
        len: usize,
    },
}

impl Mutation {
    /// Applies the mutation to `content`, deterministically from `seed`, and
    /// returns the new revision.
    pub fn apply(&self, content: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            Mutation::Append { len } => {
                let mut out = content.to_vec();
                out.extend_from_slice(&fresh_bytes(len, &mut rng));
                out
            }
            Mutation::Prepend { len } => {
                let mut out = fresh_bytes(len, &mut rng);
                out.extend_from_slice(content);
                out
            }
            Mutation::InsertRandom { len } => {
                let at = if content.is_empty() { 0 } else { rng.gen_range(0..=content.len()) };
                let mut out = Vec::with_capacity(content.len() + len);
                out.extend_from_slice(&content[..at]);
                out.extend_from_slice(&fresh_bytes(len, &mut rng));
                out.extend_from_slice(&content[at..]);
                out
            }
            Mutation::OverwriteRandom { len } => {
                let mut out = content.to_vec();
                if out.is_empty() || len == 0 {
                    return out;
                }
                let len = len.min(out.len());
                let at = rng.gen_range(0..=out.len() - len);
                let patch = fresh_bytes(len, &mut rng);
                out[at..at + len].copy_from_slice(&patch);
                out
            }
        }
    }
}

fn fresh_bytes(len: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<u8> {
        (0..50_000u32).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn append_adds_at_the_end() {
        let content = base();
        let out = Mutation::Append { len: 1000 }.apply(&content, 1);
        assert_eq!(out.len(), content.len() + 1000);
        assert_eq!(&out[..content.len()], &content[..]);
    }

    #[test]
    fn prepend_adds_at_the_beginning() {
        let content = base();
        let out = Mutation::Prepend { len: 500 }.apply(&content, 2);
        assert_eq!(out.len(), content.len() + 500);
        assert_eq!(&out[500..], &content[..]);
    }

    #[test]
    fn insert_random_keeps_both_sides() {
        let content = base();
        let mutation = Mutation::InsertRandom { len: 777 };
        let out = mutation.apply(&content, 3);
        assert_eq!(out.len(), content.len() + 777);
        // The result must contain the original as prefix+suffix around the gap:
        // find the split point by comparing prefixes.
        let split = content.iter().zip(out.iter()).take_while(|(a, b)| a == b).count();
        assert_eq!(&out[..split], &content[..split]);
        assert_eq!(&out[split + 777..], &content[split..]);
        // Deterministic per seed, different across seeds.
        assert_eq!(mutation.apply(&content, 3), out);
        assert_ne!(mutation.apply(&content, 4), out);
    }

    #[test]
    fn overwrite_keeps_length() {
        let content = base();
        let out = Mutation::OverwriteRandom { len: 1234 }.apply(&content, 5);
        assert_eq!(out.len(), content.len());
        assert_ne!(out, content);
        let differing = out.iter().zip(content.iter()).filter(|(a, b)| a != b).count();
        assert!(differing <= 1234);
    }

    #[test]
    fn edge_cases_empty_content_and_zero_lengths() {
        assert_eq!(Mutation::Append { len: 10 }.apply(&[], 1).len(), 10);
        assert_eq!(Mutation::Prepend { len: 10 }.apply(&[], 1).len(), 10);
        assert_eq!(Mutation::InsertRandom { len: 10 }.apply(&[], 1).len(), 10);
        assert_eq!(Mutation::OverwriteRandom { len: 10 }.apply(&[], 1).len(), 0);
        assert_eq!(Mutation::Append { len: 0 }.apply(&base(), 1), base());
        assert_eq!(Mutation::OverwriteRandom { len: 0 }.apply(&base(), 1), base());
    }
}
