//! Content-addressed deduplication index.
//!
//! §4.3: "Server data deduplication eliminates replicas on the storage server.
//! In case the same content is already present on the storage, replicas in the
//! client folder can be identified to save upload capacity too." The paper
//! finds that only Dropbox and Wuala implement client-side dedup, and that
//! both "can identify copies of users' files even after they are deleted and
//! later restored" — i.e. the index is not garbage-collected when the last
//! reference disappears.
//!
//! [`DedupIndex`] models the per-user chunk index a client queries before
//! deciding whether a chunk needs to be uploaded at all.

use crate::hash::ContentHash;
use std::collections::HashSet;

/// Deduplication index: which chunk hashes the server already knows for a
/// given user account.
#[derive(Debug, Clone, Default)]
pub struct DedupIndex {
    /// Every hash ever stored for the account. Deleting the files that use
    /// a chunk keeps its entry, matching the delete-and-restore finding.
    entries: HashSet<ContentHash>,
}

impl DedupIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        DedupIndex::default()
    }

    /// Returns `true` when the chunk is already known to the server (the
    /// upload can be skipped).
    pub fn contains(&self, hash: &ContentHash) -> bool {
        self.entries.contains(hash)
    }

    /// Records that the server holds the chunk (after an upload or a dedup
    /// hit).
    pub fn insert(&mut self, hash: ContentHash) {
        self.entries.insert(hash);
    }

    /// Number of distinct chunk hashes the index knows about.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index knows no chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;

    #[test]
    fn unknown_chunks_miss_then_hit_after_upload() {
        let mut index = DedupIndex::new();
        let h = sha256(b"chunk one");
        assert!(!index.contains(&h));
        index.insert(h);
        assert!(index.contains(&h));
        assert_eq!(index.len(), 1);
        assert!(!index.is_empty());
    }

    #[test]
    fn copies_in_other_folders_are_detected() {
        // The paper's test: same payload under a different name in a second
        // folder, then a copy in a third folder — only the first upload counts.
        let mut index = DedupIndex::new();
        let payload = sha256(b"random payload");
        assert!(!index.contains(&payload));
        index.insert(payload);
        for _ in 0..2 {
            assert!(index.contains(&payload));
            index.insert(payload);
        }
        assert_eq!(index.len(), 1);
        assert!(!index.contains(&sha256(b"y")));
    }
}
