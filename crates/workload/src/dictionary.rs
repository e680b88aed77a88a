//! Dictionary-based text synthesis.
//!
//! The paper's testing application builds "text files composed of random
//! words from a dictionary" for the compression experiments (§2, §4.5). The
//! embedded word list below is a small English dictionary; text synthesised
//! from it is highly compressible (each word reappears many times), which is
//! exactly the property Fig. 5(a) relies on.

use crate::seed::Stream;

/// The embedded word list used to synthesise "readable" text.
#[rustfmt::skip]
pub(crate) const WORDS: &[&str] = &[
    "the", "of", "and", "a", "to", "in", "is", "you", "that", "it", "he", "was", "for", "on",
    "are", "as", "with", "his", "they", "I", "at", "be", "this", "have", "from", "or", "one",
    "had", "by", "word", "but", "not", "what", "all", "were", "we", "when", "your", "can",
    "said", "there", "use", "an", "each", "which", "she", "do", "how", "their", "if", "will",
    "up", "other", "about", "out", "many", "then", "them", "these", "so", "some", "her",
    "would", "make", "like", "him", "into", "time", "has", "look", "two", "more", "write",
    "go", "see", "number", "no", "way", "could", "people", "my", "than", "first", "water",
    "been", "call", "who", "oil", "its", "now", "find", "long", "down", "day", "did", "get",
    "come", "made", "may", "part", "cloud", "storage", "service", "benchmark", "measurement",
    "synchronization", "protocol", "network", "traffic", "capability", "performance", "file",
    "folder", "upload", "download", "server", "client", "data", "center", "experiment",
    "methodology", "capacity", "bandwidth", "latency", "overhead", "compression", "encryption",
    "deduplication", "bundling", "chunking", "delta", "encoding", "internet", "provider",
];

/// Generates `len` bytes of text made of random dictionary words separated by
/// spaces, with a newline roughly every 70 characters.
pub(crate) fn text(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Stream::new(seed);
    let mut out = Vec::with_capacity(len + 16);
    let mut line = 0usize;
    while out.len() < len {
        let word = WORDS[rng.below(WORDS.len() as u64) as usize];
        out.extend_from_slice(word.as_bytes());
        line += word.len() + 1;
        if line >= 70 {
            out.push(b'\n');
            line = 0;
        } else {
            out.push(b' ');
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_has_the_requested_length() {
        for len in [0usize, 1, 10, 1000, 100_000] {
            assert_eq!(text(len, 1).len(), len);
        }
    }

    #[test]
    fn text_is_deterministic_per_seed() {
        assert_eq!(text(5000, 7), text(5000, 7));
        assert_ne!(text(5000, 7), text(5000, 8));
    }

    #[test]
    fn text_consists_of_dictionary_words() {
        let sample = text(10_000, 3);
        let s = String::from_utf8(sample).expect("dictionary text must be valid UTF-8");
        for word in s.split_whitespace().take(200) {
            // The final word may be truncated; accept prefixes of dictionary words.
            assert!(
                WORDS.iter().any(|w| *w == word || w.starts_with(word)),
                "unexpected token {word:?}"
            );
        }
    }

    #[test]
    fn text_is_highly_repetitive() {
        // Compressibility proxy: with a ~140-word dictionary every word recurs
        // hundreds of times in 50 kB of text.
        let sample = String::from_utf8(text(50_000, 4)).unwrap();
        let the_count = sample.split_whitespace().filter(|w| *w == "the").count();
        assert!(the_count > 20, "expected many repetitions, got {the_count}");
        let distinct: std::collections::HashSet<&str> = sample.split_whitespace().collect();
        assert!(distinct.len() <= WORDS.len() + 1, "unexpected vocabulary size {}", distinct.len());
    }

    #[test]
    fn word_list_is_reasonable() {
        assert!(WORDS.len() >= 100);
        assert!(WORDS.iter().all(|w| !w.is_empty() && w.is_ascii()));
    }
}
