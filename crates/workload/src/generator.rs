//! File content generators.
//!
//! §2 of the paper: "Files of different types are created or modified at
//! run-time, e.g., text files composed of random words from a dictionary,
//! images with random pixels, or random binary files." §4.5 adds the *fake
//! JPEG*: "files with JPEG extension and JPEG headers, but actually filled
//! with text", used to show that Google Drive's smart compression looks only
//! at the header. No experiment behind the figures uses the random-pixel
//! images, so there is no generator for them.

use crate::dictionary;
use crate::seed::Stream;

/// The content types exercised by the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Highly compressible text made of dictionary words (§4.5, Fig. 5a).
    Text,
    /// Incompressible random bytes (§4.5, Fig. 5b; also the binary files of
    /// the §5 performance benchmarks).
    RandomBinary,
    /// A file with a valid JPEG header but a text body (§4.5, Fig. 5c).
    FakeJpeg,
}

impl FileKind {
    /// All kinds, in a stable order.
    #[cfg(test)]
    pub(crate) const ALL: [FileKind; 3] =
        [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg];

    /// A short label used in reports ("text", "binary", "fake-jpeg").
    pub fn label(&self) -> &'static str {
        match self {
            FileKind::Text => "text",
            FileKind::RandomBinary => "binary",
            FileKind::FakeJpeg => "fake-jpeg",
        }
    }

    /// The file extension the testing application would use.
    pub fn extension(&self) -> &'static str {
        match self {
            FileKind::Text => "txt",
            FileKind::RandomBinary => "bin",
            FileKind::FakeJpeg => "jpg",
        }
    }
}

/// JPEG JFIF header: SOI marker, APP0 segment with "JFIF\0" identifier.
const JPEG_HEADER: &[u8] = &[
    0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, b'J', b'F', b'I', b'F', 0x00, 0x01, 0x01, 0x00, 0x00, 0x48,
    0x00, 0x48, 0x00, 0x00,
];

/// Generates `size` bytes of content of the given kind, deterministically from
/// the seed.
pub fn generate(kind: FileKind, size: usize, seed: u64) -> Vec<u8> {
    match kind {
        FileKind::Text => dictionary::text(size, seed),
        FileKind::RandomBinary => random_bytes(size, seed),
        FileKind::FakeJpeg => {
            if size <= JPEG_HEADER.len() {
                JPEG_HEADER[..size].to_vec()
            } else {
                let mut out = JPEG_HEADER.to_vec();
                out.extend_from_slice(&dictionary::text(size - JPEG_HEADER.len(), seed));
                out
            }
        }
    }
}

fn random_bytes(size: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; size];
    Stream::new(seed).fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sizes_are_exact_for_every_kind() {
        for kind in FileKind::ALL {
            for size in [0usize, 1, 19, 20, 21, 53, 54, 55, 10_000, 100_000] {
                assert_eq!(generate(kind, size, 42).len(), size, "{kind:?} size {size}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in FileKind::ALL {
            assert_eq!(generate(kind, 5000, 1), generate(kind, 5000, 1), "{kind:?}");
            assert_ne!(generate(kind, 5000, 1), generate(kind, 5000, 2), "{kind:?}");
        }
    }

    #[test]
    fn fake_jpeg_has_jpeg_magic_but_text_body() {
        let data = generate(FileKind::FakeJpeg, 50_000, 3);
        assert_eq!(&data[..3], &[0xFF, 0xD8, 0xFF], "must start with the JPEG SOI marker");
        let body = &data[JPEG_HEADER.len()..];
        assert!(body.is_ascii(), "fake JPEG body must be plain text");
        // The body is repetitive dictionary text: common words appear many times.
        let text = String::from_utf8_lossy(body);
        assert!(text.matches("the").count() > 20, "body does not look like dictionary text");
    }

    #[test]
    fn random_binary_is_incompressible_looking() {
        let data = generate(FileKind::RandomBinary, 100_000, 4);
        let distinct: std::collections::HashSet<u8> = data.iter().copied().collect();
        assert_eq!(distinct.len(), 256, "all byte values should appear in 100 kB of noise");
    }

    #[test]
    fn labels_and_extensions_are_stable() {
        assert_eq!(FileKind::Text.label(), "text");
        assert_eq!(FileKind::RandomBinary.label(), "binary");
        assert_eq!(FileKind::FakeJpeg.label(), "fake-jpeg");
        assert_eq!(FileKind::Text.extension(), "txt");
        assert_eq!(FileKind::FakeJpeg.extension(), "jpg");
        assert_eq!(FileKind::ALL.len(), 3);
    }
}
