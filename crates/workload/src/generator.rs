//! File content generators.
//!
//! §2 of the paper: "Files of different types are created or modified at
//! run-time, e.g., text files composed of random words from a dictionary,
//! images with random pixels, or random binary files." §4.5 adds the *fake
//! JPEG*: "files with JPEG extension and JPEG headers, but actually filled
//! with text", used to show that Google Drive's smart compression looks only
//! at the header.

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
    /// An uncompressed bitmap image with random pixels (§2).
    RandomPixelImage,
}

impl FileKind {
    /// All kinds, in a stable order.
    pub const ALL: [FileKind; 4] =
        [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg, FileKind::RandomPixelImage];

    /// A short label used in reports ("text", "binary", "fake-jpeg", "image").
    pub fn label(&self) -> &'static str {
        match self {
            FileKind::Text => "text",
            FileKind::RandomBinary => "binary",
            FileKind::FakeJpeg => "fake-jpeg",
            FileKind::RandomPixelImage => "image",
        }
    }

    /// The file extension the testing application would use.
    pub fn extension(&self) -> &'static str {
        match self {
            FileKind::Text => "txt",
            FileKind::RandomBinary => "bin",
            FileKind::FakeJpeg => "jpg",
            FileKind::RandomPixelImage => "bmp",
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
        FileKind::RandomPixelImage => bitmap_with_random_pixels(size, seed),
    }
}

fn random_bytes(size: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; size];
    Stream::new(seed).fill_bytes(&mut out);
    out
}

/// Builds a minimal but well-formed BMP (24-bit, uncompressed) whose pixel
/// data is random. The overall byte length equals `size` exactly: the pixel
/// array is sized to fill the remainder and the header fields are set
/// accordingly (the last row may be partial, which viewers tolerate and the
/// benchmarks never display).
fn bitmap_with_random_pixels(size: usize, seed: u64) -> Vec<u8> {
    const HEADER_LEN: usize = 54;
    if size <= HEADER_LEN {
        // Too small for a real bitmap: degrade to random bytes so the length
        // contract still holds.
        return random_bytes(size, seed);
    }
    let pixel_bytes = size - HEADER_LEN;
    // Pick a square-ish geometry for the declared dimensions.
    let width = ((pixel_bytes / 3) as f64).sqrt().max(1.0) as u32;
    let height = ((pixel_bytes / 3) as u32 / width.max(1)).max(1);

    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(b"BM");
    out.extend_from_slice(&(size as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]);
    out.extend_from_slice(&(HEADER_LEN as u32).to_le_bytes());
    out.extend_from_slice(&40u32.to_le_bytes()); // BITMAPINFOHEADER size
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // planes
    out.extend_from_slice(&24u16.to_le_bytes()); // bits per pixel
    out.extend_from_slice(&0u32.to_le_bytes()); // BI_RGB (uncompressed)
    out.extend_from_slice(&(pixel_bytes as u32).to_le_bytes());
    out.extend_from_slice(&2835u32.to_le_bytes()); // 72 DPI
    out.extend_from_slice(&2835u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    let mut pixels = vec![0u8; pixel_bytes];
    Stream::new(seed).fill_bytes(&mut pixels);
    out.extend_from_slice(&pixels);
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
    fn bitmap_has_valid_header_and_random_pixels() {
        let data = generate(FileKind::RandomPixelImage, 30_054, 5);
        assert_eq!(&data[..2], b"BM");
        let declared = u32::from_le_bytes([data[2], data[3], data[4], data[5]]) as usize;
        assert_eq!(declared, data.len());
        let offset = u32::from_le_bytes([data[10], data[11], data[12], data[13]]) as usize;
        assert_eq!(offset, 54);
        let pixels = &data[offset..];
        let distinct: std::collections::HashSet<u8> = pixels.iter().copied().collect();
        assert!(distinct.len() > 200, "pixels should be random");
    }

    #[test]
    fn tiny_images_degrade_gracefully() {
        let data = generate(FileKind::RandomPixelImage, 10, 6);
        assert_eq!(data.len(), 10);
    }

    #[test]
    fn labels_and_extensions_are_stable() {
        assert_eq!(FileKind::Text.label(), "text");
        assert_eq!(FileKind::RandomBinary.label(), "binary");
        assert_eq!(FileKind::FakeJpeg.label(), "fake-jpeg");
        assert_eq!(FileKind::RandomPixelImage.label(), "image");
        assert_eq!(FileKind::Text.extension(), "txt");
        assert_eq!(FileKind::FakeJpeg.extension(), "jpg");
        assert_eq!(FileKind::ALL.len(), 4);
    }
}
