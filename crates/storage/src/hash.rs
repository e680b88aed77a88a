//! SHA-256 content hashing.
//!
//! Content hashes drive client-side deduplication (§4.3: "replicas in the
//! client folder can be identified to save upload capacity") and the strong
//! block checksums of the delta encoder (§4.4). The implementation follows
//! FIPS 180-4 and is validated against the standard test vectors; no external
//! crypto crate is required.
//!
//! There are two compression kernels and one place that chooses between
//! them, `compress_blocks`: the x86-64 SHA extensions where the host has
//! them, the portable unrolled rounds everywhere else. The choice is made
//! from what the CPU reports, never from a flag or a build setting, and the
//! digest is the same either way (the hash tests print which one ran).

use serde::Serialize;
use std::fmt;

/// A 256-bit content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ContentHash(pub [u8; 32]);

impl ContentHash {
    /// Hexadecimal rendering of the hash.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }

    /// A short prefix (the first six bytes), handy for logs and debug output.
    pub fn short(&self) -> String {
        hex(&self.0[..6])
    }
}

/// Lower-case hexadecimal through a nibble lookup table instead of a
/// per-byte `format!` — this sits under every manifest and report render,
/// where the formatting machinery dominated the cost.
fn hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &byte in bytes {
        out.push(HEX[(byte >> 4) as usize]);
        out.push(HEX[(byte & 0x0F) as usize]);
    }
    String::from_utf8(out).expect("hex digits are valid UTF-8")
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", self.short())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Feeds data into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(self) -> ContentHash {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] over the kernel given, which lets the tests drive
    /// the portable one on a host that dispatches to hardware. Every run of
    /// whole 64-byte blocks goes to the kernel in one call, straight from
    /// `data`; only a trailing partial block is buffered.
    fn absorb(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) {
        self.total_len += data.len() as u64;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// [`Sha256::finalize`] over the kernel given.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> ContentHash {
        let bit_len = self.total_len * 8;
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian
        // length — at most 72 bytes, built on the stack.
        let pad_len =
            if self.buffer_len < 56 { 56 - self.buffer_len } else { 120 - self.buffer_len };
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&tail[..pad_len + 8], compress);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        ContentHash(out)
    }

    /// One FIPS 180-4 block. The 64 rounds are written out so that the
    /// eight working variables are renamed from round to round instead of
    /// shuffled through each other, every schedule index is a constant, and
    /// the message schedule is a 16-word ring instead of `w[64]`. `ch` and
    /// `maj` use the three-operation forms `g ^ (e & (f ^ g))` and
    /// `(a & b) | (c & (a | b))`, equal bit for bit to the standard's.
    fn portable_compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact yields 4-byte words"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // The message word of round `$i`: loaded for the first sixteen,
        // then computed in place in the ring.
        macro_rules! loaded {
            ($i:expr) => {
                w[$i]
            };
        }
        macro_rules! scheduled {
            ($i:expr) => {{
                let w15 = w[($i + 1) & 15];
                let w2 = w[($i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$i & 15] =
                    w[$i & 15].wrapping_add(s0).wrapping_add(w[($i + 9) & 15]).wrapping_add(s1);
                w[$i & 15]
            }};
        }
        // Round `$i` with the variables in the roles (a..h) given; it
        // writes the new `e` into `$d` and the new `a` into `$h`, so the
        // next round takes the same names rotated by one.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $i:expr, $word:ident) => {{
                let wi = $word!($i);
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = $g ^ ($e & ($f ^ $g));
                let temp1 =
                    $h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[$i]).wrapping_add(wi);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) | ($c & ($a | $b));
                $d = $d.wrapping_add(temp1);
                $h = temp1.wrapping_add(s0.wrapping_add(maj));
            }};
        }
        macro_rules! eight_rounds {
            ($i:expr, $word:ident) => {
                round!(a, b, c, d, e, f, g, h, $i, $word);
                round!(h, a, b, c, d, e, f, g, $i + 1, $word);
                round!(g, h, a, b, c, d, e, f, $i + 2, $word);
                round!(f, g, h, a, b, c, d, e, $i + 3, $word);
                round!(e, f, g, h, a, b, c, d, $i + 4, $word);
                round!(d, e, f, g, h, a, b, c, $i + 5, $word);
                round!(c, d, e, f, g, h, a, b, $i + 6, $word);
                round!(b, c, d, e, f, g, h, a, $i + 7, $word);
            };
        }
        eight_rounds!(0, loaded);
        eight_rounds!(8, loaded);
        eight_rounds!(16, scheduled);
        eight_rounds!(24, scheduled);
        eight_rounds!(32, scheduled);
        eight_rounds!(40, scheduled);
        eight_rounds!(48, scheduled);
        eight_rounds!(56, scheduled);

        for (state, var) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *state = state.wrapping_add(var);
        }
    }
}

/// Whether the CPU reports every feature [`sha_ni_compress_blocks`] enables.
/// The answer is cached by the standard library after the first call.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses a run of whole blocks into `state` — the one place a kernel
/// is chosen, by what the host is.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `sha_ni_detected()` on the line above found `sha`, `ssse3`
        // and `sse4.1`, the features `sha_ni_compress_blocks` is compiled for
        // beyond the x86-64 baseline; it has no other precondition.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni_compress_blocks(state, blocks)
        };
        return;
    }
    portable_compress_blocks(state, blocks);
}

/// FIPS 180-4 on the x86-64 SHA extensions. `sha256rnds2` does two rounds
/// on the state held as the register pair (A,B,E,F) / (C,D,G,H), and
/// `sha256msg1` / `sha256msg2` compute four schedule words at a time; the
/// pair stays in registers across all blocks of the call. Only intrinsics
/// that take and return values are used (lanes are built from
/// `u32::from_be_bytes` and read back with `_mm_extract_epi32`), and those
/// are safe to call here because the function enables their features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha_ni_compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    // Four consecutive words of `$words`, converted by `$lane`, the first in
    // lane 0.
    macro_rules! four_lanes {
        ($words:expr, $i:expr, $lane:expr) => {
            _mm_set_epi32(
                $lane($words[4 * $i + 3]),
                $lane($words[4 * $i + 2]),
                $lane($words[4 * $i + 1]),
                $lane($words[4 * $i]),
            )
        };
    }
    // Rounds `4 * $i .. 4 * $i + 4` on the schedule words in `$w`. Two
    // rounds turn (A,B,E,F) into the next (C,D,G,H), so the two registers
    // trade roles and are back in place after four.
    macro_rules! four_rounds {
        ($i:expr, $w:ident) => {{
            let wk = _mm_add_epi32($w, four_lanes!(K, $i, u32::cast_signed));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }
    // The next four schedule words, written over the oldest four of the
    // sixteen before them (`$w0` oldest).
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8::<4>($w3, $w2)),
                $w3,
            )
        };
    }
    macro_rules! sixteen_scheduled_rounds {
        ($i:expr, $w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            schedule!($w0, $w1, $w2, $w3);
            four_rounds!($i, $w0);
            schedule!($w1, $w2, $w3, $w0);
            four_rounds!($i + 1, $w1);
            schedule!($w2, $w3, $w0, $w1);
            four_rounds!($i + 2, $w2);
            schedule!($w3, $w0, $w1, $w2);
            four_rounds!($i + 3, $w3);
        };
    }

    for block in blocks {
        let (words, _) = block.as_chunks::<4>();
        let mut w0 = four_lanes!(words, 0, i32::from_be_bytes);
        let mut w1 = four_lanes!(words, 1, i32::from_be_bytes);
        let mut w2 = four_lanes!(words, 2, i32::from_be_bytes);
        let mut w3 = four_lanes!(words, 3, i32::from_be_bytes);
        let (abef_in, cdgh_in) = (abef, cdgh);
        four_rounds!(0, w0);
        four_rounds!(1, w1);
        four_rounds!(2, w2);
        four_rounds!(3, w3);
        sixteen_scheduled_rounds!(4, w0, w1, w2, w3);
        sixteen_scheduled_rounds!(8, w0, w1, w2, w3);
        sixteen_scheduled_rounds!(12, w0, w1, w2, w3);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(i32::cast_unsigned);
}

/// The kernel of every host without the extensions: the unrolled scalar
/// rounds, block by block.
fn portable_compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        Sha256::portable_compress_block(state, block);
    }
}

/// Hashes a byte slice in one call.
pub fn sha256(data: &[u8]) -> ContentHash {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The round function as it stood before the rounds were unrolled:
    /// `w[64]`, the working variables shuffled each round, the standard's
    /// `ch` and `maj`. Frozen as the reference of the differential test.
    fn reference_compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (state, var) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *state = state.wrapping_add(var);
        }
    }

    /// One-shot SHA-256 over [`reference_compress_block`].
    fn reference_sha256(data: &[u8]) -> ContentHash {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            reference_compress_block(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        ContentHash(out)
    }

    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The compression kernel this host runs: `"sha-ni"` (the x86-64 SHA
    /// extensions) or `"portable"`. Wall times compare across hosts only
    /// kernel for kernel; digests do not depend on it.
    fn kernel() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            return "sha-ni";
        }
        "portable"
    }

    /// The dispatcher, where it runs the hardware kernel. Elsewhere `None`,
    /// and the test output says (once) that the hardware cases did not run.
    fn hardware_kernel() -> Option<Kernel> {
        static SAID: std::sync::Once = std::sync::Once::new();
        if kernel() == "sha-ni" {
            return Some(compress_blocks);
        }
        SAID.call_once(|| println!("skipped: no sha extension"));
        None
    }

    /// Both kernels, called directly: the portable one stays under test on
    /// a host that never dispatches to it.
    fn kernels() -> impl Iterator<Item = Kernel> {
        [Some(portable_compress_blocks as Kernel), hardware_kernel()].into_iter().flatten()
    }

    /// The digest of `pieces`, fed one at a time through `kernel`.
    fn digest_with(kernel: Kernel, pieces: &[&[u8]]) -> ContentHash {
        let mut hasher = Sha256::new();
        for piece in pieces {
            hasher.absorb(piece, kernel);
        }
        hasher.finish(kernel)
    }

    /// A published vector: the dispatched hash and each kernel on its own.
    fn assert_vector(message: &[u8], hex: &str) {
        assert_eq!(sha256(message).to_hex(), hex);
        for kernel in kernels() {
            assert_eq!(digest_with(kernel, &[message]).to_hex(), hex);
        }
    }

    #[test]
    fn kernel_names_the_path_the_dispatcher_takes() {
        #[cfg(target_arch = "x86_64")]
        let hardware = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        assert_eq!(kernel(), if hardware { "sha-ni" } else { "portable" });
        assert_eq!(hardware_kernel().is_some(), hardware);
        println!("sha256 kernel: {}", kernel());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The unrolled rounds and the hardware rounds against the frozen
        /// round function, fed in two pieces at every split point.
        #[test]
        fn unrolled_rounds_match_the_reference(data in collection::vec(any::<u8>(), 0..301)) {
            let expected = reference_sha256(&data);
            for kernel in kernels() {
                for split in 0..=data.len() {
                    let (head, tail) = data.split_at(split);
                    prop_assert_eq!(digest_with(kernel, &[head, tail]), expected);
                }
            }
        }
    }

    #[test]
    fn multi_block_runs_from_misaligned_slices_and_a_half_filled_buffer() {
        let data: Vec<u8> =
            (0..5_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for kernel in kernels() {
            // Seventy-odd blocks in one kernel call, from every alignment
            // of the slice's start within a 16-byte lane.
            for skip in 0..16 {
                let slice = &data[skip..];
                assert_eq!(digest_with(kernel, &[slice]), reference_sha256(slice), "skip {skip}");
            }
            // A buffer left half full, topped up, then a run of whole
            // blocks from the middle of the same slice.
            for first in [1, 32, 37, 63] {
                let (head, tail) = data.split_at(first);
                assert_eq!(digest_with(kernel, &[head, tail]), reference_sha256(&data));
                let (middle, end) = tail.split_at(4_000);
                assert_eq!(digest_with(kernel, &[head, middle, end]), reference_sha256(&data));
            }
        }
    }

    #[test]
    fn fips_two_block_vector() {
        // FIPS 180-4 / NIST example: the 896-bit message, two blocks.
        let message = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                        hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(message.len() * 8, 896);
        assert_vector(message, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
        assert_eq!(reference_sha256(message), sha256(message));
    }

    #[test]
    fn fips_test_vectors() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_updates_match_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = sha256(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 1000] {
            let mut hasher = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary exercise both branches.
        for len in 54..=66usize {
            let data = vec![0x5Au8; len];
            let h1 = sha256(&data);
            let mut hasher = Sha256::new();
            hasher.update(&data[..len / 2]);
            hasher.update(&data[len / 2..]);
            assert_eq!(hasher.finalize(), h1, "length {len}");
        }
    }

    #[test]
    fn different_content_different_hash() {
        let a = sha256(b"hello world");
        let b = sha256(b"hello worlc");
        assert_ne!(a, b);
        assert_eq!(a, sha256(b"hello world"));
    }

    #[test]
    fn hex_and_debug_rendering() {
        let h = sha256(b"abc");
        assert_eq!(h.to_hex().len(), 64);
        assert_eq!(h.short().len(), 12);
        assert!(format!("{h:?}").contains(&h.short()));
        assert_eq!(format!("{h}"), h.to_hex());
    }
}
