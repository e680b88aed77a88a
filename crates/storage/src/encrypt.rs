//! Client-side (convergent) encryption.
//!
//! Wuala encrypts data on the client before upload, and the paper highlights
//! two findings about it: encryption does not noticeably hurt synchronisation
//! performance (§6), and deduplication keeps working because "two identical
//! files generate two identical encrypted versions" (§4.3). The latter is the
//! defining property of *convergent encryption*: the key is derived from the
//! content itself, so equal plaintexts map to equal ciphertexts while
//! different plaintexts remain mutually unintelligible.
//!
//! The cipher is ChaCha20 (RFC 7539), implemented locally and validated
//! against the RFC test vector; the convergent key is the SHA-256 of the
//! plaintext and the nonce is derived from the key.

use crate::hash::{sha256, ContentHash};

/// ChaCha20 block function state.
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha20_block(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u8; 64] {
    let constants = [0x61707865u32, 0x3320646e, 0x79622d32, 0x6b206574];
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&constants);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Raw ChaCha20 stream cipher: XORs `data` with the keystream.
pub(crate) fn chacha20_xor(
    key: &[u8; 32],
    nonce: &[u8; 12],
    initial_counter: u32,
    data: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (block_idx, chunk) in data.chunks(64).enumerate() {
        let keystream = chacha20_block(key, nonce, initial_counter + block_idx as u32);
        out.extend(chunk.iter().zip(keystream.iter()).map(|(d, k)| d ^ k));
    }
    out
}

/// Convergent encryption: key and nonce are derived from the plaintext, so
/// identical plaintexts produce identical ciphertexts (preserving
/// deduplication) while the ciphertext reveals nothing about a plaintext one
/// does not already possess.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvergentCipher;

impl ConvergentCipher {
    /// Creates the cipher (stateless).
    pub fn new() -> Self {
        ConvergentCipher
    }

    /// Derives the convergent key (SHA-256 of the plaintext).
    pub fn derive_key(&self, plaintext: &[u8]) -> ContentHash {
        sha256(plaintext)
    }

    /// Encrypts `plaintext` with its convergent key. Returns the ciphertext;
    /// the key needed for decryption is [`ConvergentCipher::derive_key`].
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let key_hash = self.derive_key(plaintext);
        self.encrypt_with_key(&key_hash, plaintext)
    }

    /// Encrypts with an explicit (already derived) key.
    pub(crate) fn encrypt_with_key(&self, key: &ContentHash, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&sha256(&key.0).0[..12]);
        chacha20_xor(&key.0, &nonce, 1, plaintext)
    }

    /// Decrypts a ciphertext produced by [`ConvergentCipher::encrypt`], given
    /// the convergent key of the original plaintext.
    pub fn decrypt(&self, key: &ContentHash, ciphertext: &[u8]) -> Vec<u8> {
        // ChaCha20 is an XOR stream cipher: decryption is encryption.
        self.encrypt_with_key(key, ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.4.2 test vector.
    #[test]
    fn rfc7539_encryption_vector() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ciphertext = chacha20_xor(&key, &nonce, 1, plaintext);
        let expected_prefix = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b,
        ];
        assert_eq!(&ciphertext[..32], &expected_prefix);
        assert_eq!(ciphertext.len(), plaintext.len());
        // Round trip.
        assert_eq!(chacha20_xor(&key, &nonce, 1, &ciphertext), plaintext);
    }

    #[test]
    fn convergent_encryption_is_deterministic() {
        let cipher = ConvergentCipher::new();
        let data = b"the same file synced from two folders".repeat(100);
        let c1 = cipher.encrypt(&data);
        let c2 = cipher.encrypt(&data);
        assert_eq!(c1, c2, "identical plaintexts must give identical ciphertexts");
        assert_ne!(c1, data, "ciphertext must differ from plaintext");
    }

    #[test]
    fn different_plaintexts_give_unrelated_ciphertexts() {
        let cipher = ConvergentCipher::new();
        let a = cipher.encrypt(&vec![0u8; 4096]);
        let b = cipher.encrypt(&vec![1u8; 4096]);
        assert_ne!(a, b);
        // Hamming-style check: roughly half the bytes should differ.
        let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing > 3000);
    }

    #[test]
    fn decrypt_restores_the_plaintext() {
        let cipher = ConvergentCipher::new();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let key = cipher.derive_key(&data);
        let ciphertext = cipher.encrypt(&data);
        assert_eq!(cipher.decrypt(&key, &ciphertext), data);
    }

    #[test]
    fn ciphertext_length_matches_plaintext_length() {
        // Convergent encryption must not inflate uploads, otherwise Wuala's
        // traffic volumes in Fig. 5 would not sit on the "no compression" line.
        let cipher = ConvergentCipher::new();
        for len in [0usize, 1, 63, 64, 65, 1000, 65_537] {
            let data = vec![7u8; len];
            assert_eq!(cipher.encrypt(&data).len(), len);
        }
    }

    #[test]
    fn empty_plaintext_is_handled() {
        let cipher = ConvergentCipher::new();
        let c = cipher.encrypt(b"");
        assert!(c.is_empty());
        let key = cipher.derive_key(b"");
        assert!(cipher.decrypt(&key, &c).is_empty());
    }
}
