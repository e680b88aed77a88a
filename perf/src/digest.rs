//! A digest over a run's *simulated* outputs.
//!
//! Simulated statistics are not metrics of this benchmark, they are its
//! correctness check: a change that only makes the simulator faster must
//! leave every one of them bit-identical. Each workload folds its outputs
//! into one of these (floats by `to_bits`, so `-0.0`, NaN payloads and the
//! last ulp all count) and the harness compares the result across
//! iterations and against the value committed for the default seed.

/// FNV-1a, 64 bit. Not a security hash: it detects change, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, value: u64) -> &mut Digest {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, value: f64) -> &mut Digest {
        self.u64(value.to_bits())
    }

    /// Folds a string in, length first so adjacent strings cannot run
    /// together.
    pub fn str(&mut self, value: &str) -> &mut Digest {
        self.u64(value.len() as u64).bytes(value.as_bytes())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_compared_bit_for_bit() {
        let of = |x: f64| Digest::new().f64(x).value();
        assert_eq!(of(1.5), of(1.5));
        assert_ne!(of(0.0), of(-0.0));
        assert_ne!(of(1.0), of(1.0 + f64::EPSILON));
    }

    #[test]
    fn strings_do_not_run_together() {
        let ab = Digest::new().str("ab").str("c").value();
        let a = Digest::new().str("a").str("bc").value();
        assert_ne!(ab, a);
        // The published FNV-1a test vector for "a".
        assert_eq!(Digest::new().bytes(b"a").value(), 0xAF63_DC4C_8601_EC8C);
    }
}
