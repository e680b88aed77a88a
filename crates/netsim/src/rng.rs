//! Deterministic random number generation.
//!
//! Every source of randomness in the simulator (RTT jitter, server think-time
//! variation, workload content) flows through [`SimRng`], a thin wrapper over
//! a seeded [`rand::rngs::StdRng`]. Running the same experiment with the same
//! seed reproduces the exact same trace, which the test-suite relies on; the
//! 24 repetitions of each benchmark use 24 derived seeds.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded random number generator used across the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed), seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a sub-experiment (e.g. repetition
    /// `i` of a benchmark). Derivations with different labels are independent.
    pub fn derive(&self, label: u64) -> SimRng {
        // SplitMix64-style mixing keeps derived streams decorrelated.
        let mut z =
            self.seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(label.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Uniform sample in `[low, high)`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(high >= low, "invalid uniform range");
        if high == low {
            return low;
        }
        self.inner.gen_range(low..high)
    }

    /// Multiplicative jitter: returns `value * f` with `f` uniform in
    /// `[1 - spread, 1 + spread]`. Used for RTT and think-time variation.
    pub fn jitter(&mut self, value: f64, spread: f64) -> f64 {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
        let factor = self.uniform(1.0 - spread, 1.0 + spread);
        value * factor
    }

    /// A random boolean that is `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.inner.gen_bool(p)
    }

    /// Fills a byte buffer with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// A raw 64-bit random value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let root = SimRng::new(99);
        let mut d1a = root.derive(1);
        let mut d1b = root.derive(1);
        let mut d2 = root.derive(2);
        assert_eq!(d1a.next_u64(), d1b.next_u64());
        assert_ne!(root.derive(1).next_u64(), d2.next_u64());
        assert_eq!(root.seed(), 99);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
        assert_eq!(rng.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let v = rng.jitter(100.0, 0.2);
            assert!((80.0..=120.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..2000).filter(|_| rng.chance(0.25)).count();
        assert!(hits > 350 && hits < 650, "got {hits}");
    }

    #[test]
    fn fill_bytes_produces_non_trivial_data() {
        let mut rng = SimRng::new(13);
        let mut buf = [0u8; 256];
        rng.fill_bytes(&mut buf);
        let distinct: std::collections::HashSet<u8> = buf.iter().copied().collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted_range() {
        let mut rng = SimRng::new(1);
        let _ = rng.uniform(5.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "spread must be in [0, 1)")]
    fn jitter_rejects_bad_spread() {
        let mut rng = SimRng::new(1);
        let _ = rng.jitter(10.0, 1.5);
    }
}
