//! The workspace's one source of randomness.
//!
//! The whole workspace treats randomness as *data*: a master seed plus a
//! coordinate tuple deterministically names one independent 64-bit value,
//! so batch content, churn schedules, restore fans, outage schedules and
//! the temporal fleet schedule (think times, idle rounds, arrival jitter)
//! can all be derived up front, replayed bit-identically, and shared across
//! crates without any global RNG state. [`derive()`] is that naming: a
//! splitmix64 finalizer over a weighted sum of one to three coordinates.
//! Where a draw needs a sequence rather than one value (content bytes,
//! dictionary words, RTT jitter), a [`Stream`] — xoshiro256++ seeded
//! through [`derive()`] — supplies it.

/// The weight of each coordinate in [`derive()`]'s sum.
const WEIGHTS: [u64; 3] = [0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x94D049BB133111EB];

/// Derives an independent 64-bit seed from a master seed and one to three
/// coordinates: a splitmix64 finalizer over `master + Σ wᵢ·(cᵢ + 1)`.
/// Adjacent coordinates give statistically unrelated outputs; the same
/// inputs always give the same output.
#[inline]
pub const fn derive(master: u64, coords: &[u64]) -> u64 {
    let mut z = master;
    let mut i = 0;
    while i < coords.len() {
        z = z.wrapping_add(WEIGHTS[i].wrapping_mul(coords[i].wrapping_add(1)));
        i += 1;
    }
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// [`derive()`] over the three coordinates `(a, b, c)` — e.g. `(client,
/// round, file)` for batch content, or `(client, round, salt)` for
/// schedule draws.
#[inline]
pub fn derive_seed(master: u64, a: u64, b: u64, c: u64) -> u64 {
    derive(master, &[a, b, c])
}

/// Maps a derived seed onto the unit interval `[0, 1)` with 53 bits of
/// precision — the building block for activation draws and think-time
/// distribution sampling.
pub fn unit_f64(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic xoshiro256++ stream whose four state words are
/// `derive(seed, &[k])` for `k` in `0..4`. The words are four outputs of a
/// bijection at four distinct inputs, so they are never all zero.
#[derive(Debug, Clone)]
pub struct Stream {
    s: [u64; 4],
}

impl Stream {
    /// The stream named by `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Stream { s: [0, 1, 2, 3].map(|k| derive(seed, &[k])) }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw from `0..n`.
    #[inline]
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample an empty range");
        self.next_u64() % n
    }

    /// A draw from `[lo, hi)`; `lo` itself, with no draw taken, when the
    /// range is empty.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "invalid uniform range");
        if hi == lo {
            return lo;
        }
        let v = lo + (hi - lo) * unit_f64(self.next_u64());
        // Rounding may land on the excluded endpoint.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Fills `buf` with random bytes, eight per draw (little-endian); a
    /// partial last word takes one more draw's first bytes.
    pub(crate) fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = words.into_remainder();
        if !rest.is_empty() {
            let n = rest.len();
            rest.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_coordinate_sensitive() {
        assert_eq!(derive_seed(42, 1, 2, 3), derive_seed(42, 1, 2, 3));
        assert_ne!(derive_seed(42, 1, 2, 3), derive_seed(42, 1, 2, 4));
        assert_ne!(derive_seed(42, 1, 2, 3), derive_seed(42, 1, 3, 3));
        assert_ne!(derive_seed(42, 1, 2, 3), derive_seed(42, 2, 2, 3));
        assert_ne!(derive_seed(42, 1, 2, 3), derive_seed(43, 1, 2, 3));
    }

    #[test]
    fn unit_draws_live_in_the_half_open_interval() {
        for i in 0..1_000u64 {
            let u = unit_f64(derive_seed(7, i, 0, 0));
            assert!((0.0..1.0).contains(&u), "draw {i} out of range: {u}");
        }
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    /// The splitmix64 finalizer the derivations below were written with.
    fn finalize(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn fewer_coordinates_reproduce_the_formulas_they_replaced() {
        let cases = [0, 1, 7, 0x5017E, 1 << 40, u64::MAX - 1, u64::MAX];
        for &m in &cases {
            for &a in &cases {
                // `derive_seed`'s three-coordinate formula.
                let three = m
                    .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(a.wrapping_add(1)))
                    .wrapping_add(0xD1B54A32D192ED03u64.wrapping_mul(m.wrapping_add(1)))
                    .wrapping_add(0x94D049BB133111EBu64.wrapping_mul(3));
                assert_eq!(derive_seed(m, a, m, 2), finalize(three));
                // `Testbed::derived_seed(label, rep)` and the outage
                // schedule's `mix(seed, a, b)`: two weighted coordinates.
                for &b in &cases {
                    let two = m
                        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(a.wrapping_add(1)))
                        .wrapping_add(0xD1B54A32D192ED03u64.wrapping_mul(b.wrapping_add(1)));
                    assert_eq!(derive(m, &[a, b]), finalize(two));
                }
            }
            // The stub generator's seeding: word k of `seed_from_u64(m)`
            // after k + 1 golden-ratio steps.
            let mut x = m;
            for k in 0..4 {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                assert_eq!(Stream::new(m).s[k as usize], finalize(x));
                assert_eq!(derive(m, &[k]), finalize(x));
            }
        }
        // The chunker's gear table: a golden-ratio walk started one step in.
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..256u64 {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            assert_eq!(derive(0, &[i + 1]), finalize(x));
        }
    }

    #[test]
    fn the_stream_is_the_vendored_generators_stream() {
        let firsts = |seed| {
            let mut s = Stream::new(seed);
            [(); 8].map(|_| s.next_u64())
        };
        assert_eq!(
            firsts(0),
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
                0x7eca04ebaf4a5eea,
                0x0543c37757f08d9a,
                0xdb7490c75ab5026e,
                0xd87343e6464bc959
            ]
        );
        assert_eq!(
            firsts(7),
            [
                0x0e2c1a002aae913d,
                0x2c0fc8ddfa4e9e14,
                0xb7b311b3b0d45872,
                0x6d5d9f6a6318013c,
                0xf6b263f2f5790376,
                0x77385b627c22c489,
                0xb951f9b3621ea380,
                0x54705b5adc01e528
            ]
        );
        assert_eq!(
            firsts(u64::MAX),
            [
                0x56ccf8ce948e27b2,
                0xe68588432e5a5b90,
                0xe3e9b5a48119ca8b,
                0x460f19495532ae73,
                0xa7d62040ea9263e1,
                0x66f1fb2ac9402c14,
                0xe243b47de8a73f68,
                0x7c93fdab4c7b3dff
            ]
        );

        let mut bytes = [0u8; 13];
        Stream::new(7).fill_bytes(&mut bytes);
        assert_eq!(bytes, [61, 145, 174, 42, 0, 26, 44, 14, 20, 158, 78, 250, 221]);

        let mut s = Stream::new(7);
        assert_eq!([(); 8].map(|_| s.below(10)), [1, 6, 8, 6, 2, 5, 8, 2]);

        let mut s = Stream::new(7);
        let mut draws = Vec::new();
        for _ in 0..4 {
            draws.push(s.uniform(1.0, 1.35).to_bits());
            assert_eq!(s.uniform(4.0, 4.0), 4.0, "an empty range takes no draw");
        }
        assert_eq!(
            draws,
            [0x3ff04f5d5e67556b, 0x3ff0f6becb4179b8, 0x3ff404b79654ab0c, 0x3ff26472afed5e20]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Stream::new(7);
        let mut b = Stream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Stream::new(1);
        let mut b = Stream::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut s = Stream::new(3);
        for _ in 0..1000 {
            let v = s.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
        assert_eq!(s.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted_range() {
        let _ = Stream::new(1).uniform(5.0, 2.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Stream::new(7);
        let mut b = Stream::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Stream::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut s = Stream::new(1);
        for _ in 0..10_000 {
            let v = 3 + s.below(14);
            assert!((3..17).contains(&v));
            assert_eq!(5 + s.below(1), 5);
            let f = s.uniform(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_produces_non_trivial_data() {
        let mut buf = [0u8; 256];
        Stream::new(13).fill_bytes(&mut buf);
        let distinct: std::collections::HashSet<u8> = buf.iter().copied().collect();
        assert!(distinct.len() > 50);
    }
}
