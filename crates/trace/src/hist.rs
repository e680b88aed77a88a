//! Log-bucketed latency histograms with fixed, merge-stable bucket
//! boundaries.
//!
//! The paper's headline results are *distributions* — sync start-up and
//! completion times per service and per link (Fig. 6a/6b) — so the harness
//! needs more than means. [`LatencyHistogram`] records microsecond durations
//! into a log-linear bucket grid in the HDR-histogram style: 32 one-µs
//! buckets below 32 µs, then 32 sub-buckets per power-of-two octave up to
//! 2^42 µs (~51 virtual days), everything above saturating into the top
//! bucket. The boundaries are compile-time constants, never adapted to the
//! data, so:
//!
//! * recording is a pure function of the value — no rescaling, no state,
//! * merging per-worker histograms is element-wise `u64` addition, which is
//!   commutative and associative: any merge order yields bit-identical
//!   counts, exactly what the deterministic parallel harness requires,
//! * quantiles resolve to a bucket *lower bound*, so `p50/p90/p99/p999` are
//!   reproducible to the bit across reruns and worker counts, with relative
//!   error bounded by the sub-bucket width (≤ 1/32 ≈ 3.1%).
//!
//! An empty histogram has well-defined quantiles (zero) — no `NaN` can ever
//! reach the benchmark gate.

use crate::time::SimDuration;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BUCKET_BITS` equal slices.
pub(crate) const SUB_BUCKET_BITS: u32 = 5;

/// Sub-buckets per octave (32).
const SUB: usize = 1 << SUB_BUCKET_BITS;

/// One-microsecond linear buckets covering `0..32` µs, below the first
/// octave.
const LINEAR: usize = SUB;

/// Exponent of the first octave: values in `[2^5, 2^6)` µs.
const FIRST_EXP: u32 = SUB_BUCKET_BITS;

/// Exponent of the last octave: values in `[2^41, 2^42)` µs.
const LAST_EXP: u32 = 41;

/// Total bucket count: 32 linear + 37 octaves × 32 sub-buckets = 1216.
pub(crate) const BUCKET_COUNT: usize = LINEAR + (LAST_EXP - FIRST_EXP + 1) as usize * SUB;

/// Smallest duration (µs) that saturates into the top bucket: 2^42 µs.
pub(crate) const SATURATION_MICROS: u64 = 1 << (LAST_EXP + 1);

/// Maps a microsecond value to its bucket index. Total over all `u64`
/// values; everything at or above [`SATURATION_MICROS`] lands in the top
/// bucket.
fn bucket_index(micros: u64) -> usize {
    if micros < LINEAR as u64 {
        return micros as usize;
    }
    let v = micros.min(SATURATION_MICROS - 1);
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BUCKET_BITS)) as usize & (SUB - 1);
    LINEAR + (exp - FIRST_EXP) as usize * SUB + sub
}

/// Inclusive lower bound (µs) of a bucket — the canonical value a quantile
/// query reports for samples that landed in it.
fn bucket_lower_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index < LINEAR + SUB {
        // Linear region and the first octave both have 1 µs buckets whose
        // lower bound equals the index itself.
        return index as u64;
    }
    let octave = (index - LINEAR) / SUB;
    let sub = (index - LINEAR) % SUB;
    ((SUB + sub) as u64) << octave
}

/// A latency histogram over fixed log-linear bucket boundaries.
///
/// `record` durations, `merge` per-worker instances in any order, then read
/// quantiles with `LatencyHistogram::percentile` or export a
/// [`HistogramSummary`] for reports and gate metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKET_COUNT], count: 0 }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.record_micros(d.as_micros());
    }

    /// Records one raw microsecond value.
    pub(crate) fn record_micros(&mut self, micros: u64) {
        self.counts[bucket_index(micros)] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every count of `other` into `self`. Element-wise `u64`
    /// addition: commutative and associative, so any merge order over a set
    /// of histograms produces bit-identical state.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the sample of rank `ceil(q · count)`.
    ///
    /// An empty histogram reports [`SimDuration::ZERO`] — quantiles are
    /// always defined, never `NaN`.
    pub(crate) fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_micros(bucket_lower_bound(idx));
            }
        }
        // Unreachable: the loop covers every recorded sample.
        SimDuration::from_micros(bucket_lower_bound(BUCKET_COUNT - 1))
    }

    /// Snapshot of the canonical report quantiles, in seconds.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50_s: self.percentile(0.50).as_secs_f64(),
            p90_s: self.percentile(0.90).as_secs_f64(),
            p99_s: self.percentile(0.99).as_secs_f64(),
            p999_s: self.percentile(0.999).as_secs_f64(),
        }
    }
}

impl FromIterator<SimDuration> for LatencyHistogram {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        let mut hist = LatencyHistogram::new();
        for d in iter {
            hist.record(d);
        }
        hist
    }
}

/// The quantiles a suite report and the `hist.*` gate metrics carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples behind the quantiles.
    pub count: u64,
    /// Median, in seconds.
    pub p50_s: f64,
    /// 90th percentile, in seconds.
    pub p90_s: f64,
    /// 99th percentile, in seconds.
    pub p99_s: f64,
    /// 99.9th percentile, in seconds.
    pub p999_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_has_defined_quantiles() {
        let hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.percentile(0.5), SimDuration::ZERO);
        assert_eq!(hist.percentile(0.999), SimDuration::ZERO);
        let summary = hist.summary();
        assert_eq!(summary.count, 0);
        for q in [summary.p50_s, summary.p90_s, summary.p99_s, summary.p999_s] {
            assert!(q.is_finite(), "empty-histogram quantiles must never be NaN");
            assert_eq!(q.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut hist = LatencyHistogram::new();
        hist.record(SimDuration::from_micros(17));
        assert_eq!(hist.count(), 1);
        // 17 µs sits in the linear region: the bucket is exact.
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(hist.percentile(q), SimDuration::from_micros(17));
        }
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        let mut hist = LatencyHistogram::new();
        hist.record_micros(SATURATION_MICROS);
        hist.record_micros(u64::MAX);
        assert_eq!(hist.counts[BUCKET_COUNT - 1], 2);
        let top = bucket_lower_bound(BUCKET_COUNT - 1);
        assert_eq!(hist.percentile(0.5).as_micros(), top);
        assert!(top < SATURATION_MICROS);
    }

    #[test]
    fn bucket_grid_is_monotone_and_tight() {
        let mut prev = None;
        for idx in 0..BUCKET_COUNT {
            let lo = bucket_lower_bound(idx);
            if let Some(p) = prev {
                assert!(lo > p, "bucket {idx} lower bound must increase");
            }
            assert_eq!(bucket_index(lo), idx, "lower bound must map back to its bucket");
            prev = Some(lo);
        }
        assert_eq!(bucket_index(SATURATION_MICROS - 1), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut hist = LatencyHistogram::new();
        for us in 1..=1000u64 {
            hist.record_micros(us * 1000); // 1ms..1s
        }
        let p50 = hist.percentile(0.5);
        let p99 = hist.percentile(0.99);
        assert!(p50 < p99);
        // Bucket lower bounds under-report by at most one sub-bucket width.
        let true_p50 = 500_000.0;
        let got = p50.as_micros() as f64;
        assert!(got <= true_p50 && got >= true_p50 * (1.0 - 1.0 / 32.0) - 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reported_quantile_never_exceeds_the_sample(v in 0u64..(1u64 << 43)) {
            let mut hist = LatencyHistogram::new();
            hist.record_micros(v);
            let lo = hist.percentile(1.0).as_micros();
            let capped = v.min(SATURATION_MICROS - 1);
            prop_assert!(lo <= capped);
            // Relative error is bounded by the sub-bucket width.
            prop_assert!((capped - lo) as f64 <= lo as f64 / 32.0 + 1.0);
        }

        #[test]
        fn merge_order_is_irrelevant_bit_for_bit(
            samples in proptest::collection::vec(0u64..(1u64 << 44), 0..200),
            workers in 1usize..8,
        ) {
            // Sequential accumulation into one histogram...
            let mut sequential = LatencyHistogram::new();
            for &s in &samples {
                sequential.record_micros(s);
            }
            // ...vs per-worker shards merged in forward and reverse order.
            let shards: Vec<LatencyHistogram> = (0..workers)
                .map(|w| {
                    let mut h = LatencyHistogram::new();
                    for (i, &s) in samples.iter().enumerate() {
                        if i % workers == w {
                            h.record_micros(s);
                        }
                    }
                    h
                })
                .collect();
            let mut forward = LatencyHistogram::new();
            for shard in &shards {
                forward.merge(shard);
            }
            let mut reverse = LatencyHistogram::new();
            for shard in shards.iter().rev() {
                reverse.merge(shard);
            }
            prop_assert_eq!(&forward, &sequential);
            prop_assert_eq!(&reverse, &sequential);
            let (a, b) = (forward.summary(), sequential.summary());
            prop_assert_eq!(a.count, b.count);
            prop_assert_eq!(a.p50_s.to_bits(), b.p50_s.to_bits());
            prop_assert_eq!(a.p999_s.to_bits(), b.p999_s.to_bits());
        }
    }
}
