//! Order statistics over a handful of samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is the rule the acceptance check of the
//! benchmark applies to the run-to-run spread; using another rule here
//! would make `perf aa` disagree with it on small samples.

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&sorted);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_share(&self) -> f64 {
        share(self.q3 - self.q1, self.median)
    }

    /// Full range as a share of the median.
    pub fn range_share(&self) -> f64 {
        share(self.max - self.min, self.median)
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        (part / whole).abs()
    }
}

/// Median of `samples`; panics on an empty slice (a harness bug, never an
/// input).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).expect("median of no samples").median
}

/// `[q1, median, q3]` of an ascending slice, exclusive method: the `i`-th
/// cut sits at position `i·(n+1)/4` (1-based) with linear interpolation,
/// clamped to the ends. One sample is its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_shares_are_relative_to_the_median() {
        let s = Summary::of(&[9.0, 10.0, 11.0, 10.0, 10.0]).unwrap();
        assert_eq!(s.median, 10.0);
        assert!((s.range_share() - 0.2).abs() < 1e-12);
        assert!(s.iqr_share() <= s.range_share());
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().iqr_share(), 0.0);
    }
}
