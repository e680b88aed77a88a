//! Small time-series helpers used when rendering the paper's figures.
//!
//! Figures 1 and 3 plot *cumulative* quantities (bytes, TCP SYNs) against
//! time. [`CumulativeSeries`] builds such step series from `(time, value)`
//! events.

use crate::hist::LatencyHistogram;
use crate::time::SimTime;

/// A cumulative step series: at each event time the running total increases.
///
/// Stored as columnar struct-of-arrays buffers (a time column and a
/// running-total column) rather than a `Vec<(SimTime, f64)>` of tuples, so
/// figure rendering walks two dense, cache-friendly columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CumulativeSeries {
    /// Event times, sorted ascending (duplicates allowed).
    times: Vec<SimTime>,
    /// Running total after the event at the same index.
    totals: Vec<f64>,
}

impl CumulativeSeries {
    /// Creates an empty series.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        CumulativeSeries::default()
    }

    /// Builds a cumulative series from raw `(time, increment)` events.
    ///
    /// Events do not need to be sorted, but the common case — events drained
    /// from a heap-ordered run — already is, so the O(n log n) sort only runs
    /// when a linear sortedness scan says the input actually needs it.
    pub fn from_events<I: IntoIterator<Item = (SimTime, f64)>>(events: I) -> Self {
        let mut evs: Vec<(SimTime, f64)> = events.into_iter().collect();
        if !evs.is_sorted_by_key(|(t, _)| *t) {
            evs.sort_by_key(|(t, _)| *t);
        }
        let mut times = Vec::with_capacity(evs.len());
        let mut totals = Vec::with_capacity(evs.len());
        let mut total = 0.0;
        for (t, inc) in evs {
            total += inc;
            times.push(t);
            totals.push(total);
        }
        CumulativeSeries { times, totals }
    }

    /// Number of events in the series.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the series has no events.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates the `(time, running total)` points in time order.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.totals.iter().copied())
    }

    /// Final running total (0 for an empty series).
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.totals.last().copied().unwrap_or(0.0)
    }
}

/// The concurrency high-water mark of a set of half-open virtual-time
/// intervals `[start, end)`: the most intervals overlapping at any instant.
///
/// The temporal fleet scheduler uses this over per-sync
/// `[sync_started_at, completed_at)` intervals to report how far arrival
/// jitter and idle rounds spread a round's load compared to the lock-step
/// barrier (where the peak equals the fleet size). Zero-length and inverted
/// intervals contribute nothing; an empty set peaks at 0.
pub fn concurrency_peak(intervals: &[(SimTime, SimTime)]) -> usize {
    let mut starts = Vec::with_capacity(intervals.len());
    let mut ends = Vec::with_capacity(intervals.len());
    for &(start, end) in intervals.iter().filter(|(start, end)| end > start) {
        starts.push(start);
        ends.push(end);
    }
    starts.sort_unstable();
    ends.sort_unstable();
    // One merge walk over the two columns. An end at instant `t` retires
    // before a start at `t`: [a, t) and [t, b) never overlap. Every start
    // has a later end, so `retired` stays inside `ends`.
    let mut retired = 0;
    let mut peak = 0;
    for (earlier, &start) in starts.iter().enumerate() {
        while ends[retired] <= start {
            retired += 1;
        }
        peak = peak.max(earlier + 1 - retired);
    }
    peak
}

/// The span an interval log covers: its earliest start and its latest end
/// (both [`SimTime::ZERO`] for an empty log).
pub fn interval_span(intervals: &[(SimTime, SimTime)]) -> (SimTime, SimTime) {
    let first = intervals.iter().map(|&(start, _)| start).min().unwrap_or(SimTime::ZERO);
    let last = intervals.iter().map(|&(_, end)| end).max().unwrap_or(SimTime::ZERO);
    (first, last)
}

/// Distribution of the intervals' durations. The histogram's buckets are
/// fixed, so the logs of a split population merge elementwise into the
/// histogram of the whole.
pub fn duration_histogram(intervals: &[(SimTime, SimTime)]) -> LatencyHistogram {
    intervals.iter().map(|&(start, end)| end - start).collect()
}

/// Intervals counted by start instant into `buckets` equal slices of the
/// `span_s` seconds that begin at `first`; with no span to slice, all of
/// them land in the first bucket. The buckets sum to `intervals.len()`, and
/// the curves of a split population over one `(first, span_s)` sum
/// elementwise to the curve of the whole.
pub fn start_curve(
    intervals: &[(SimTime, SimTime)],
    first: SimTime,
    span_s: f64,
    buckets: usize,
) -> Vec<u64> {
    assert!(buckets > 0, "need at least one bucket");
    let mut curve = vec![0u64; buckets];
    if span_s <= 0.0 {
        curve[0] = intervals.len() as u64;
        return curve;
    }
    for &(start, _) in intervals {
        let frac = (start - first).as_secs_f64() / span_s;
        let b = ((frac * buckets as f64) as usize).min(buckets - 1);
        curve[b] += 1;
    }
    curve
}

/// Simple descriptive statistics over repeated measurements (the paper repeats
/// each experiment 24 times and reports averages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl SampleStats {
    /// The all-zero statistics of an empty sample set — the conventional
    /// fallback where an absent distribution should render as zeroes rather
    /// than NaNs.
    pub const fn zero() -> SampleStats {
        SampleStats { count: 0, mean: 0.0, min: 0.0, max: 0.0, std_dev: 0.0 }
    }

    /// Computes statistics over a slice of samples. Returns `None` for an
    /// empty slice.
    pub fn from_samples(samples: &[f64]) -> Option<SampleStats> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        Some(SampleStats { count, mean, min, max, std_dev: var.sqrt() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_series_accumulates_in_time_order() {
        let s = CumulativeSeries::from_events(vec![
            (SimTime::from_secs(3), 5.0),
            (SimTime::from_secs(1), 10.0),
            (SimTime::from_secs(2), 2.0),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.total(), 17.0);
        let points: Vec<(SimTime, f64)> = s.points().collect();
        assert_eq!(points[0], (SimTime::from_secs(1), 10.0));
        assert_eq!(points[2], (SimTime::from_secs(3), 17.0));
        // The columns stay aligned and the time column is sorted.
        assert_eq!(s.times.len(), s.totals.len());
        assert!(s.times.is_sorted());
    }

    #[test]
    fn presorted_events_skip_the_sort_and_match_the_sorted_path() {
        let unsorted = vec![
            (SimTime::from_secs(3), 5.0),
            (SimTime::from_secs(1), 10.0),
            (SimTime::from_secs(2), 2.0),
            (SimTime::from_secs(2), 4.0),
        ];
        let mut presorted = unsorted.clone();
        presorted.sort_by_key(|(t, _)| *t);
        let fast = CumulativeSeries::from_events(presorted.clone());
        let slow = CumulativeSeries::from_events(unsorted);
        assert_eq!(fast, slow, "sorted fast path must build the identical series");
        assert_eq!(fast.total(), 21.0);
        // A single-event and an empty input are trivially sorted.
        assert_eq!(CumulativeSeries::from_events(vec![(SimTime::from_secs(1), 1.0)]).total(), 1.0);
        assert!(CumulativeSeries::from_events(Vec::new()).is_empty());
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = CumulativeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.total(), 0.0);
    }

    #[test]
    fn concurrency_peak_counts_maximal_overlap() {
        let s = SimTime::from_secs;
        // Three intervals, two of which overlap.
        assert_eq!(concurrency_peak(&[(s(0), s(10)), (s(5), s(15)), (s(20), s(30))]), 2);
        // Lock-step: identical intervals all overlap.
        assert_eq!(concurrency_peak(&[(s(0), s(5)); 4]), 4);
        // Touching endpoints do not overlap (half-open intervals).
        assert_eq!(concurrency_peak(&[(s(0), s(5)), (s(5), s(10))]), 1);
        // Degenerate inputs.
        assert_eq!(concurrency_peak(&[]), 0);
        assert_eq!(concurrency_peak(&[(s(3), s(3))]), 0, "zero-length intervals are empty");
        assert_eq!(concurrency_peak(&[(s(5), s(3))]), 0, "inverted intervals are ignored");
        // Nested intervals stack.
        assert_eq!(
            concurrency_peak(&[(s(0), s(100)), (s(10), s(20)), (s(12), s(18)), (s(50), s(60))]),
            3
        );
    }

    #[test]
    fn interval_log_summaries_handle_the_edges() {
        let s = SimTime::from_secs;
        let log = [(s(4), s(6)), (s(2), s(3)), (s(12), s(12))];
        assert_eq!(interval_span(&log), (s(2), s(12)));
        assert_eq!(interval_span(&[]), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!(duration_histogram(&log).count(), 3);
        // Ten seconds from t = 2 in five slices; the start at the span's
        // last instant lands in the last bucket, not past it.
        assert_eq!(start_curve(&log, s(2), 10.0, 5), vec![1, 1, 0, 0, 1]);
        // Two parts over the whole's span sum to the whole's curve.
        let (a, b) = log.split_at(1);
        assert_eq!(start_curve(a, s(2), 10.0, 5), vec![0, 1, 0, 0, 0]);
        assert_eq!(start_curve(b, s(2), 10.0, 5), vec![1, 0, 0, 0, 1]);
        // No span to slice: everything starts in the first bucket.
        assert_eq!(start_curve(&log, s(2), 0.0, 3), vec![3, 0, 0]);
        assert_eq!(start_curve(&[], SimTime::ZERO, 0.0, 3), vec![0, 0, 0]);
    }

    /// The definition [`concurrency_peak`] is checked against: one stable
    /// sort of `(instant, ±1)` pairs, ends before starts, and the running
    /// sum's maximum.
    fn concurrency_peak_reference(intervals: &[(SimTime, SimTime)]) -> usize {
        let mut events: Vec<(SimTime, i32)> = Vec::with_capacity(intervals.len() * 2);
        for &(start, end) in intervals {
            if end > start {
                events.push((start, 1));
                events.push((end, -1));
            }
        }
        events.sort_by_key(|&(t, delta)| (t, delta));
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            live += delta as i64;
            peak = peak.max(live);
        }
        peak as usize
    }

    proptest::proptest! {
        /// Instants from a range of six, so that empty, zero-length,
        /// inverted, touching and duplicate intervals all turn up often.
        #[test]
        fn concurrency_peak_is_the_sorted_pairs_definition(
            words in proptest::collection::vec(0u64..36, 0..40),
        ) {
            let intervals: Vec<(SimTime, SimTime)> = words
                .iter()
                .map(|word| (SimTime::from_secs(word / 6), SimTime::from_secs(word % 6)))
                .collect();
            proptest::prop_assert_eq!(
                concurrency_peak(&intervals),
                concurrency_peak_reference(&intervals)
            );
        }
    }

    #[test]
    fn sample_stats_basic_properties() {
        let stats = SampleStats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(stats.count, 8);
        assert!((stats.mean - 5.0).abs() < 1e-12);
        assert_eq!(stats.min, 2.0);
        assert_eq!(stats.max, 9.0);
        assert!((stats.std_dev - 2.0).abs() < 1e-12);
        assert!(SampleStats::from_samples(&[]).is_none());
        let single = SampleStats::from_samples(&[3.5]).unwrap();
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.std_dev, 0.0);
    }
}
