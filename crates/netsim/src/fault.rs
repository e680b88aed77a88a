//! Seeded link-outage schedules for fault-injected transfers.
//!
//! The paper's measurements ran over real access links where transfers
//! stall and drop mid-flight; this module gives the simulator the same
//! failure surface without giving up reproducibility. A [`FaultSchedule`]
//! is *data*: a pure function of `(FaultSpec, seed)` — no wall clock, no
//! shared RNG state — exactly like the temporal fleet schedule. The TCP
//! layer consults it during a transfer and returns a typed
//! [`crate::tcp::TransferInterrupted`] when an outage window cuts the link
//! mid-flight, so two runs with the same spec and seed interrupt the same
//! byte of the same transfer at the same virtual instant regardless of
//! thread timing.

use cloudsim_trace::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Mixes a master seed and a coordinate pair into an independent 64-bit
/// draw — the same splitmix64 finalizer family as [`crate::rng::SimRng::derive`],
/// kept local so schedule generation needs no RNG object at all.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(a.wrapping_add(1)))
        .wrapping_add(0xD1B54A32D192ED03u64.wrapping_mul(b.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How outages are drawn over one window of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The window of virtual time the outages are drawn in, measured from
    /// the schedule's anchor (a transfer window, a sync round, …).
    pub horizon: SimDuration,
    /// How many outages to draw inside the horizon (overlapping draws are
    /// merged, so the realised count can be lower).
    pub outages: usize,
    /// Shortest possible outage.
    pub min_outage: SimDuration,
    /// Longest possible outage.
    pub max_outage: SimDuration,
}

impl FaultSpec {
    /// Panics unless the spec is generable: a positive horizon and an
    /// ordered outage-duration range.
    pub fn validate(&self) {
        assert!(!self.horizon.is_zero(), "fault horizon must be positive");
        assert!(self.max_outage >= self.min_outage, "outage range needs min <= max");
    }
}

/// One contiguous interval during which the link is down. Packets cannot be
/// sent or received inside `[down_at, up_at)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// The instant the link goes down.
    pub down_at: SimTime,
    /// The instant the link comes back up.
    pub up_at: SimTime,
}

impl OutageWindow {
    /// True while the link is down.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.down_at && t < self.up_at
    }

    /// How long the outage lasts.
    pub fn duration(&self) -> SimDuration {
        self.up_at.saturating_since(self.down_at)
    }
}

/// A seeded schedule of link outages: sorted, non-overlapping windows of
/// virtual time. Generated once up front (pure data) and replayed by the
/// TCP layer; an empty schedule leaves every transfer bit-identical to the
/// fault-free simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultSchedule {
    /// Outage windows sorted by [`OutageWindow::down_at`], non-overlapping.
    pub windows: Vec<OutageWindow>,
}

impl FaultSchedule {
    /// A schedule with no outages: transfers run exactly as without faults.
    pub const NONE: FaultSchedule = FaultSchedule { windows: Vec::new() };

    /// Generates the schedule: a pure function of `(spec, seed)`. Each
    /// outage `i` draws its start uniformly in the horizon and its duration
    /// uniformly in `[min_outage, max_outage]` from independent seeded
    /// streams; overlapping draws merge into one longer window.
    pub fn generate(spec: &FaultSpec, seed: u64) -> FaultSchedule {
        spec.validate();
        let horizon = spec.horizon.as_micros();
        let span = spec.max_outage.as_micros() - spec.min_outage.as_micros();
        let mut windows: Vec<OutageWindow> = (0..spec.outages)
            .map(|i| {
                let down = mix(seed, i as u64, 0) % horizon;
                let dur = spec.min_outage.as_micros() + mix(seed, i as u64, 1) % (span + 1);
                OutageWindow {
                    down_at: SimTime::from_micros(down),
                    up_at: SimTime::from_micros(down + dur.max(1)),
                }
            })
            .collect();
        windows.sort_by_key(|w| (w.down_at, w.up_at));
        let mut merged: Vec<OutageWindow> = Vec::with_capacity(windows.len());
        for w in windows {
            match merged.last_mut() {
                Some(last) if w.down_at <= last.up_at => {
                    last.up_at = last.up_at.max(w.up_at);
                }
                _ => merged.push(w),
            }
        }
        FaultSchedule { windows: merged }
    }

    /// True when the schedule has no outages at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// True while the link is down at `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.windows.iter().any(|w| w.contains(t))
    }

    /// The first instant at or after `t` at which the link is (or goes)
    /// down, or `None` when no outage lies at or beyond `t`.
    pub fn first_cut_at_or_after(&self, t: SimTime) -> Option<SimTime> {
        self.windows.iter().find(|w| w.up_at > t).map(|w| w.down_at.max(t))
    }

    /// The schedule shifted `by` later in virtual time — how a relative
    /// schedule (windows drawn from an anchor of zero) is pinned onto an
    /// absolute transfer-window start.
    pub fn shifted(&self, by: SimDuration) -> FaultSchedule {
        FaultSchedule {
            windows: self
                .windows
                .iter()
                .map(|w| OutageWindow { down_at: w.down_at + by, up_at: w.up_at + by })
                .collect(),
        }
    }

    /// Total virtual time the link spends down.
    pub fn total_downtime(&self) -> SimDuration {
        self.windows.iter().fold(SimDuration::ZERO, |acc, w| acc + w.duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            horizon: SimDuration::from_secs(120),
            outages: 3,
            min_outage: SimDuration::from_secs(2),
            max_outage: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_spec_and_seed() {
        let a = FaultSchedule::generate(&spec(), 7);
        let b = FaultSchedule::generate(&spec(), 7);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::generate(&spec(), 8));
        assert!(!a.is_empty());
        assert!(a.windows.len() <= 3);
    }

    #[test]
    fn windows_are_sorted_merged_and_inside_the_horizon() {
        for seed in 0..200u64 {
            let s = FaultSchedule::generate(&spec(), seed);
            for pair in s.windows.windows(2) {
                assert!(pair[0].up_at < pair[1].down_at, "seed {seed}: windows overlap or touch");
            }
            for w in &s.windows {
                assert!(w.up_at > w.down_at);
                assert!(w.down_at < SimTime::from_secs(120));
                assert!(w.duration() >= SimDuration::from_secs(2));
            }
        }
    }

    #[test]
    fn queries_agree_with_the_window_list() {
        let s = FaultSchedule::generate(&spec(), 42);
        let w = s.windows[0];
        assert!(s.is_down(w.down_at));
        assert!(!s.is_down(w.up_at));
        assert_eq!(s.first_cut_at_or_after(SimTime::ZERO), Some(w.down_at.max(SimTime::ZERO)));
        // Inside a window the cut is "now"; after every window there is none.
        assert_eq!(s.first_cut_at_or_after(w.down_at), Some(w.down_at));
        let last = *s.windows.last().unwrap();
        assert_eq!(s.first_cut_at_or_after(last.up_at + SimDuration::from_secs(1)), None);
    }

    #[test]
    fn shifting_moves_every_window_by_the_offset() {
        let s = FaultSchedule::generate(&spec(), 9);
        let by = SimDuration::from_secs(1000);
        let shifted = s.shifted(by);
        assert_eq!(shifted.windows.len(), s.windows.len());
        for (a, b) in s.windows.iter().zip(&shifted.windows) {
            assert_eq!(b.down_at, a.down_at + by);
            assert_eq!(b.duration(), a.duration());
        }
        assert_eq!(shifted.total_downtime(), s.total_downtime());
    }

    #[test]
    fn the_empty_schedule_never_cuts() {
        let s = FaultSchedule::NONE;
        assert!(s.is_empty());
        assert!(!s.is_down(SimTime::from_secs(5)));
        assert_eq!(s.first_cut_at_or_after(SimTime::ZERO), None);
        assert_eq!(s.total_downtime(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "fault horizon must be positive")]
    fn zero_horizon_is_rejected() {
        let bad = FaultSpec { horizon: SimDuration::ZERO, ..spec() };
        let _ = FaultSchedule::generate(&bad, 1);
    }
}
