//! Virtual time base for the whole simulation workspace.
//!
//! All timestamps in the simulator and in captured traces are expressed as
//! [`SimTime`], a monotonically increasing count of microseconds since the
//! start of an experiment. Durations are expressed as [`SimDuration`].
//!
//! Microsecond resolution is sufficient: the finest-grained quantities in the
//! reproduced paper are packet inter-arrival times on a 1 Gb/s link
//! (a 1500-byte frame lasts 12 µs).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in microseconds since experiment start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time (experiment start).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time stamp from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time stamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time stamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time stamp from fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microseconds since experiment start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since experiment start (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since experiment start (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two time stamps.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two time stamps.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True when the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration it takes to move `bytes` bytes over a link of `bits_per_sec`.
    ///
    /// Used pervasively by the flow-level TCP model; bandwidth of zero is a
    /// programming error and panics.
    pub fn for_transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        let bits = bytes as u128 * 8;
        let us = (bits * 1_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(us as u64)
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs >= 0.0, "cannot scale a duration by a negative factor");
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion_roundtrip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert!((SimTime::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duration_construction() {
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(10).as_micros(), 10_000);
        assert_eq!(SimDuration::from_secs_f64(0.000001).as_micros(), 1);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_micros(1).is_zero());
    }

    #[test]
    fn arithmetic_between_times_and_durations() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!(SimTime::from_secs(13) - t, SimDuration::from_secs(3));
        // Subtraction saturates rather than panicking or wrapping.
        assert_eq!(SimTime::from_secs(1) - SimDuration::from_secs(5), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(5), SimDuration::ZERO);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = SimTime::from_secs(1);
        t += SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);

        let mut d = SimDuration::from_secs(2);
        d += SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(3));
        d -= SimDuration::from_secs(5);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3u64, SimDuration::from_millis(30));
        assert_eq!(d * 0.5f64, SimDuration::from_millis(5));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(SimDuration::from_secs(1).saturating_mul(u64::MAX).as_micros(), u64::MAX);
    }

    #[test]
    fn transmission_time_on_known_links() {
        // 1500 bytes over 1 Gb/s = 12 us.
        assert_eq!(SimDuration::for_transmission(1500, 1_000_000_000).as_micros(), 12);
        // 1 MB over 8 Mb/s = 1 s.
        assert_eq!(SimDuration::for_transmission(1_000_000, 8_000_000), SimDuration::from_secs(1));
        // Rounds up to the next microsecond.
        assert_eq!(SimDuration::for_transmission(1, 1_000_000_000).as_micros(), 1);
        // Zero bytes take zero time.
        assert_eq!(SimDuration::for_transmission(0, 10), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transmission_with_zero_bandwidth_panics() {
        let _ = SimDuration::for_transmission(10, 0);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1).max(SimDuration::from_secs(2)),
            SimDuration::from_secs(2)
        );
        assert_eq!(
            SimDuration::from_secs(1).min(SimDuration::from_secs(2)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }
}
