//! Retry policies for fault-injected transfers.
//!
//! When a link outage kills a transfer mid-flight (a
//! [`cloudsim_net::TransferInterrupted`]), the session layer asks the run's
//! [`RetryConfig`] whether — and after how long a backoff — the
//! uncommitted tail is re-driven. Backoff waits are *virtual-clock* time:
//! they advance the client's simulated timeline exactly like think-time
//! pauses do, so retry storms and think-time scheduling interact the way
//! they would on a real client.
//!
//! Determinism contract: a policy is pure. The jitter a backoff applies
//! comes from a seeded 64-bit `draw` the *caller* derives (per client, per
//! chunk, per attempt), never from shared RNG state — two runs with the
//! same seeds back off for identical virtual durations.

use cloudsim_net::FaultSchedule;
use cloudsim_trace::SimDuration;
use cloudsim_workload::seed::{derive_seed, unit_f64};

/// Everything a storage transfer needs to survive outages, carried as one
/// value: the outage schedule it runs under, the policy that grants its
/// retries, and the seed of the per-(unit, attempt) jitter draws — same
/// seed, same schedule, same virtual timeline.
pub struct Recovery<'a> {
    /// The link outages the transfer runs under.
    pub faults: &'a FaultSchedule,
    /// Decides whether, and after how long, an interrupted unit is retried.
    pub policy: RetryConfig,
    /// Seed of the backoff jitter draws.
    pub seed: u64,
}

impl Recovery<'static> {
    /// No outages, hence nothing to recover from: what a fault-free
    /// transfer runs under. The policy and seed are never consulted.
    pub(crate) const NONE: Recovery<'static> =
        Recovery { faults: &FaultSchedule::NONE, policy: RetryConfig::None, seed: 0 };
}

impl Recovery<'_> {
    /// The policy's verdict on retry number `attempt` of transfer unit
    /// `unit` in the `salt` stream of draws: the backoff to sleep, or
    /// `None` to abandon.
    pub(crate) fn backoff(&self, salt: u64, unit: u64, attempt: u32) -> Option<SimDuration> {
        self.policy.backoff(attempt, derive_seed(self.seed, salt, unit, attempt as u64))
    }
}

/// Backoff before the first retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);
/// Upper bound any single backoff is clamped to.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);
/// Jitter half-width: each wait is scaled by a seeded factor in
/// `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`.
const BACKOFF_JITTER: f64 = 0.3;

/// A retry policy, as a fleet spec carries it and a transfer consults it.
///
/// ```
/// use cloudsim_services::retry::RetryConfig;
///
/// let policy = RetryConfig::standard_exponential();
/// let wait = policy.backoff(1, 42).expect("the standard budget allows a first retry");
/// // Pure: the same (attempt, draw) pair always waits the same time.
/// assert_eq!(policy.backoff(1, 42), Some(wait));
/// // The control policy and an exhausted budget both abandon immediately.
/// assert_eq!(RetryConfig::None.backoff(1, 42), None);
/// assert_eq!(RetryConfig::with_budget(0).backoff(1, 42), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryConfig {
    /// Never retry: an interrupted transfer is abandoned on the first
    /// failure — the lower bound every real policy is compared against.
    None,
    /// Exponential backoff with seeded jitter and a bounded budget: retry
    /// `n` waits `2 s * 2^(n-1)` capped at 60 s, stretched by a
    /// multiplicative jitter factor drawn from `[0.7, 1.3]`.
    Exponential {
        /// Maximum retries per operation (0 degenerates to no-retry).
        budget: u32,
    },
}

impl RetryConfig {
    /// The fleet default: exponential backoff with 8 retries.
    pub fn standard_exponential() -> RetryConfig {
        RetryConfig::with_budget(8)
    }

    /// An exponential configuration with the given retry budget —
    /// `with_budget(0)` is the "retries exhausted immediately" arm of the
    /// faults suite.
    pub fn with_budget(budget: u32) -> RetryConfig {
        RetryConfig::Exponential { budget }
    }

    /// The virtual-time backoff before retry number `attempt` (1-based: the
    /// first retry after the first interruption passes `attempt == 1`), or
    /// `None` when the budget is exhausted and the operation must be
    /// abandoned. `draw` is a seeded 64-bit value for jitter.
    pub fn backoff(&self, attempt: u32, draw: u64) -> Option<SimDuration> {
        let RetryConfig::Exponential { budget } = *self else {
            return None;
        };
        assert!(attempt >= 1, "retry attempts are 1-based");
        if attempt > budget {
            return None;
        }
        let doublings = (attempt - 1).min(32);
        let wait = BACKOFF_BASE.saturating_mul(1u64 << doublings).min(BACKOFF_CAP);
        let factor = 1.0 + BACKOFF_JITTER * (2.0 * unit_f64(draw) - 1.0);
        Some(SimDuration::from_secs_f64(wait.as_secs_f64() * factor.max(0.0)))
    }

    /// This configuration, boxed, for `perf/`'s faulted-sync row
    /// (`policy().as_ref()`); the library passes `&RetryConfig`.
    #[doc(hidden)]
    pub fn policy(&self) -> Box<RetryConfig> {
        Box::new(*self)
    }

    /// Stable configuration name, used in reports and metric keys.
    pub fn name(&self) -> &'static str {
        match self {
            RetryConfig::None => "none",
            RetryConfig::Exponential { .. } => "exponential",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_retry_never_grants_a_backoff() {
        assert_eq!(RetryConfig::None.backoff(1, 42), None);
        assert_eq!(RetryConfig::None.backoff(100, 7), None);
        assert_eq!(RetryConfig::None.name(), "none");
    }

    #[test]
    fn exponential_backoff_doubles_caps_and_respects_the_budget() {
        // The draw 2^63 is the middle of the unit interval: a jitter factor
        // of exactly 1.
        let (p, mid) = (RetryConfig::with_budget(7), 1u64 << 63);
        assert_eq!(unit_f64(mid), 0.5);
        assert_eq!(p.backoff(1, mid), Some(SimDuration::from_secs(2)));
        assert_eq!(p.backoff(2, mid), Some(SimDuration::from_secs(4)));
        assert_eq!(p.backoff(3, mid), Some(SimDuration::from_secs(8)));
        assert_eq!(p.backoff(4, mid), Some(SimDuration::from_secs(16)));
        assert_eq!(p.backoff(5, mid), Some(SimDuration::from_secs(32)));
        // Clamped to the cap, then the budget runs out.
        assert_eq!(p.backoff(6, mid), Some(SimDuration::from_secs(60)));
        assert_eq!(p.backoff(7, mid), Some(SimDuration::from_secs(60)));
        assert_eq!(p.backoff(8, mid), None);
    }

    #[test]
    fn jitter_is_a_pure_function_of_the_draw() {
        // Draws are full 64-bit mixed values in practice (derive_seed), so
        // the test uses mixed draws too: tiny integers all collapse to the
        // bottom of the unit interval.
        let p = RetryConfig::standard_exponential();
        let x = 0x9E3779B97F4A7C15u64;
        let y = 0xD1B54A32D192ED03u64;
        let a = p.backoff(1, x).unwrap();
        assert_eq!(a, p.backoff(1, x).unwrap(), "same draw, same wait");
        let b = p.backoff(1, y).unwrap();
        assert_ne!(a, b, "different draws should jitter differently");
        // Jitter stays within the half-width.
        let base = BACKOFF_BASE.as_secs_f64();
        for draw in 0..100u64 {
            let w = p.backoff(1, draw.wrapping_mul(0x9E3779B97F4A7C15)).unwrap().as_secs_f64();
            let (low, high) = (1.0 - BACKOFF_JITTER, 1.0 + BACKOFF_JITTER);
            assert!(w >= base * low - 1e-6 && w <= base * high + 1e-6);
        }
    }

    #[test]
    fn a_zero_budget_exponential_degenerates_to_no_retry() {
        let cfg = RetryConfig::with_budget(0);
        assert_eq!(cfg.backoff(1, 99), None);
        assert_eq!(cfg.name(), "exponential");
    }

    #[test]
    fn config_materialises_as_its_own_policy() {
        for cfg in [RetryConfig::None, RetryConfig::standard_exponential()] {
            assert_eq!(*cfg.policy(), cfg);
        }
        let policy = RetryConfig::standard_exponential().policy();
        assert!(policy.backoff(1, 7).is_some());
    }

    /// Every wait, in µs, that exponential backoff granted before the
    /// policy was one enum: `GOLDEN_US[d][attempt - 1]` for the `d`th draw
    /// `derive_seed(0x5EED, 0, d, 0)`. Attempts past 6 waited as long as
    /// attempt 6: the 60 s cap, jittered.
    const GOLDEN_US: [[u64; 6]; 16] = [
        [2035666, 4071332, 8142665, 16285329, 32570659, 61069986],
        [2369468, 4738937, 9477874, 18955748, 37911495, 71084054],
        [2289984, 4579969, 9159938, 18319875, 36639750, 68699532],
        [2023762, 4047524, 8095048, 16190095, 32380190, 60712856],
        [2561553, 5123106, 10246211, 20492423, 40984845, 76846585],
        [1792784, 3585567, 7171134, 14342268, 28684537, 53783507],
        [1908808, 3817616, 7635232, 15270465, 30540929, 57264242],
        [2053497, 4106994, 8213989, 16427977, 32855955, 61604915],
        [1821966, 3643932, 7287864, 14575729, 29151457, 54658982],
        [1671892, 3343784, 6687568, 13375135, 26750271, 50156757],
        [2165760, 4331520, 8663039, 17326078, 34652157, 64972794],
        [2586734, 5173468, 10346936, 20693871, 41387743, 77602018],
        [2378340, 4756681, 9513362, 19026723, 38053447, 71350213],
        [1686465, 3372931, 6745862, 13491724, 26983447, 50593963],
        [1529012, 3058025, 6116050, 12232099, 24464198, 45870371],
        [1855252, 3710503, 7421007, 14842013, 29684026, 55657550],
    ];

    #[test]
    fn every_backoff_matches_the_recorded_waits() {
        for (d, waits) in GOLDEN_US.iter().enumerate() {
            let draw = derive_seed(0x5EED, 0, d as u64, 0);
            for attempt in 1..=10u32 {
                assert_eq!(RetryConfig::None.backoff(attempt, draw), None);
                for budget in [0, 1, 7, 8] {
                    let recorded = (attempt <= budget)
                        .then(|| SimDuration::from_micros(waits[attempt.min(6) as usize - 1]));
                    let got = RetryConfig::with_budget(budget).backoff(attempt, draw);
                    assert_eq!(got, recorded, "budget {budget}, attempt {attempt}, draw {d}");
                }
            }
        }
    }
}
