//! Pluggable retry policies for fault-injected transfers.
//!
//! When a link outage kills a transfer mid-flight (a
//! [`cloudsim_net::TransferInterrupted`]), the session layer consults a
//! [`RetryPolicy`] to decide whether — and after how long a backoff — the
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
use serde::Serialize;

/// Decides whether an interrupted transfer is retried and how long the
/// client waits first. Implementations must be pure functions of
/// `(attempt, draw)` so faulted runs replay bit-identically.
pub trait RetryPolicy {
    /// The virtual-time backoff before retry number `attempt` (1-based: the
    /// first retry after the first interruption passes `attempt == 1`), or
    /// `None` when the policy's budget is exhausted and the operation must
    /// be abandoned. `draw` is a seeded 64-bit value for jitter.
    fn backoff(&self, attempt: u32, draw: u64) -> Option<SimDuration>;

    /// Stable policy name, used in reports and metric keys.
    fn name(&self) -> &'static str;
}

/// Everything a storage transfer needs to survive outages, carried as one
/// value: the outage schedule it runs under, the policy that grants its
/// retries, and the seed of the per-(unit, attempt) jitter draws — same
/// seed, same schedule, same virtual timeline.
pub struct Recovery<'a> {
    /// The link outages the transfer runs under.
    pub faults: &'a FaultSchedule,
    /// Decides whether, and after how long, an interrupted unit is retried.
    pub policy: &'a dyn RetryPolicy,
    /// Seed of the backoff jitter draws.
    pub seed: u64,
}

impl Recovery<'static> {
    /// No outages, hence nothing to recover from: what a fault-free
    /// transfer runs under. The policy and seed are never consulted.
    pub const NONE: Recovery<'static> =
        Recovery { faults: &FaultSchedule::NONE, policy: &NoRetry, seed: 0 };
}

impl Recovery<'_> {
    /// The policy's verdict on retry number `attempt` of transfer unit
    /// `unit` in the `salt` stream of draws: the backoff to sleep, or
    /// `None` to abandon.
    pub fn backoff(&self, salt: u64, unit: u64, attempt: u32) -> Option<SimDuration> {
        self.policy.backoff(attempt, derive_seed(self.seed, salt, unit, attempt as u64))
    }
}

/// The control policy: never retry. An interrupted transfer is abandoned on
/// the first failure — the lower bound every real policy is compared
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoRetry;

impl RetryPolicy for NoRetry {
    fn backoff(&self, _attempt: u32, _draw: u64) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Backoff before the first retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);
/// Upper bound any single backoff is clamped to.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);
/// Jitter half-width: each wait is scaled by a seeded factor in
/// `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`.
const BACKOFF_JITTER: f64 = 0.3;

/// Exponential backoff with seeded jitter and a bounded retry budget:
/// retry `n` waits `2 s * 2^(n-1)` capped at 60 s, stretched by a
/// multiplicative jitter factor drawn from `[0.7, 1.3]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExponentialBackoff {
    /// Maximum number of retries per operation (0 degenerates to no-retry).
    pub budget: u32,
}

impl ExponentialBackoff {
    /// The fleet default: 8 retries.
    pub fn standard() -> ExponentialBackoff {
        ExponentialBackoff { budget: 8 }
    }
}

impl RetryPolicy for ExponentialBackoff {
    fn backoff(&self, attempt: u32, draw: u64) -> Option<SimDuration> {
        assert!(attempt >= 1, "retry attempts are 1-based");
        if attempt > self.budget {
            return None;
        }
        let doublings = (attempt - 1).min(32);
        let wait = BACKOFF_BASE.saturating_mul(1u64 << doublings).min(BACKOFF_CAP);
        let factor = 1.0 + BACKOFF_JITTER * (2.0 * unit_f64(draw) - 1.0);
        Some(SimDuration::from_secs_f64(wait.as_secs_f64() * factor.max(0.0)))
    }

    fn name(&self) -> &'static str {
        "exponential"
    }
}

/// Serialisable retry-policy configuration — the form a [`RetryPolicy`]
/// takes inside a fleet spec. `policy()` materialises the trait object; to
/// add a policy, implement [`RetryPolicy`], add a variant here and map it
/// in `policy()`/`name()`.
///
/// ```
/// use cloudsim_services::retry::{RetryConfig, RetryPolicy as _};
///
/// let policy = RetryConfig::standard_exponential().policy();
/// let wait = policy.backoff(1, 42).expect("the standard budget allows a first retry");
/// // Pure: the same (attempt, draw) pair always waits the same time.
/// assert_eq!(policy.backoff(1, 42), Some(wait));
/// // The control policy and an exhausted budget both abandon immediately.
/// assert_eq!(RetryConfig::None.policy().backoff(1, 42), None);
/// assert_eq!(RetryConfig::with_budget(0).policy().backoff(1, 42), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RetryConfig {
    /// Abandon on first interruption (the no-recovery control).
    None,
    /// Exponential backoff with seeded jitter and a bounded budget.
    Exponential {
        /// Maximum retries per operation.
        budget: u32,
    },
}

impl RetryConfig {
    /// The standard exponential configuration ([`ExponentialBackoff::standard`]).
    pub fn standard_exponential() -> RetryConfig {
        RetryConfig::with_budget(ExponentialBackoff::standard().budget)
    }

    /// An exponential configuration with the given retry budget —
    /// `with_budget(0)` is the "retries exhausted immediately" arm of the
    /// faults suite.
    pub fn with_budget(budget: u32) -> RetryConfig {
        RetryConfig::Exponential { budget }
    }

    /// Materialises the policy this configuration describes.
    pub fn policy(&self) -> Box<dyn RetryPolicy + Send + Sync> {
        match *self {
            RetryConfig::None => Box::new(NoRetry),
            RetryConfig::Exponential { budget } => Box::new(ExponentialBackoff { budget }),
        }
    }

    /// Stable configuration name (matches the materialised policy's name).
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
        assert_eq!(NoRetry.backoff(1, 42), None);
        assert_eq!(NoRetry.backoff(100, 7), None);
        assert_eq!(NoRetry.name(), "none");
    }

    #[test]
    fn exponential_backoff_doubles_caps_and_respects_the_budget() {
        // The draw 2^63 is the middle of the unit interval: a jitter factor
        // of exactly 1.
        let (p, mid) = (ExponentialBackoff { budget: 7 }, 1u64 << 63);
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
        let p = ExponentialBackoff::standard();
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
        assert_eq!(cfg.policy().backoff(1, 99), None);
        assert_eq!(cfg.name(), "exponential");
    }

    #[test]
    fn config_serialises_deterministically_and_materialises() {
        for cfg in [RetryConfig::None, RetryConfig::standard_exponential()] {
            let json = serde_json::to_string(&cfg).unwrap();
            assert_eq!(json, serde_json::to_string(&cfg).unwrap());
            assert_eq!(cfg.policy().name(), cfg.name());
        }
        let json = serde_json::to_string(&RetryConfig::standard_exponential()).unwrap();
        assert!(json.contains("Exponential") && json.contains("budget"), "got {json}");
        let policy = RetryConfig::standard_exponential().policy();
        assert!(policy.backoff(1, 7).is_some());
    }
}
