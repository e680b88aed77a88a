//! The temporal fleet schedule: think times, idle rounds and arrival jitter
//! on a virtual clock.
//!
//! The paper's benchmarks are temporal — §3.1 measures idle background
//! signalling over a 16-minute capture, and the §5 workload experiments
//! measure sync *start-up delay* and completion time, which only exist when
//! clients do not all fire at once. The schedule gives every client one
//! [`RoundEvent`] per round it is connected in:
//!
//! * a [`ThinkTime`] distribution (fixed or exponential) samples the pause
//!   a user "thinks" between activity bursts,
//! * a per-round **activation probability** yields idle rounds in which a
//!   client stays connected and pays §3.1-style keep-alive signalling but
//!   syncs nothing,
//! * an **arrival jitter** bound offsets each sync start inside its round so
//!   clients arrive at distinct virtual instants instead of a shared
//!   barrier.
//!
//! Determinism contract: [`FleetSchedule::generate`] is a *pure function* of
//! the [`FleetSpec`] (which carries the master seed) — no wall clock, no
//! unseeded RNG, no thread-order dependence. The schedule is data that
//! [`crate::fleet::run_fleet`] replays round by round, which is why
//! concurrent runs stay bit-exact with jitter enabled. With zero think
//! time, zero jitter and activation 1.0 every connected round syncs with
//! no pause and no offset: the lock-step fleet the `fleet.*`/`hetero.*`/
//! `restore.*` gate values pin.

use crate::fleet::FleetSpec;
use cloudsim_trace::SimDuration;
use cloudsim_workload::seed::{derive_seed, unit_f64};
use std::fmt;

/// Salt distinguishing activation draws from every other seeded stream.
const SALT_ACTIVATION: u64 = 0x5EED_AC21;
/// Salt distinguishing arrival-jitter draws.
const SALT_JITTER: u64 = 0x5EED_0FF5;
/// Salt distinguishing think-time draws.
const SALT_THINK: u64 = 0x5EED_7183;

/// The distribution of the pause between a client's activity bursts.
///
/// All variants are sampled from the fleet's seeded draw stream, so a
/// schedule is reproducible bit-for-bit from `(FleetSpec, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThinkTime {
    /// Every pause lasts exactly this long (zero = lock-step).
    Fixed(SimDuration),
    /// Memoryless pauses with the given mean — the classic think-time model
    /// for user sessions.
    Exponential {
        /// Mean pause length.
        mean: SimDuration,
    },
}

impl ThinkTime {
    /// No pause at all: the lock-step configuration.
    pub const NONE: ThinkTime = ThinkTime::Fixed(SimDuration::ZERO);

    /// Samples the distribution from one seeded draw. Pure: the same draw
    /// always yields the same duration.
    ///
    /// ```
    /// use cloudsim_services::schedule::ThinkTime;
    /// use cloudsim_trace::SimDuration;
    ///
    /// let think = ThinkTime::Exponential { mean: SimDuration::from_secs(5) };
    /// let pause = think.sample(0xA11CE);
    /// // Pure: the same draw always yields the same pause.
    /// assert_eq!(pause, think.sample(0xA11CE));
    /// assert!(ThinkTime::NONE.sample(7).is_zero());
    /// ```
    pub fn sample(&self, draw: u64) -> SimDuration {
        match *self {
            ThinkTime::Fixed(d) => d,
            ThinkTime::Exponential { mean } => {
                // Inverse-CDF sampling; u < 1 keeps ln finite and the
                // result non-negative.
                let u = unit_f64(draw);
                SimDuration::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
            }
        }
    }

    /// True when the distribution can only ever produce zero pauses.
    pub fn is_zero(&self) -> bool {
        match *self {
            ThinkTime::Fixed(d) => d.is_zero(),
            ThinkTime::Exponential { mean } => mean.is_zero(),
        }
    }
}

impl fmt::Display for ThinkTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ThinkTime::Fixed(d) => write!(f, "fixed {}s", d.as_secs_f64()),
            ThinkTime::Exponential { mean } => write!(f, "exp(mean {}s)", mean.as_secs_f64()),
        }
    }
}

/// One activated sync of the schedule: the temporal offsets the draws
/// assigned to it. Its round is its position in its client's timeline, and
/// the batch *content* stays keyed to that round, so the fleet-wide shared
/// pool keeps aligning across clients whatever their idle patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncActivation {
    /// Intra-round arrival offset: added to the client's virtual clock so
    /// arrivals spread across the round instead of hitting a shared barrier.
    pub arrival_jitter: SimDuration,
    /// The think-time pause preceding this activity burst.
    pub think: SimDuration,
}

/// What one client does in one of its connected rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundEvent {
    /// The client activates and syncs one batch.
    Sync(SyncActivation),
    /// The client stays connected but syncs nothing: an idle round. It still
    /// pays the §3.1 background signalling (keep-alive polls) for the
    /// round's span of virtual time.
    Idle,
}

/// One client's precomputed timeline: one event per connected round, in
/// round order, so round `r` is `events[r - join_round]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSchedule {
    /// One event per round in the slot's membership window.
    pub events: Vec<RoundEvent>,
}

impl ClientSchedule {
    /// Rounds in which this client activates and syncs a batch.
    pub fn sync_rounds(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, RoundEvent::Sync(_))).count()
    }

    /// Rounds this client spends connected but idle.
    pub fn idle_rounds(&self) -> usize {
        self.events.len() - self.sync_rounds()
    }
}

/// The whole fleet's precomputed temporal schedule: per-client event lists
/// derived up front from `(FleetSpec, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    /// One timeline per slot, indexed by slot number.
    pub clients: Vec<ClientSchedule>,
}

impl FleetSchedule {
    /// Generates the schedule: a pure function of the spec (no wall clock,
    /// no unseeded RNG). Every `(client, round)` pair draws its activation,
    /// jitter and think time from independent seeded streams, so inserting
    /// or removing clients or rounds never shifts another pair's draws.
    ///
    /// ```
    /// use cloudsim_services::fleet::FleetSpec;
    /// use cloudsim_services::schedule::{FleetSchedule, ThinkTime};
    /// use cloudsim_services::ServiceProfile;
    /// use cloudsim_trace::SimDuration;
    ///
    /// let spec = FleetSpec::new(ServiceProfile::dropbox(), 3)
    ///     .with_batches(2)
    ///     .with_seed(7)
    ///     .with_think_time(ThinkTime::Exponential { mean: SimDuration::from_secs(5) })
    ///     .with_activation(0.8);
    /// let schedule = FleetSchedule::generate(&spec);
    /// assert_eq!(schedule.clients.len(), 3);
    /// // The schedule is data: regenerating from the same spec is identical.
    /// assert_eq!(schedule, spec.schedule());
    /// ```
    pub fn generate(spec: &FleetSpec) -> FleetSchedule {
        let clients = (0..spec.slots.len())
            .map(|i| {
                let slot = &spec.slots[i];
                let events = (0..spec.rounds)
                    .filter(|&round| slot.active_in(round))
                    .map(|round| {
                        let draw = |salt| derive_seed(spec.seed, i as u64, round as u64, salt);
                        if unit_f64(draw(SALT_ACTIVATION)) < spec.activation {
                            let jitter_span = spec.arrival_jitter.as_micros();
                            RoundEvent::Sync(SyncActivation {
                                arrival_jitter: SimDuration::from_micros(
                                    draw(SALT_JITTER) % (jitter_span + 1),
                                ),
                                think: spec.think.sample(draw(SALT_THINK)),
                            })
                        } else {
                            RoundEvent::Idle
                        }
                    })
                    .collect();
                ClientSchedule { events }
            })
            .collect();
        FleetSchedule { clients }
    }

    /// Total connected-but-idle rounds across the fleet.
    pub fn total_idle_rounds(&self) -> usize {
        self.clients.iter().map(ClientSchedule::idle_rounds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ServiceProfile;

    fn spec(clients: usize) -> FleetSpec {
        FleetSpec::new(ServiceProfile::dropbox(), clients)
            .with_files(2, 8 * 1024)
            .with_batches(4)
            .with_seed(0xABCD)
    }

    #[test]
    fn legacy_config_schedules_pure_lockstep() {
        let schedule = spec(3).schedule();
        assert_eq!(schedule.total_idle_rounds(), 0);
        assert_eq!(schedule.clients.iter().map(|c| c.sync_rounds()).sum::<usize>(), 12);
        for client in &schedule.clients {
            assert_eq!(client.events.len(), 4, "one entry per round");
            for event in &client.events {
                let RoundEvent::Sync(act) = event else { panic!("legacy rounds all sync") };
                assert!(act.arrival_jitter.is_zero());
                assert!(act.think.is_zero());
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_spec() {
        let temporal = spec(5)
            .with_think_time(ThinkTime::Exponential { mean: SimDuration::from_secs(10) })
            .with_arrival_jitter(SimDuration::from_secs(30))
            .with_activation(0.6);
        assert_eq!(temporal.schedule(), temporal.schedule());
        assert_eq!(FleetSchedule::generate(&temporal), temporal.schedule());
        // A different seed reshuffles the draws.
        assert_ne!(temporal.schedule(), temporal.clone().with_seed(99).schedule());
    }

    #[test]
    fn activation_probability_produces_idle_rounds_and_respects_bounds() {
        let temporal = spec(8).with_activation(0.5);
        let schedule = temporal.schedule();
        assert!(schedule.total_idle_rounds() > 0, "p=0.5 over 32 draws must idle somewhere");
        assert!(schedule.clients.iter().map(|c| c.sync_rounds()).sum::<usize>() > 0);
        assert_eq!(
            schedule.clients.iter().map(|c| c.sync_rounds()).sum::<usize>()
                + schedule.total_idle_rounds(),
            32
        );
        // The extremes: activation 0 never syncs, activation 1 never idles.
        assert_eq!(
            spec(8)
                .with_activation(0.0)
                .schedule()
                .clients
                .iter()
                .map(|c| c.sync_rounds())
                .sum::<usize>(),
            0
        );
        assert_eq!(spec(8).with_activation(1.0).schedule().total_idle_rounds(), 0);
    }

    #[test]
    fn jitter_draws_stay_within_the_bound_and_spread_arrivals() {
        let bound = SimDuration::from_secs(20);
        let schedule = spec(8).with_arrival_jitter(bound).schedule();
        let jitters: Vec<SimDuration> = schedule
            .clients
            .iter()
            .flat_map(|c| c.events.iter())
            .filter_map(|e| match e {
                RoundEvent::Sync(a) => Some(a.arrival_jitter),
                RoundEvent::Idle => None,
            })
            .collect();
        assert!(jitters.iter().all(|j| *j <= bound));
        let distinct: std::collections::HashSet<u64> =
            jitters.iter().map(|j| j.as_micros()).collect();
        assert!(distinct.len() > jitters.len() / 2, "draws must spread, not collapse");
    }

    #[test]
    fn think_time_distributions_sample_deterministically() {
        let fixed = ThinkTime::Fixed(SimDuration::from_secs(3));
        assert_eq!(fixed.sample(1), SimDuration::from_secs(3));
        assert_eq!(fixed.sample(2), SimDuration::from_secs(3));

        let exp = ThinkTime::Exponential { mean: SimDuration::from_secs(5) };
        let mut sum = 0.0;
        for draw in 0..2_000u64 {
            let s = exp.sample(derive_seed(2, draw, 0, 0));
            sum += s.as_secs_f64();
        }
        let mean = sum / 2_000.0;
        assert!((3.5..6.5).contains(&mean), "empirical mean {mean} far from 5s");
        assert_eq!(exp.sample(42), exp.sample(42));

        assert!(ThinkTime::NONE.is_zero());
        assert!(!exp.is_zero());
        assert_eq!(format!("{exp}"), "exp(mean 5s)");
        assert_eq!(format!("{}", ThinkTime::NONE), "fixed 0s");
    }

    #[test]
    fn churned_slots_only_schedule_their_membership_window() {
        let full = spec(3).with_arrival_jitter(SimDuration::from_secs(30));
        let mut temporal = full.clone();
        temporal.slots[0].leave_after = Some(1);
        temporal.slots[2].join_round = 2;
        let schedule = temporal.schedule();
        // Rounds 0–1, 0–3 and 2–3: one entry per connected round.
        let lens: Vec<usize> = schedule.clients.iter().map(|c| c.events.len()).collect();
        assert_eq!(lens, vec![2, 4, 2]);
        // Each entry is the round at its offset from the join round, so a
        // window's entries keep the draws of their own rounds.
        let full = full.schedule();
        assert_eq!(schedule.clients[0].events, full.clients[0].events[..2]);
        assert_eq!(schedule.clients[2].events, full.clients[2].events[2..]);
    }
}
