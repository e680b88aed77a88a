//! Property tests for the temporal fleet scheduler.
//!
//! The scheduler's contract is that the schedule is *data*: a pure function
//! of `(FleetSpec, seed)`, identical across repeated calls and across
//! threads, with the lock-step configuration (no think time, no jitter,
//! activation 1.0) syncing every connected round. These
//! properties are what let the bench crate's golden files pin whole suite
//! dumps byte for byte.

use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::schedule::{FleetSchedule, RoundEvent, ThinkTime};
use cloudsim_services::ServiceProfile;
use cloudsim_storage::ObjectStore;
use cloudsim_trace::SimDuration;
use proptest::prelude::*;

/// A temporal spec drawn from integer raw material: `exponential` selects
/// exponential think times over none, `activation_pct` the idle probability.
fn temporal_spec(
    seed: u64,
    clients: usize,
    rounds: usize,
    exponential: bool,
    jitter_secs: u64,
    activation_pct: u8,
) -> FleetSpec {
    let think = if exponential {
        ThinkTime::Exponential { mean: SimDuration::from_secs(5) }
    } else {
        ThinkTime::NONE
    };
    FleetSpec::new(ServiceProfile::dropbox(), clients)
        .with_files(2, 8 * 1024)
        .with_batches(rounds)
        .with_seed(seed)
        .with_think_time(think)
        .with_arrival_jitter(SimDuration::from_secs(jitter_secs))
        .with_activation(activation_pct as f64 / 100.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Schedule generation is a pure function of `(FleetSpec, seed)`: the
    /// same inputs give identical event lists across repeated calls and
    /// across concurrently generating threads.
    #[test]
    fn schedule_generation_is_pure(
        seed in 0u64..1_000_000,
        clients in 1usize..8,
        rounds in 1usize..6,
        exponential in any::<bool>(),
        jitter_secs in 0u64..60,
        activation_pct in 0u8..=100,
    ) {
        let spec = temporal_spec(seed, clients, rounds, exponential, jitter_secs, activation_pct);
        let reference = spec.schedule();
        prop_assert_eq!(&reference, &spec.schedule());
        prop_assert_eq!(&reference, &FleetSchedule::generate(&spec));
        // Four threads generating concurrently see the same events: the
        // draws depend on nothing but the spec.
        let schedules: Vec<FleetSchedule> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| spec.schedule())).collect();
            handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
        });
        for schedule in &schedules {
            prop_assert_eq!(schedule, &reference);
        }
        // Structural sanity: every connected round appears exactly once.
        for client in &reference.clients {
            prop_assert_eq!(client.events.len(), spec.rounds);
            prop_assert_eq!(client.sync_rounds() + client.idle_rounds(), spec.rounds);
        }
    }

    /// The lock-step configuration (zero think time, zero jitter, full
    /// activation) syncs every connected round with no pause and no offset,
    /// so the per-slot sync count equals the membership window — the fleet
    /// the committed `fleet.*`/`hetero.*`/`restore.*` gate values pin.
    #[test]
    fn legacy_config_schedules_lockstep(
        seed in 0u64..1_000_000,
        clients in 2usize..8,
        rounds in 2usize..6,
    ) {
        let spec = FleetSpec::new(ServiceProfile::dropbox(), clients)
            .with_files(2, 8 * 1024)
            .with_batches(rounds)
            .with_seed(seed)
            .with_churn(1, 1);
        let schedule = spec.schedule();
        prop_assert_eq!(schedule.total_idle_rounds(), 0);
        for (slot, client) in spec.slots.iter().zip(&schedule.clients) {
            let last = slot.leave_after.unwrap_or(spec.rounds - 1);
            prop_assert_eq!(client.sync_rounds(), last + 1 - slot.join_round);
            for event in &client.events {
                let RoundEvent::Sync(activation) = event else {
                    panic!("lock-step rounds all sync")
                };
                prop_assert!(activation.arrival_jitter.is_zero());
                prop_assert!(activation.think.is_zero());
            }
        }
    }
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of cases over tiny
    // fleets still covers the interleavings that matter.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// With jitter, think time and idle rounds all enabled, a concurrent run
    /// still replays the sequential baseline bit for bit: the schedule is
    /// data, not thread timing.
    #[test]
    fn temporal_fleets_replay_bit_identically_across_thread_counts(
        seed in 0u64..100_000,
        activation_pct in 40u8..=100,
    ) {
        let spec = temporal_spec(seed, 4, 3, true, 15, activation_pct);
        let sequential = run_fleet(&spec, ObjectStore::new(), 1);
        let concurrent = run_fleet(&spec, ObjectStore::new(), 4);
        prop_assert_eq!(&sequential.clients, &concurrent.clients);
        prop_assert_eq!(sequential.aggregate(), concurrent.aggregate());
        prop_assert_eq!(sequential.total_synced_rounds() + sequential.total_idle_rounds(), 4 * 3);
    }

    /// The fleet replay of an arbitrary schedule is bit-identical across
    /// repeated runs and across 1-vs-N workers: the rounds own the order,
    /// the workers only own the labour.
    #[test]
    fn heap_driven_replay_is_bit_identical_across_runs_and_workers(
        seed in 0u64..100_000,
        exponential in any::<bool>(),
        jitter_secs in 0u64..30,
        activation_pct in 40u8..=100,
    ) {
        let spec = temporal_spec(seed, 4, 3, exponential, jitter_secs, activation_pct);
        let once = run_fleet(&spec, ObjectStore::new(), 1);
        let again = run_fleet(&spec, ObjectStore::new(), 1);
        let wide = run_fleet(&spec, ObjectStore::new(), 8);
        prop_assert_eq!(&once.clients, &again.clients);
        prop_assert_eq!(&once.clients, &wide.clients);
        prop_assert_eq!(once.aggregate(), again.aggregate());
        prop_assert_eq!(once.aggregate(), wide.aggregate());
    }
}
