//! Property tests for the temporal fleet scheduler.
//!
//! The scheduler's contract is that the schedule is *data*: a pure function
//! of `(FleetSpec, seed)`, identical across repeated calls and across
//! threads, with the legacy configuration (no think time, no jitter,
//! activation 1.0) degenerating to the old lock-step timeline. These
//! properties are what let the CI determinism legs `cmp` whole suite dumps
//! byte for byte.

use cloudsim_services::engine::EventHeap;
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::schedule::{FleetSchedule, ThinkTime};
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
        for (i, client) in reference.clients.iter().enumerate() {
            let connected = spec.slots[i].active_rounds(spec.rounds);
            prop_assert_eq!(client.events.len(), connected);
            prop_assert_eq!(client.sync_rounds() + client.idle_rounds(), connected);
        }
    }

    /// The legacy configuration (zero think time, zero jitter, full
    /// activation) schedules pure lock-step: every connected round syncs,
    /// ordinals equal round offsets, and the per-slot sync count equals the
    /// membership window — what the round-major fleets implicitly did, which is why
    /// the committed `fleet.*`/`hetero.*`/`restore.*` baselines replay
    /// byte-identically through the new scheduler (the bench crate asserts
    /// that equality against the committed file).
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
        prop_assert!(spec.is_lockstep());
        let schedule = spec.schedule();
        prop_assert!(schedule.is_lockstep());
        prop_assert_eq!(schedule.total_idle_rounds(), 0);
        for (i, client) in schedule.clients.iter().enumerate() {
            prop_assert_eq!(client.sync_rounds(), spec.slots[i].active_rounds(spec.rounds));
            prop_assert_eq!(client.sync_rounds(), spec.sync_rounds_of(i));
            for (k, event) in client.events.iter().enumerate() {
                let activation = event.activation().expect("lock-step rounds all sync");
                prop_assert_eq!(activation.ordinal, k);
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
        prop_assert_eq!(
            sequential.total_synced_rounds() + sequential.total_idle_rounds(),
            (0..4).map(|i| spec.slots[i].active_rounds(spec.rounds)).sum::<usize>()
        );
    }

    /// The event heap lowered from an arbitrary schedule is pure data —
    /// deriving twice pops the same total order — and the heap-driven fleet
    /// replay is bit-identical across repeated runs and across 1-vs-N
    /// workers. This is the engine-level restatement of the determinism
    /// contract: the heap owns the order, the workers only own the labour.
    #[test]
    fn heap_driven_replay_is_bit_identical_across_runs_and_workers(
        seed in 0u64..100_000,
        exponential in any::<bool>(),
        jitter_secs in 0u64..30,
        activation_pct in 40u8..=100,
    ) {
        let spec = temporal_spec(seed, 4, 3, exponential, jitter_secs, activation_pct);
        let schedule = spec.schedule();
        let drain = |mut heap: EventHeap| {
            let mut events = Vec::new();
            while let Some(ev) = heap.pop() {
                events.push(ev);
            }
            events
        };
        let order = drain(EventHeap::derive(&spec, &schedule));
        prop_assert!(!order.is_empty());
        prop_assert_eq!(&order, &drain(EventHeap::derive(&spec, &schedule)));
        // The popped sequence is totally ordered by the heap key.
        for pair in order.windows(2) {
            prop_assert!(pair[0] < pair[1], "heap popped {:?} before {:?}", pair[0], pair[1]);
        }
        let once = run_fleet(&spec, ObjectStore::new(), 1);
        let again = run_fleet(&spec, ObjectStore::new(), 1);
        let wide = run_fleet(&spec, ObjectStore::new(), 8);
        prop_assert_eq!(&once.clients, &again.clients);
        prop_assert_eq!(&once.clients, &wide.clients);
        prop_assert_eq!(once.aggregate(), again.aggregate());
        prop_assert_eq!(once.aggregate(), wide.aggregate());
    }
}
