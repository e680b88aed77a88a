//! The discrete-event fleet engine: a time-ordered event queue replacing
//! round barriers.
//!
//! The round-major fleet loop materialised the whole population every round
//! — partition the clients, fan out a sync phase, a barrier, an idle phase,
//! a barrier, … — which caps fleets at the size the per-round bookkeeping
//! can afford. This module turns the same computation inside out: the
//! precomputed [`FleetSchedule`] (pure data since PR 5) is lowered into a
//! flat list of [`FleetEvent`]s — activations, keep-alive epochs,
//! restore-fan pulls, departures, GC sweeps — ordered by
//! `(timestamp, phase, client id)`, and the driver pops them in that order,
//! touching only each event's client.
//!
//! ## Sort once, never push
//!
//! [`EventHeap`] keeps its historical name but is not a binary heap: it is
//! the event list sorted once plus a cursor. Every driver derives *all* of
//! its events from pure data (a schedule, a spec, a capture) before the
//! first one fires, and no event handler ever schedules another, so nothing
//! is pushed after construction and a heap's per-pop sift buys nothing. A wave
//! is then just a sub-slice of the sorted array, lent without copying. If
//! a driver ever needs to schedule events dynamically, that is the day a
//! `push` (and a real heap) earns its place again.
//!
//! ## Determinism
//!
//! The queue order is a *total* order: ties at equal timestamps resolve by
//! phase first (syncs before idles before restores before leaves before GC,
//! mirroring the old intra-round phase separation) and then by client id,
//! so two derivations of the same schedule replay the same event sequence
//! whatever the insertion order was. The legacy lock-step configuration
//! degenerates to exactly the old round-major timeline: every round's
//! events share one epoch timestamp, so the queue emits the old sync → idle
//! → restore → leave → GC phases in the old client order, and the committed
//! `fig6.*`/`fleet8.*`/`hetero.*`/`schedule.*`/`restore.*`/`faults.*`
//! baselines replay byte-identically (`to_bits()` equality, asserted in the
//! bench crate).
//!
//! ## Waves
//!
//! Popping strictly one event at a time would serialise clients that are
//! mutually independent. [`EventHeap::next_wave`] therefore pops a
//! *wave*: the maximal run of consecutive same-phase events in which every
//! client appears at most once. Within a wave the per-client simulations
//! are independent and the shared store's aggregate accounting is
//! order-independent (commits and reads commute), so a wave may execute on
//! any number of worker threads and still produce bit-identical results —
//! the engine-level analogue of the old phase barrier, without the
//! per-round materialisation. Only the full-fidelity fleet
//! ([`crate::fleet`]) executes waves: its clients restore from, leave and
//! garbage-collect a store other clients are writing, so phases must not
//! overlap. The fleet-scale path ([`crate::scale`]) only ever commits —
//! updates that commute — so it walks its sorted events straight through
//! and keeps waves as a reported count ([`wave_count`]).
//!
//! ```
//! use cloudsim_services::engine::{EventHeap, FleetEvent, Phase};
//! use cloudsim_trace::SimTime;
//!
//! let mut heap = EventHeap::from_events(vec![
//!     FleetEvent { at: SimTime::from_secs(60), phase: Phase::Sync, client: 0, round: 1 },
//!     FleetEvent { at: SimTime::ZERO, phase: Phase::Sync, client: 1, round: 0 },
//!     FleetEvent { at: SimTime::ZERO, phase: Phase::Sync, client: 0, round: 0 },
//! ]);
//! let wave = heap.next_wave().expect("three events queued");
//! // Ties at t=0 resolve by client id, and client 0's later event cannot
//! // join the wave because the client already appears in it.
//! assert_eq!(wave.clients(), vec![0, 1]);
//! assert_eq!(heap.next_wave().expect("one event left").clients(), vec![0]);
//! assert!(heap.next_wave().is_none());
//! ```

use crate::fleet::{FleetSpec, ROUND_EPOCH_SECS};
use crate::schedule::{FleetSchedule, RoundEvent};
use cloudsim_trace::SimTime;

/// What kind of work a [`FleetEvent`] performs when it fires.
///
/// The discriminant order *is* the intra-timestamp execution order: at one
/// virtual instant all syncs run before all idles, before all restores,
/// before all leaves, before the GC sweep — exactly the phase separation
/// the round-major loop enforced with barriers. Restores must observe the
/// timestamp's completed commits, leaves must not race them, and GC runs
/// after the releases it is meant to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The client activates and syncs one batch into the shared store.
    Sync,
    /// The client stays connected and pays one epoch of keep-alive
    /// signalling; its own simulated universe only, no store access.
    Idle,
    /// The client pulls its restore fan's source namespaces back down
    /// (store reads only).
    Restore,
    /// The client departs and hard-deletes its manifests (store releases).
    Leave,
    /// The periodic single-threaded garbage-collection sweep. Not tied to a
    /// client; the driver runs it only when the store's policy is
    /// mark-sweep.
    Gc,
}

/// Sentinel client id for events that do not belong to any client
/// ([`Phase::Gc`] sweeps). Sorts after every real client at its timestamp
/// and phase, which is irrelevant in practice: a sweep is alone in its
/// phase slot.
pub const NO_CLIENT: usize = usize::MAX;

/// One entry of the event queue: fire `phase` for `client` at virtual time
/// `at`. `round` carries the schedule round the event was derived from, so
/// the driver can look up the activation (and spawn a client at the right
/// login epoch) without a reverse search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Virtual instant the event fires at.
    pub at: SimTime,
    /// What the event does.
    pub phase: Phase,
    /// The client the event touches ([`NO_CLIENT`] for GC sweeps).
    pub client: usize,
    /// The schedule round the event was derived from.
    pub round: usize,
}

impl FleetEvent {
    /// The total-order key: `(timestamp, phase, client id)`, with the
    /// round as a final disambiguator so the order is total even if two of
    /// a client's seeded instants ever collide to the same microsecond —
    /// two events of one schedule never compare equal unless they are the
    /// same event.
    pub fn key(&self) -> (SimTime, Phase, usize, usize) {
        (self.at, self.phase, self.client, self.round)
    }
}

impl Ord for FleetEvent {
    fn cmp(&self, other: &FleetEvent) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for FleetEvent {
    fn partial_cmp(&self, other: &FleetEvent) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A maximal run of consecutive same-phase events with pairwise-distinct
/// clients, lent out of the queue as one unit. See the module docs for why
/// a wave may execute in parallel without breaking bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventWave<'a> {
    /// The phase every event of the wave shares.
    pub phase: Phase,
    /// The wave's events, in key order — a slice of the queue's own sorted
    /// array, so popping a wave allocates nothing.
    pub events: &'a [FleetEvent],
}

impl EventWave<'_> {
    /// The client ids of the wave, in event order (pairwise distinct by
    /// construction).
    pub fn clients(&self) -> Vec<usize> {
        self.events.iter().map(|e| e.client).collect()
    }
}

/// The time-ordered event queue the fleet drivers pop.
///
/// Every caller knows its whole event list before the first event fires
/// (see the module docs), so the queue is that list sorted once by
/// [`FleetEvent::key`] plus a cursor. Derive one from a spec and its
/// schedule with [`EventHeap::derive`], or build one from an explicit event
/// list with [`EventHeap::from_events`] (the fleet-scale runner does the
/// latter with analytically drawn activation instants).
#[derive(Debug)]
pub struct EventHeap {
    /// Every event, in key order.
    events: Vec<FleetEvent>,
    /// Index of the next event to pop; everything before it has fired.
    next: usize,
    /// Scratch for the wave segmentation, kept across waves so popping one
    /// does not allocate.
    seen: SeenClients,
}

impl EventHeap {
    /// A queue over `events` (any order; sorted here, once).
    pub fn from_events(mut events: Vec<FleetEvent>) -> EventHeap {
        events.sort_unstable();
        EventHeap { events, next: 0, seen: SeenClients::default() }
    }

    /// Lowers a spec's precomputed schedule into the full event list:
    ///
    /// * one [`Phase::Sync`] event per activation, at its round's epoch;
    /// * one [`Phase::Restore`] event per activation of a slot with a
    ///   restore fan (the fan rides the activation — an idle client defers
    ///   its pulls along with its upload);
    /// * one [`Phase::Idle`] event per connected-but-idle round;
    /// * one [`Phase::Leave`] event at the slot's `leave_after` round;
    /// * one [`Phase::Gc`] event per round (the driver runs the sweep only
    ///   under a mark-sweep store, matching the old per-round policy
    ///   check).
    ///
    /// Pure data in, pure data out: deriving twice yields identical heaps,
    /// which is what makes heap-driven replay a pure function of
    /// `(FleetSpec, seed)` just like the schedule itself.
    pub fn derive(spec: &FleetSpec, schedule: &FleetSchedule) -> EventHeap {
        let epoch = |round: usize| SimTime::from_secs(round as u64 * ROUND_EPOCH_SECS);
        let mut events = Vec::new();
        for client in &schedule.clients {
            let slot = &spec.slots[client.slot];
            for event in &client.events {
                let round = event.round();
                match event {
                    RoundEvent::Sync(_) => {
                        events.push(FleetEvent {
                            at: epoch(round),
                            phase: Phase::Sync,
                            client: client.slot,
                            round,
                        });
                        if !slot.pull_from.is_empty() {
                            events.push(FleetEvent {
                                at: epoch(round),
                                phase: Phase::Restore,
                                client: client.slot,
                                round,
                            });
                        }
                    }
                    RoundEvent::Idle { .. } => events.push(FleetEvent {
                        at: epoch(round),
                        phase: Phase::Idle,
                        client: client.slot,
                        round,
                    }),
                }
            }
            if let Some(leave) = slot.leave_after {
                events.push(FleetEvent {
                    at: epoch(leave),
                    phase: Phase::Leave,
                    client: client.slot,
                    round: leave,
                });
            }
        }
        for round in 0..spec.rounds {
            events.push(FleetEvent {
                at: epoch(round),
                phase: Phase::Gc,
                client: NO_CLIENT,
                round,
            });
        }
        EventHeap::from_events(events)
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.events.len() - self.next
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the single next event in `(timestamp, phase, client)` order.
    pub fn pop(&mut self) -> Option<FleetEvent> {
        let event = *self.events.get(self.next)?;
        self.next += 1;
        Some(event)
    }

    /// Pops the next wave: the maximal run of consecutive same-phase events
    /// in which every client appears at most once. A repeated client ends
    /// the wave (its later event depends on its earlier one), as does a
    /// phase change (cross-phase order is the determinism contract).
    pub fn next_wave(&mut self) -> Option<EventWave<'_>> {
        let rest = &self.events[self.next..];
        let wave = &rest[..leading_wave(rest, &mut self.seen)];
        self.next += wave.len();
        Some(EventWave { phase: wave.first()?.phase, events: wave })
    }
}

/// Which clients the wave being segmented already holds: `stamp[client]`
/// equals the current generation exactly when the client is in it, so
/// starting a wave is one increment rather than a table clear, and
/// membership is an index rather than a hash. The table grows to the
/// largest client id it is asked about; [`NO_CLIENT`] (far beyond any
/// table) has a flag of its own.
#[derive(Debug, Default)]
struct SeenClients {
    stamp: Vec<u32>,
    generation: u32,
    no_client: bool,
}

impl SeenClients {
    /// Forgets every client (a new wave starts).
    fn clear(&mut self) {
        self.no_client = false;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The counter wrapped: stamps from 2^32 waves ago would read as
            // current, so wipe them once.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Adds `client`; false when the wave already held it.
    fn insert(&mut self, client: usize) -> bool {
        if client == NO_CLIENT {
            return !std::mem::replace(&mut self.no_client, true);
        }
        if client >= self.stamp.len() {
            self.stamp.resize(client + 1, 0);
        }
        let stamp = std::mem::replace(&mut self.stamp[client], self.generation);
        stamp != self.generation
    }
}

/// The length of the wave at the head of `events` (given in key order): it
/// runs until the phase changes or a client repeats. The one segmentation
/// rule, shared by [`EventHeap::next_wave`] and [`wave_count`]; `seen` is
/// caller-owned scratch.
fn leading_wave(events: &[FleetEvent], seen: &mut SeenClients) -> usize {
    seen.clear();
    let Some(first) = events.first() else { return 0 };
    events.iter().take_while(|ev| ev.phase == first.phase && seen.insert(ev.client)).count()
}

/// The number of waves [`EventHeap::next_wave`] would pop for `events`
/// given in key order. The partition runner uses this to price wave
/// fragmentation — how many more waves a merged event stream splits into
/// than the sum of its partitions' streams — without re-driving a queue.
pub fn wave_count(mut events: &[FleetEvent]) -> usize {
    let mut seen = SeenClients::default();
    let mut waves = 0usize;
    while !events.is_empty() {
        events = &events[leading_wave(events, &mut seen)..];
        waves += 1;
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ServiceProfile;

    fn event(at_secs: u64, phase: Phase, client: usize) -> FleetEvent {
        FleetEvent { at: SimTime::from_secs(at_secs), phase, client, round: 0 }
    }

    /// Drains `heap` wave by wave (a wave borrows the queue, so the waves
    /// cannot be collected through an iterator adaptor).
    fn drain_waves(mut heap: EventHeap) -> Vec<(Phase, Vec<usize>)> {
        let mut waves = Vec::new();
        while let Some(wave) = heap.next_wave() {
            waves.push((wave.phase, wave.clients()));
        }
        waves
    }

    #[test]
    fn ties_at_equal_timestamps_resolve_by_client_id() {
        // Pinned: the total order at one instant and one phase is the
        // client id, whatever the insertion order.
        let mut heap = EventHeap::from_events(vec![
            event(5, Phase::Sync, 3),
            event(5, Phase::Sync, 0),
            event(5, Phase::Sync, 2),
            event(5, Phase::Sync, 1),
        ]);
        let popped: Vec<usize> = std::iter::from_fn(|| heap.pop()).map(|e| e.client).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
    }

    #[test]
    fn phases_order_before_clients_at_one_instant() {
        let mut heap = EventHeap::from_events(vec![
            event(7, Phase::Gc, NO_CLIENT),
            event(7, Phase::Leave, 0),
            event(7, Phase::Restore, 9),
            event(7, Phase::Idle, 4),
            event(7, Phase::Sync, 9),
        ]);
        let phases: Vec<Phase> = std::iter::from_fn(|| heap.pop()).map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::Sync, Phase::Idle, Phase::Restore, Phase::Leave, Phase::Gc]);
    }

    #[test]
    fn timestamps_dominate_phases_and_clients() {
        let mut heap = EventHeap::from_events(vec![
            event(60, Phase::Sync, 0),
            event(0, Phase::Gc, NO_CLIENT),
            event(0, Phase::Sync, 5),
        ]);
        let keys: Vec<(u64, Phase, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at.as_secs_f64() as u64, e.phase, e.client))
            .collect();
        assert_eq!(
            keys,
            vec![(0, Phase::Sync, 5), (0, Phase::Gc, NO_CLIENT), (60, Phase::Sync, 0)]
        );
    }

    #[test]
    fn waves_batch_distinct_clients_and_break_on_repeats_and_phase_changes() {
        let heap = EventHeap::from_events(vec![
            event(0, Phase::Sync, 0),
            event(0, Phase::Sync, 1),
            event(10, Phase::Sync, 2),
            event(20, Phase::Sync, 0), // repeat of client 0: new wave
            event(20, Phase::Idle, 3), // phase change: new wave
        ]);
        assert_eq!(
            drain_waves(heap),
            vec![(Phase::Sync, vec![0, 1, 2]), (Phase::Sync, vec![0]), (Phase::Idle, vec![3]),]
        );
    }

    #[test]
    fn wave_count_matches_the_heap_segmentation() {
        let events = vec![
            event(0, Phase::Sync, 0),
            event(0, Phase::Sync, 1),
            event(10, Phase::Sync, 2),
            event(20, Phase::Sync, 0),
            event(20, Phase::Idle, 3),
        ];
        let popped = drain_waves(EventHeap::from_events(events.clone())).len();
        let mut sorted = events;
        sorted.sort();
        assert_eq!(wave_count(&sorted), popped);
        assert_eq!(wave_count(&[]), 0);
    }

    #[test]
    fn client_ids_far_above_the_event_count_grow_the_stamp_table() {
        // Three events, ids up to a million: the table is sized by the
        // largest id seen, not by the number of events, and the GC
        // sentinel (`usize::MAX`) never touches it.
        let far = 1_000_000;
        let events = vec![
            event(0, Phase::Sync, far),
            event(0, Phase::Sync, 2),
            event(5, Phase::Sync, far),
            event(5, Phase::Gc, NO_CLIENT),
            event(9, Phase::Gc, NO_CLIENT),
        ];
        let mut sorted = events.clone();
        sorted.sort();
        assert_eq!(wave_count(&sorted), 4);
        assert_eq!(
            drain_waves(EventHeap::from_events(events)),
            vec![
                (Phase::Sync, vec![2, far]),
                (Phase::Sync, vec![far]),
                (Phase::Gc, vec![NO_CLIENT]),
                (Phase::Gc, vec![NO_CLIENT]),
            ]
        );
    }

    #[test]
    fn an_empty_queue_lends_no_wave() {
        let mut heap = EventHeap::from_events(Vec::new());
        assert_eq!(heap.len(), 0);
        assert!(heap.is_empty());
        assert!(heap.next_wave().is_none());
        assert!(heap.pop().is_none());
    }

    #[test]
    fn len_counts_the_events_still_queued() {
        let mut heap = EventHeap::from_events(vec![
            event(0, Phase::Sync, 0),
            event(0, Phase::Sync, 1),
            event(5, Phase::Sync, 0),
            event(5, Phase::Idle, 1),
        ]);
        let mut remaining = vec![heap.len()];
        while let Some(wave) = heap.next_wave() {
            let lent = wave.events.len();
            remaining.push(heap.len());
            assert_eq!(remaining[remaining.len() - 2] - heap.len(), lent);
        }
        assert_eq!(remaining, vec![4, 2, 1, 0]);
    }

    #[test]
    fn pop_and_next_wave_share_one_cursor() {
        let mut heap = EventHeap::from_events(vec![
            event(0, Phase::Sync, 2),
            event(0, Phase::Sync, 0),
            event(0, Phase::Sync, 1),
            event(9, Phase::Sync, 1),
            event(9, Phase::Sync, 3),
        ]);
        // A popped event is gone from the wave that would have held it...
        assert_eq!(heap.pop().map(|e| e.client), Some(0));
        assert_eq!(heap.next_wave().expect("two events at t=0").clients(), vec![1, 2]);
        // ...and a wave starts at whatever the cursor points to, so client
        // 1's second event now opens a wave instead of ending one.
        assert_eq!(heap.pop().map(|e| e.client), Some(1));
        assert_eq!(heap.next_wave().expect("one event left").clients(), vec![3]);
        assert_eq!(heap.len(), 0);
        assert!(heap.pop().is_none() && heap.next_wave().is_none());
    }

    #[test]
    fn derivation_is_pure_and_covers_the_whole_schedule() {
        let spec = FleetSpec::new(ServiceProfile::dropbox(), 4)
            .with_files(2, 8 * 1024)
            .with_batches(3)
            .with_seed(7)
            .with_activation(0.5);
        let schedule = spec.schedule();
        let mut a = EventHeap::derive(&spec, &schedule);
        let mut b = EventHeap::derive(&spec, &schedule);
        let drain = |h: &mut EventHeap| std::iter::from_fn(|| h.pop()).collect::<Vec<_>>();
        let (ea, eb) = (drain(&mut a), drain(&mut b));
        assert_eq!(ea, eb, "derivation must be a pure function of (spec, schedule)");
        // Every schedule entry surfaces as exactly one sync or idle event,
        // plus one GC event per round.
        let syncs = ea.iter().filter(|e| e.phase == Phase::Sync).count();
        let idles = ea.iter().filter(|e| e.phase == Phase::Idle).count();
        let gcs = ea.iter().filter(|e| e.phase == Phase::Gc).count();
        assert_eq!(syncs, schedule.clients.iter().map(|c| c.sync_rounds()).sum::<usize>());
        assert_eq!(idles, schedule.total_idle_rounds());
        assert_eq!(gcs, spec.rounds);
    }

    #[test]
    fn derivation_emits_restore_and_leave_events_for_the_configured_slots() {
        let spec = FleetSpec::new(ServiceProfile::dropbox(), 5)
            .with_files(2, 8 * 1024)
            .with_batches(4)
            .with_seed(11)
            .with_churn(0, 1)
            .with_restore_fan(1, 2);
        let schedule = spec.schedule();
        let mut heap = EventHeap::derive(&spec, &schedule);
        let events: Vec<FleetEvent> = std::iter::from_fn(|| heap.pop()).collect();
        let leaver = 0; // with_churn assigns leavers from slot 0 upward
        let puller = spec.slots.len() - 1; // restore fans from the last slot downward
        assert_eq!(
            events.iter().filter(|e| e.phase == Phase::Leave).map(|e| e.client).collect::<Vec<_>>(),
            vec![leaver]
        );
        let restores: Vec<usize> =
            events.iter().filter(|e| e.phase == Phase::Restore).map(|e| e.client).collect();
        assert!(!restores.is_empty(), "the puller syncs at least once in four rounds");
        assert!(restores.iter().all(|&c| c == puller));
        // Each restore event pairs a sync event of the same client and round.
        for e in events.iter().filter(|e| e.phase == Phase::Restore) {
            assert!(events
                .iter()
                .any(|s| s.phase == Phase::Sync && s.client == e.client && s.round == e.round));
        }
    }
}
