//! The event queue of the population-scale drivers: commit events sorted
//! once by `(timestamp, phase, client id, round)`.
//!
//! The fleet-scale runner ([`crate::scale`]), the capture lowering
//! ([`crate::capture`]) and the partition runner ([`crate::partition`])
//! derive every commit of a population up front — from a spec's seeded
//! draws or from a parsed capture — as one [`FleetEvent`] each, and need
//! them in one total order. The full-fidelity fleet ([`crate::fleet`])
//! needs no queue: its rounds order it, and it runs each round's syncs as
//! one parallel wave.
//!
//! ## Sort once, never push
//!
//! [`EventHeap`] keeps its historical name but is not a binary heap: it is
//! the event list sorted once plus a cursor. Every driver derives *all* of
//! its events from pure data before the first one fires, and no event
//! handler ever schedules another, so nothing is pushed after construction
//! and a heap's per-pop sift buys nothing. If a driver ever needs to
//! schedule events dynamically, that is the day a `push` (and a real heap)
//! earns its place again.
//!
//! ## Determinism
//!
//! The queue order is a *total* order: ties at equal timestamps resolve by
//! client id and then by round, so two derivations of the same population
//! replay the same event sequence whatever the insertion order was.
//!
//! ## Waves
//!
//! A *wave* is a maximal run of consecutive events in which every client
//! appears at most once: events whose clients could run in parallel
//! without a client racing itself. No driver executes waves. The scale
//! path only ever commits, and commits commute, so it walks its sorted
//! events straight through; the partition suite reports `wave_count` as
//! the price of merging partitions' streams.
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
//! // Ties at t=0 resolve by client id; the later instant comes last.
//! let order: Vec<(usize, usize)> =
//!     std::iter::from_fn(|| heap.pop()).map(|e| (e.client, e.round)).collect();
//! assert_eq!(order, vec![(0, 0), (1, 0), (0, 1)]);
//! assert!(heap.is_empty());
//! ```

use cloudsim_trace::SimTime;

/// What kind of work a [`FleetEvent`] performs when it fires. Every
/// driver's events are commits; `perf/`'s engine rows build the one
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The client commits one batch into the shared store.
    Sync,
}

/// One entry of the event queue: fire `phase` for `client` at virtual time
/// `at`. `round` is the client's commit index, which breaks the last ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Virtual instant the event fires at.
    pub at: SimTime,
    /// What the event does.
    pub phase: Phase,
    /// The client the event touches.
    pub client: usize,
    /// The client's commit index.
    pub round: usize,
}

impl FleetEvent {
    /// The total-order key: `(timestamp, phase, client id)`, with the
    /// round as a final disambiguator so the order is total even if two of
    /// a client's seeded instants ever collide to the same microsecond —
    /// two events of one population never compare equal unless they are
    /// the same event.
    pub(crate) fn key(&self) -> (SimTime, Phase, usize, usize) {
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

/// A maximal run of consecutive events with pairwise-distinct clients,
/// lent out of the queue as one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventWave<'a> {
    /// The wave's events, in key order — a slice of the queue's own sorted
    /// array, so popping a wave allocates nothing.
    pub events: &'a [FleetEvent],
}

/// The time-ordered event queue: the event list sorted once by
/// `FleetEvent::key` plus a cursor (see the module docs).
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

    /// Events still queued.
    pub(crate) fn len(&self) -> usize {
        self.events.len() - self.next
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the single next event in key order.
    pub fn pop(&mut self) -> Option<FleetEvent> {
        let event = *self.events.get(self.next)?;
        self.next += 1;
        Some(event)
    }

    /// Pops the next wave: the maximal run of consecutive events in which
    /// every client appears at most once. A repeated client ends the wave
    /// (its later event depends on its earlier one).
    #[doc(hidden)]
    pub fn next_wave(&mut self) -> Option<EventWave<'_>> {
        let rest = &self.events[self.next..];
        let wave = &rest[..leading_wave(rest, &mut self.seen)];
        self.next += wave.len();
        (!wave.is_empty()).then_some(EventWave { events: wave })
    }
}

/// Which clients the wave being segmented already holds: `stamp[client]`
/// equals the current generation exactly when the client is in it, so
/// starting a wave is one increment rather than a table clear, and
/// membership is an index rather than a hash. The table grows to the
/// largest client id it is asked about.
#[derive(Debug, Default)]
struct SeenClients {
    stamp: Vec<u32>,
    generation: u32,
}

impl SeenClients {
    /// Forgets every client (a new wave starts).
    fn clear(&mut self) {
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
        if client >= self.stamp.len() {
            self.stamp.resize(client + 1, 0);
        }
        let stamp = std::mem::replace(&mut self.stamp[client], self.generation);
        stamp != self.generation
    }
}

/// The length of the wave at the head of `events` (given in key order): it
/// runs until a client repeats. The one segmentation rule, shared by
/// [`EventHeap::next_wave`] and [`wave_count`]; `seen` is caller-owned
/// scratch.
fn leading_wave(events: &[FleetEvent], seen: &mut SeenClients) -> usize {
    seen.clear();
    events.iter().take_while(|ev| seen.insert(ev.client)).count()
}

/// The number of waves [`EventHeap::next_wave`] would pop for `events`
/// given in key order. The partition runner uses this to price wave
/// fragmentation — how many more waves a merged event stream splits into
/// than the sum of its partitions' streams — without re-driving a queue.
pub(crate) fn wave_count(mut events: &[FleetEvent]) -> usize {
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

    fn event(at_secs: u64, client: usize) -> FleetEvent {
        FleetEvent { at: SimTime::from_secs(at_secs), phase: Phase::Sync, client, round: 0 }
    }

    /// The client ids of `wave`, in event order.
    fn clients(wave: EventWave) -> Vec<usize> {
        wave.events.iter().map(|e| e.client).collect()
    }

    /// Drains `heap` wave by wave (a wave borrows the queue, so the waves
    /// cannot be collected through an iterator adaptor).
    fn drain_waves(mut heap: EventHeap) -> Vec<Vec<usize>> {
        let mut waves = Vec::new();
        while let Some(wave) = heap.next_wave() {
            waves.push(clients(wave));
        }
        waves
    }

    #[test]
    fn ties_at_equal_timestamps_resolve_by_client_id() {
        // Pinned: the total order at one instant is the client id, whatever
        // the insertion order.
        let mut heap =
            EventHeap::from_events(vec![event(5, 3), event(5, 0), event(5, 2), event(5, 1)]);
        let popped: Vec<usize> = std::iter::from_fn(|| heap.pop()).map(|e| e.client).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timestamps_dominate_phases_and_clients() {
        let late_round = FleetEvent { round: 1, ..event(0, 5) };
        let mut heap = EventHeap::from_events(vec![event(60, 0), late_round, event(0, 5)]);
        let keys: Vec<(u64, usize, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at.as_secs_f64() as u64, e.client, e.round))
            .collect();
        assert_eq!(keys, vec![(0, 5, 0), (0, 5, 1), (60, 0, 0)]);
    }

    #[test]
    fn waves_batch_distinct_clients_and_break_on_repeats_and_phase_changes() {
        // With one phase, only a repeated client breaks a wave.
        let heap = EventHeap::from_events(vec![
            event(0, 0),
            event(0, 1),
            event(10, 2),
            event(20, 0), // repeat of client 0: new wave
            event(20, 3),
            event(30, 3), // repeat of client 3: new wave
        ]);
        assert_eq!(drain_waves(heap), vec![vec![0, 1, 2], vec![0, 3], vec![3]]);
    }

    #[test]
    fn wave_count_matches_the_heap_segmentation() {
        let events = vec![event(0, 0), event(0, 1), event(10, 2), event(20, 0), event(30, 0)];
        let popped = drain_waves(EventHeap::from_events(events.clone())).len();
        let mut sorted = events;
        sorted.sort();
        assert_eq!(wave_count(&sorted), popped);
        assert_eq!(popped, 3);
        assert_eq!(wave_count(&[]), 0);
    }

    #[test]
    fn client_ids_far_above_the_event_count_grow_the_stamp_table() {
        // Three events, ids up to a million: the table is sized by the
        // largest id seen, not by the number of events.
        let far = 1_000_000;
        let events = vec![event(0, far), event(0, 2), event(5, far)];
        let mut sorted = events.clone();
        sorted.sort();
        assert_eq!(wave_count(&sorted), 2);
        assert_eq!(drain_waves(EventHeap::from_events(events)), vec![vec![2, far], vec![far]]);
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
        let mut heap =
            EventHeap::from_events(vec![event(0, 0), event(0, 1), event(5, 0), event(9, 0)]);
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
            event(0, 2),
            event(0, 0),
            event(0, 1),
            event(9, 1),
            event(9, 3),
        ]);
        // A popped event is gone from the wave that would have held it...
        assert_eq!(heap.pop().map(|e| e.client), Some(0));
        assert_eq!(clients(heap.next_wave().expect("two events at t=0")), vec![1, 2]);
        // ...and a wave starts at whatever the cursor points to, so client
        // 1's second event now opens a wave instead of ending one.
        assert_eq!(heap.pop().map(|e| e.client), Some(1));
        assert_eq!(clients(heap.next_wave().expect("one event left")), vec![3]);
        assert_eq!(heap.len(), 0);
        assert!(heap.pop().is_none() && heap.next_wave().is_none());
    }
}
