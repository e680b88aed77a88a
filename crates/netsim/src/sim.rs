//! The simulator: virtual clock, RNG and trace capture for one experiment run.

use crate::rng::SimRng;
use cloudsim_trace::{PacketRecord, SimTime, TraceShard, TraceView};

/// State shared by every protocol operation of one experiment run.
///
/// The simulator does not own an event loop: protocol operations (TCP
/// connection establishment, request/response exchanges, …) are *analytic* —
/// each takes an explicit start time, computes its completion time from the
/// path model, and records the packets it generated. `Simulator` tracks the
/// furthest point in virtual time any operation has reached, provides the
/// deterministic random stream, and owns its private capture shard — plain
/// owned data, so a long-lived client migrates between round workers by
/// moving its simulator, with no lock on the packet path.
#[derive(Debug, Clone)]
pub struct Simulator {
    now: SimTime,
    rng: SimRng,
    shard: TraceShard,
}

impl Simulator {
    /// Creates a simulator with a fresh capture shard and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator { now: SimTime::ZERO, rng: SimRng::new(seed), shard: TraceShard::new() }
    }

    /// The furthest point in virtual time reached so far.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the high-water mark of virtual time. Passing an earlier time
    /// is a no-op (several concurrent operations may finish out of order).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Mutable access to the deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Read view of the capture so far (insertion order).
    pub fn trace(&self) -> TraceView<'_> {
        self.shard.view()
    }

    /// The capture shard, for protocol endpoints that allocate flows and
    /// record packets.
    pub fn trace_mut(&mut self) -> &mut TraceShard {
        &mut self.shard
    }

    /// Convenience: snapshot of the captured packets in canonical
    /// `(timestamp, flow, seq)` order.
    pub fn packets(&self) -> Vec<PacketRecord> {
        self.shard.view().sorted()
    }

    /// Consumes the simulator, returning the captured packets in canonical
    /// order without cloning.
    pub fn into_packets(self) -> Vec<PacketRecord> {
        self.shard.into_packets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_a_high_water_mark() {
        let mut sim = Simulator::new(1);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.advance_to(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.advance_to(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(5), "clock never goes backwards");
        sim.advance_to(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn simulators_with_same_seed_share_random_stream() {
        let mut a = Simulator::new(77);
        let mut b = Simulator::new(77);
        assert_eq!(a.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    fn trace_starts_empty() {
        let sim = Simulator::new(1);
        assert!(sim.trace().is_empty());
        assert!(sim.packets().is_empty());
        assert!(sim.into_packets().is_empty());
    }
}
