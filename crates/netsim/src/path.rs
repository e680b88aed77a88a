//! Network path characteristics between the test computer and a server.
//!
//! The paper's single-file results are dominated by the RTT between the
//! European testbed and each provider's data centres (§5.2: "the distance
//! between our testbed and the data centers dominates the metric"), so the
//! path model carries per-destination RTT and asymmetric bandwidth, plus an
//! RTT jitter knob that gives the 24 experiment repetitions realistic
//! variance.

use crate::rng::SimRng;
use cloudsim_trace::SimDuration;
use serde::Serialize;

/// Maximum segment payload assumed by the loss model, matching the
/// simulator's Ethernet MSS (`cloudsim_trace::packet::MSS`).
const LOSS_MODEL_MSS_BITS: f64 = 1460.0 * 8.0;

/// Mathis constant `sqrt(3/2)` of the TCP loss-throughput relation.
const MATHIS_C: f64 = 1.224744871391589;

/// Path characteristics between the client and one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PathSpec {
    /// Base round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck bandwidth client → server in bits per second.
    pub up_bandwidth: u64,
    /// Bottleneck bandwidth server → client in bits per second.
    pub down_bandwidth: u64,
    /// Relative RTT jitter (0.0 = deterministic, 0.1 = ±10 %).
    pub rtt_jitter: f64,
    /// Steady-state segment loss rate (0.0 = lossless). Losses are modelled
    /// deterministically as a Mathis-formula throughput ceiling rather than
    /// random drops, keeping every simulation bit-reproducible.
    pub loss: f64,
    /// When true, the TCP model additionally draws seeded per-segment drops
    /// at the configured loss rate and pays a retransmission tail for each
    /// drop, instead of modelling loss purely as the analytic ceiling.
    /// Lossless paths draw nothing, so they stay bit-identical.
    #[serde(default)]
    pub segment_drops: bool,
}

impl PathSpec {
    /// A symmetric path with the same bandwidth in both directions and a
    /// default ±5 % RTT jitter.
    pub fn symmetric(rtt: SimDuration, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        PathSpec {
            rtt,
            up_bandwidth: bandwidth,
            down_bandwidth: bandwidth,
            rtt_jitter: 0.05,
            loss: 0.0,
            segment_drops: false,
        }
    }

    /// An asymmetric path (e.g. a residential up/down split).
    pub fn asymmetric(rtt: SimDuration, up: u64, down: u64) -> Self {
        assert!(up > 0 && down > 0, "bandwidth must be positive");
        PathSpec {
            rtt,
            up_bandwidth: up,
            down_bandwidth: down,
            rtt_jitter: 0.05,
            loss: 0.0,
            segment_drops: false,
        }
    }

    /// Returns a copy with a different jitter setting.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.rtt_jitter = jitter;
        self
    }

    /// Returns a copy with a steady-state segment loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = loss;
        self
    }

    /// Returns a copy with the seeded per-segment drop mode toggled (see
    /// [`PathSpec::segment_drops`]).
    pub fn with_segment_drops(mut self, on: bool) -> Self {
        self.segment_drops = on;
        self
    }

    /// The Mathis-formula throughput ceiling a long-lived TCP flow sustains
    /// at this path's RTT and loss rate: `MSS/RTT * C/sqrt(loss)` bits per
    /// second. `u64::MAX` when the path is lossless or latency-free.
    fn mathis_ceiling_bps(&self) -> u64 {
        if self.loss <= 0.0 || self.rtt.is_zero() {
            return u64::MAX;
        }
        let rtt_secs = self.rtt.as_secs_f64();
        let bps = LOSS_MODEL_MSS_BITS * MATHIS_C / (rtt_secs * self.loss.sqrt());
        (bps.max(1.0)).min(u64::MAX as f64) as u64
    }

    /// Effective client → server bandwidth after the loss ceiling.
    pub fn effective_up_bandwidth(&self) -> u64 {
        self.up_bandwidth.min(self.mathis_ceiling_bps())
    }

    /// Effective server → client bandwidth after the loss ceiling.
    pub fn effective_down_bandwidth(&self) -> u64 {
        self.down_bandwidth.min(self.mathis_ceiling_bps())
    }

    /// Samples the RTT for one exchange, applying jitter around the base.
    pub fn sample_rtt(&self, rng: &mut SimRng) -> SimDuration {
        if self.rtt_jitter == 0.0 || self.rtt.is_zero() {
            return self.rtt;
        }
        let jittered = rng.jitter(self.rtt.as_secs_f64(), self.rtt_jitter);
        SimDuration::from_secs_f64(jittered)
    }

    /// The bandwidth-delay product in bytes for the upload direction: how much
    /// data fits "in flight"; the TCP model stops growing its window beyond
    /// this point. Uses the loss-capped effective bandwidth so lossy links
    /// also bound the congestion window.
    pub fn bdp_bytes_up(&self) -> u64 {
        (self.effective_up_bandwidth() as f64 / 8.0 * self.rtt.as_secs_f64()).ceil() as u64
    }

    /// The bandwidth-delay product in bytes for the download direction — the
    /// in-flight bound a server filling the client's *downstream* pipe works
    /// against. On asymmetric links (ADSL's 1 up / 8 down split) this is
    /// several times [`PathSpec::bdp_bytes_up`], which is what lets restores
    /// run far faster than uploads on the same link.
    pub fn bdp_bytes_down(&self) -> u64 {
        (self.effective_down_bandwidth() as f64 / 8.0 * self.rtt.as_secs_f64()).ceil() as u64
    }
}

impl Default for PathSpec {
    fn default() -> Self {
        // The paper's testbed: 1 Gb/s campus Ethernet; a nearby server.
        PathSpec::symmetric(SimDuration::from_millis(20), 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_and_asymmetric_constructors() {
        let s = PathSpec::symmetric(SimDuration::from_millis(10), 1_000_000);
        assert_eq!(s.up_bandwidth, 1_000_000);
        assert_eq!(s.down_bandwidth, 1_000_000);
        let a = PathSpec::asymmetric(SimDuration::from_millis(10), 1_000_000, 8_000_000);
        assert_eq!(a.up_bandwidth, 1_000_000);
        assert_eq!(a.down_bandwidth, 8_000_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = PathSpec::symmetric(SimDuration::from_millis(10), 0);
    }

    #[test]
    fn jitter_configuration_is_validated() {
        let p = PathSpec::default().with_jitter(0.2);
        assert_eq!(p.rtt_jitter, 0.2);
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1)")]
    fn excessive_jitter_rejected() {
        let _ = PathSpec::default().with_jitter(1.0);
    }

    #[test]
    fn sampled_rtt_stays_within_jitter_band() {
        let p = PathSpec::symmetric(SimDuration::from_millis(100), 1_000_000).with_jitter(0.1);
        let mut rng = SimRng::new(7);
        for _ in 0..500 {
            let rtt = p.sample_rtt(&mut rng);
            assert!(rtt >= SimDuration::from_millis(90) && rtt <= SimDuration::from_millis(110));
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let p = PathSpec::symmetric(SimDuration::from_millis(50), 1_000_000).with_jitter(0.0);
        let mut rng = SimRng::new(7);
        assert_eq!(p.sample_rtt(&mut rng), SimDuration::from_millis(50));
    }

    #[test]
    fn bdp_matches_hand_computation() {
        // 100 Mb/s * 0.1 s = 10 Mb = 1.25 MB in flight.
        let p = PathSpec::symmetric(SimDuration::from_millis(100), 100_000_000);
        assert_eq!(p.bdp_bytes_up(), 1_250_000);
        assert_eq!(p.bdp_bytes_down(), 1_250_000);
        // An ADSL-style split: the downstream pipe holds 8x the bytes.
        let a = PathSpec::asymmetric(SimDuration::from_millis(100), 1_000_000, 8_000_000);
        assert_eq!(a.bdp_bytes_up(), 12_500);
        assert_eq!(a.bdp_bytes_down(), 100_000);
    }

    #[test]
    fn lossless_paths_run_at_line_rate() {
        let p = PathSpec::asymmetric(SimDuration::from_millis(50), 1_000_000, 8_000_000);
        assert_eq!(p.effective_up_bandwidth(), 1_000_000);
        assert_eq!(p.effective_down_bandwidth(), 8_000_000);
    }

    #[test]
    fn loss_caps_throughput_via_the_mathis_ceiling() {
        // 1 % loss at 100 ms RTT: 11680 * 1.2247 / (0.1 * 0.1) ≈ 1.43 Mb/s.
        let p = PathSpec::symmetric(SimDuration::from_millis(100), 100_000_000).with_loss(0.01);
        let eff = p.effective_up_bandwidth();
        assert!((1_400_000..1_500_000).contains(&eff), "effective {eff}");
        assert_eq!(eff, p.effective_down_bandwidth());
        // The ceiling also bounds the in-flight window.
        assert!(p.bdp_bytes_up() < PathSpec::symmetric(p.rtt, p.up_bandwidth).bdp_bytes_up());
        // A fat lossless pipe is untouched; a thin lossy pipe is already
        // bandwidth-bound so the ceiling never binds.
        let thin = PathSpec::symmetric(SimDuration::from_millis(10), 500_000).with_loss(0.001);
        assert_eq!(thin.effective_up_bandwidth(), 500_000);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1)")]
    fn excessive_loss_rejected() {
        let _ = PathSpec::default().with_loss(1.0);
    }

    #[test]
    fn lossless_paths_sample_identical_rtts_regardless_of_the_knob() {
        let plain = PathSpec::symmetric(SimDuration::from_millis(80), 10_000_000).with_jitter(0.1);
        let knobbed = plain.with_segment_drops(true);
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        for _ in 0..500 {
            assert_eq!(plain.sample_rtt(&mut a), knobbed.sample_rtt(&mut b));
        }
    }
}
