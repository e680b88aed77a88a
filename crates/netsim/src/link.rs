//! Named access-link presets for heterogeneous client fleets.
//!
//! The paper measures every service from one campus vantage point (1 Gb/s
//! Ethernet) and notes that the access link and the client's distance to the
//! data centre dominate user-perceived performance (§5.2). A fleet of
//! simulated users therefore needs *per-client* access links: this module
//! provides the small library of named presets the heterogeneous scenarios
//! draw from — the paper's campus testbed plus the residential ADSL, FTTH
//! and mobile profiles of the era.
//!
//! An [`AccessLink`] composes onto any server [`PathSpec`]: bandwidths take
//! the bottleneck minimum, the access RTT adds to the path RTT, and loss
//! rates combine as independent events. Composition is pure, so the same
//! deployment recipe yields deterministic, per-client-distinct topologies.

use crate::path::PathSpec;
use cloudsim_trace::SimDuration;
use serde::Serialize;

/// One access-link profile between a client and its ISP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccessLink {
    /// Human-readable preset name (stable: used in reports and metrics keys).
    pub name: &'static str,
    /// Upstream bandwidth in bits per second.
    pub up_bandwidth: u64,
    /// Downstream bandwidth in bits per second.
    pub down_bandwidth: u64,
    /// Extra round-trip time the access link adds to every path.
    pub access_rtt: SimDuration,
    /// Steady-state segment loss rate on the access link.
    pub loss: f64,
}

impl AccessLink {
    /// A symmetric link: the same bandwidth in both directions. The
    /// constructor every symmetric preset (and any custom symmetric
    /// scenario) goes through, so call sites never have to spell the same
    /// figure twice.
    pub const fn symmetric(
        name: &'static str,
        bandwidth: u64,
        access_rtt: SimDuration,
        loss: f64,
    ) -> AccessLink {
        AccessLink { name, up_bandwidth: bandwidth, down_bandwidth: bandwidth, access_rtt, loss }
    }

    /// An asymmetric link with an explicit up/down split (residential and
    /// mobile profiles). The restore suite is where the `down` side finally
    /// earns its keep.
    pub const fn asymmetric(
        name: &'static str,
        up_bandwidth: u64,
        down_bandwidth: u64,
        access_rtt: SimDuration,
        loss: f64,
    ) -> AccessLink {
        AccessLink { name, up_bandwidth, down_bandwidth, access_rtt, loss }
    }

    /// The paper's testbed: campus Fast Ethernet behind a 1 Gb/s uplink.
    /// Composing it is the identity for every realistic server path.
    pub const fn campus() -> AccessLink {
        AccessLink::symmetric("campus", 1_000_000_000, SimDuration::ZERO, 0.0)
    }

    /// Fibre to the home: fast, symmetric, a couple of milliseconds away.
    pub const fn fiber() -> AccessLink {
        AccessLink::symmetric("fiber", 100_000_000, SimDuration::from_millis(2), 0.0)
    }

    /// Residential ADSL2+: the 1 Mb/s up / 8 Mb/s down split typical of the
    /// paper's era, with interleaving latency.
    pub const fn adsl() -> AccessLink {
        AccessLink::asymmetric("adsl", 1_000_000, 8_000_000, SimDuration::from_millis(30), 0.0)
    }

    /// 3G/HSPA mobile: asymmetric, high-latency and lossy — the profile the
    /// Mathis throughput ceiling actually bites on.
    pub const fn mobile3g() -> AccessLink {
        AccessLink::asymmetric("3g", 1_500_000, 4_000_000, SimDuration::from_millis(90), 0.005)
    }

    /// Every preset, in a stable order.
    pub const fn all() -> [AccessLink; 4] {
        [AccessLink::campus(), AccessLink::fiber(), AccessLink::adsl(), AccessLink::mobile3g()]
    }

    /// Looks a preset up by its stable name.
    pub fn by_name(name: &str) -> Option<AccessLink> {
        AccessLink::all().into_iter().find(|l| l.name == name)
    }

    /// Composes this access link onto a server path: bottleneck-minimum
    /// bandwidths, summed RTTs, independently combined loss, and the
    /// server path's jitter setting.
    pub fn apply(&self, path: PathSpec) -> PathSpec {
        PathSpec {
            rtt: path.rtt + self.access_rtt,
            up_bandwidth: path.up_bandwidth.min(self.up_bandwidth),
            down_bandwidth: path.down_bandwidth.min(self.down_bandwidth),
            rtt_jitter: path.rtt_jitter,
            loss: 1.0 - (1.0 - path.loss) * (1.0 - self.loss),
            segment_drops: path.segment_drops,
        }
    }
}

impl Default for AccessLink {
    fn default() -> Self {
        AccessLink::campus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_composition_is_the_identity_on_realistic_paths() {
        let path = PathSpec::symmetric(SimDuration::from_millis(100), 100_000_000);
        assert_eq!(AccessLink::campus().apply(path), path);
    }

    #[test]
    fn adsl_caps_upstream_and_adds_latency() {
        let server = PathSpec::symmetric(SimDuration::from_millis(100), 100_000_000);
        let path = AccessLink::adsl().apply(server);
        assert_eq!(path.up_bandwidth, 1_000_000);
        assert_eq!(path.down_bandwidth, 8_000_000);
        assert_eq!(path.rtt, SimDuration::from_millis(130));
        assert_eq!(path.loss, 0.0);
    }

    #[test]
    fn mobile_loss_combines_with_path_loss() {
        let server = PathSpec::symmetric(SimDuration::from_millis(50), 50_000_000).with_loss(0.001);
        let path = AccessLink::mobile3g().apply(server);
        assert!((path.loss - (1.0 - 0.999 * 0.995)).abs() < 1e-12);
        // The composed path is slower than either constraint alone suggests:
        // loss caps it below the 1.5 Mb/s radio bearer.
        assert!(path.effective_up_bandwidth() < 1_500_000);
    }

    #[test]
    fn constructors_pin_the_preset_values() {
        // The presets route through symmetric()/asymmetric(); their values
        // are baseline-bearing (hetero.* metrics) and must not drift.
        let campus = AccessLink::campus();
        assert_eq!(campus.up_bandwidth, 1_000_000_000);
        assert_eq!(campus.up_bandwidth, campus.down_bandwidth);
        let fiber = AccessLink::fiber();
        assert_eq!(fiber.up_bandwidth, fiber.down_bandwidth);
        let adsl = AccessLink::adsl();
        assert_eq!((adsl.up_bandwidth, adsl.down_bandwidth), (1_000_000, 8_000_000));
        let mobile = AccessLink::mobile3g();
        assert_eq!((mobile.up_bandwidth, mobile.down_bandwidth), (1_500_000, 4_000_000));
        // Custom links compose like presets.
        let custom = AccessLink::symmetric("lab", 10_000_000, SimDuration::from_millis(1), 0.0);
        assert_eq!(custom.up_bandwidth, custom.down_bandwidth);
        let split = AccessLink::asymmetric("vdsl", 5_000_000, 50_000_000, SimDuration::ZERO, 0.0);
        assert_eq!(split.down_bandwidth / split.up_bandwidth, 10);
    }

    #[test]
    fn presets_resolve_by_stable_name() {
        for preset in AccessLink::all() {
            assert_eq!(AccessLink::by_name(preset.name), Some(preset));
        }
        assert_eq!(AccessLink::by_name("dialup"), None);
        assert_eq!(AccessLink::default(), AccessLink::campus());
    }
}
