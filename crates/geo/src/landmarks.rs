//! Landmark hosts and the RTT model.
//!
//! §2.1: the study geolocates servers using "the shortest Round Trip Time
//! (RTT) to PlanetLab nodes", citing prior work that such constraint-based
//! methods are accurate to roughly a hundred kilometres. The landmark set
//! here plays the role of PlanetLab: one probe host per catalogue city, and
//! an RTT model that converts great-circle distance into a plausible
//! round-trip time (propagation at ~2/3 c over a somewhat indirect path, plus
//! a small access/queueing floor).

use crate::coords::{GeoPoint, WORLD_CITIES};
use cloudsim_workload::seed::Stream;

/// One landmark probe host.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Landmark {
    /// Host name of the probe.
    pub(crate) name: String,
    /// Location of the probe.
    pub(crate) location: GeoPoint,
}

/// Speed-of-light factor: fibre propagation is ~2/3 c and paths are not
/// geodesics, giving roughly 1 ms of RTT per 100 km as a rule of thumb.
const MS_PER_KM: f64 = 0.0105;

/// Minimum RTT floor (last-mile, serialisation, processing) in milliseconds.
const FLOOR_MS: f64 = 1.5;

/// Models the RTT in milliseconds between two points, with a deterministic
/// multiplicative jitter drawn from `seed` (path inflation varies per pair).
pub(crate) fn rtt_between(a: GeoPoint, b: GeoPoint, seed: u64) -> f64 {
    let distance = a.distance_km(&b);
    let inflation = Stream::new(seed).uniform(1.0, 1.35);
    FLOOR_MS + distance * MS_PER_KM * inflation
}

/// The full landmark set.
#[derive(Debug, Clone)]
pub(crate) struct LandmarkSet {
    landmarks: Vec<Landmark>,
}

impl LandmarkSet {
    /// Builds the default set: one landmark per catalogue city.
    pub(crate) fn planetlab_like() -> Self {
        let landmarks = WORLD_CITIES
            .iter()
            .map(|c| Landmark {
                name: format!(
                    "planetlab1.{}.{}.example",
                    c.airport.to_lowercase(),
                    c.country.to_lowercase()
                ),
                location: c.location,
            })
            .collect();
        LandmarkSet { landmarks }
    }

    /// Number of landmarks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True when the set is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Measures the RTT from every landmark to a target location and returns
    /// `(landmark index, rtt in ms)` pairs, as the measurement campaign would.
    pub(crate) fn probe(&self, target: GeoPoint, seed: u64) -> Vec<(usize, f64)> {
        self.landmarks
            .iter()
            .enumerate()
            .map(|(i, lm)| {
                (i, rtt_between(lm.location, target, seed.wrapping_add(i as u64 * 31 + 7)))
            })
            .collect()
    }

    /// The landmark with the shortest RTT to the target.
    pub(crate) fn closest(&self, target: GeoPoint, seed: u64) -> Option<(&Landmark, f64)> {
        self.probe(target, seed)
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(i, rtt)| (&self.landmarks[i], rtt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::city_by_airport;

    #[test]
    fn rtt_grows_with_distance_and_has_a_floor() {
        let ams = city_by_airport("AMS").unwrap().location;
        let fra = city_by_airport("FRA").unwrap().location;
        let syd = city_by_airport("SYD").unwrap().location;
        let near = rtt_between(ams, fra, 1);
        let far = rtt_between(ams, syd, 1);
        assert!(near < far);
        assert!(near > FLOOR_MS);
        assert!((140.0..350.0).contains(&far), "AMS-SYD rtt {far}");
        // Same location: only the floor remains.
        let same = rtt_between(ams, ams, 1);
        assert!((FLOOR_MS..FLOOR_MS + 0.5).contains(&same));
        // Deterministic per seed.
        assert_eq!(rtt_between(ams, syd, 5), rtt_between(ams, syd, 5));
    }

    #[test]
    fn transatlantic_rtt_is_realistic() {
        // The paper reports ~100-120 ms from the Dutch testbed to US-east
        // data centres and ~160 ms to the US west coast.
        let ams = city_by_airport("AMS").unwrap().location;
        let ashburn = city_by_airport("IAD").unwrap().location;
        let seattle = city_by_airport("SEA").unwrap().location;
        let east = rtt_between(ams, ashburn, 3);
        let west = rtt_between(ams, seattle, 3);
        assert!((60.0..130.0).contains(&east), "AMS-IAD rtt {east}");
        assert!((85.0..210.0).contains(&west), "AMS-SEA rtt {west}");
        assert!(west > east);
    }

    #[test]
    fn landmark_set_covers_the_catalogue() {
        let set = LandmarkSet::planetlab_like();
        assert_eq!(set.len(), WORLD_CITIES.len());
        assert!(!set.is_empty());
        assert!(set.landmarks[0].name.contains("planetlab"));
    }

    #[test]
    fn closest_landmark_is_the_colocated_one() {
        let set = LandmarkSet::planetlab_like();
        let zurich = city_by_airport("ZRH").unwrap().location;
        let (closest, rtt) = set.closest(zurich, 42).unwrap();
        assert!(closest.name.contains("zrh"), "closest was {}", closest.name);
        assert!(rtt < 10.0);
        let probes = set.probe(zurich, 42);
        assert_eq!(probes.len(), set.len());
    }
}
