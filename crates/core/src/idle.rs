//! Idle / background traffic (§3.1 of the paper, Fig. 1).
//!
//! The experiment starts the application, lets it authenticate, and then
//! leaves it idle while capturing traffic. Fig. 1 plots the cumulative bytes
//! exchanged with control servers over the first 16 minutes; the §3.1 text
//! derives each service's polling interval and signalling rate from the same
//! data.

use crate::testbed::Testbed;
use cloudsim_services::ServiceProfile;
use cloudsim_trace::{SimDuration, SimTime};

/// The Fig. 1 series for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleSeries {
    /// Service name.
    pub(crate) service: String,
    /// `(minutes since start, cumulative kB exchanged with control servers)`.
    pub(crate) points: Vec<(f64, f64)>,
    /// Total control-plane bytes over the observation window.
    pub total_bytes: u64,
    /// Steady-state signalling rate in bits per second (excluding login).
    pub(crate) steady_rate_bps: f64,
    /// Estimated background volume per day in megabytes, at the steady rate.
    pub megabytes_per_day: f64,
}

/// Runs the idle experiment for one service over `horizon`.
pub fn idle_traffic_for(
    testbed: &Testbed,
    profile: &ServiceProfile,
    horizon: SimDuration,
    step: SimDuration,
) -> IdleSeries {
    let (login_done, packets) = testbed.run_scripted(profile, 0, |sim, client, t0| {
        client.idle_until(sim, SimTime::ZERO + horizon);
        t0
    });

    // Fig. 1 counts traffic towards control servers; keep-alive/notification
    // channels are control-plane traffic in this accounting. The same
    // predicate feeds the fleet scheduler's background-vs-payload split, so
    // idle rounds inside fleet runs are counted exactly like this capture.
    let control_packets: Vec<_> = packets.iter().filter(|p| p.kind.is_control_plane()).collect();

    let mut points = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + horizon;
    while t <= end {
        let cumulative: u64 =
            control_packets.iter().filter(|p| p.timestamp <= t).map(|p| p.wire_len()).sum();
        points.push((t.as_secs_f64() / 60.0, cumulative as f64 / 1000.0));
        if t == end {
            break;
        }
        t = (t + step).min(end);
    }

    let total_bytes: u64 = control_packets.iter().map(|p| p.wire_len()).sum();
    let after_login: u64 =
        control_packets.iter().filter(|p| p.timestamp > login_done).map(|p| p.wire_len()).sum();
    let steady_window = (horizon - (login_done - SimTime::ZERO)).as_secs_f64().max(1.0);
    let steady_rate_bps = after_login as f64 * 8.0 / steady_window;
    IdleSeries {
        service: profile.name().to_string(),
        points,
        total_bytes,
        steady_rate_bps,
        megabytes_per_day: steady_rate_bps / 8.0 * 86_400.0 / 1_000_000.0,
    }
}

/// Runs the Fig. 1 experiment (16 minutes, 1-minute sampling) for every
/// service.
pub fn idle_traffic_series(testbed: &Testbed) -> Vec<IdleSeries> {
    ServiceProfile::all()
        .into_iter()
        .map(|p| {
            idle_traffic_for(
                testbed,
                &p,
                SimDuration::from_secs(16 * 60),
                SimDuration::from_secs(60),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_series_reproduces_fig1_ordering() {
        let testbed = Testbed::new(23);
        let series = idle_traffic_series(&testbed);
        assert_eq!(series.len(), 5);
        let get = |name: &str| series.iter().find(|s| s.service == name).unwrap();

        // SkyDrive's login alone is ~4x the others (Fig. 1 text).
        let skydrive = get("SkyDrive");
        let dropbox = get("Dropbox");
        assert!(skydrive.points[1].1 > 100.0, "SkyDrive login kB {}", skydrive.points[1].1);
        assert!(skydrive.points[1].1 > 2.0 * dropbox.points[1].1);

        // Cloud Drive's cumulative curve keeps climbing steeply: ~65 MB/day.
        let clouddrive = get("Cloud Drive");
        assert!(clouddrive.megabytes_per_day > 30.0, "{} MB/day", clouddrive.megabytes_per_day);
        assert!(clouddrive.megabytes_per_day < 150.0);
        for name in ["Dropbox", "SkyDrive", "Wuala", "Google Drive"] {
            assert!(get(name).megabytes_per_day < 5.0, "{name} too chatty");
        }

        // Wuala is the most silent after login.
        let wuala = get("Wuala");
        assert!(wuala.steady_rate_bps < dropbox.steady_rate_bps);
        assert!(wuala.steady_rate_bps < 1_000.0);

        // §3.1's signalling rates: Cloud Drive above 4 kb/s and an order of
        // magnitude above Dropbox, the other four in the tens of b/s. (The
        // paper's Dropbox > Wuala > Google Drive > SkyDrive ranking does not
        // hold here: Wuala and Google Drive measure within 1 b/s of each
        // other, in the reverse order.)
        let rate = clouddrive.steady_rate_bps;
        assert!(rate > 4_000.0, "cloud drive {rate} b/s");
        assert!(rate > 10.0 * dropbox.steady_rate_bps);
        for name in ["Dropbox", "SkyDrive", "Wuala", "Google Drive"] {
            let rate = get(name).steady_rate_bps;
            assert!((20.0..200.0).contains(&rate), "{name} idle rate {rate} b/s");
        }

        // Series are monotone non-decreasing and span 16 minutes.
        for s in &series {
            assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1), "{} not monotone", s.service);
            assert!((s.points.last().unwrap().0 - 16.0).abs() < 1e-9);
            assert!(s.total_bytes > 0);
        }
    }

    #[test]
    fn custom_horizon_and_step() {
        let testbed = Testbed::new(29);
        let series = idle_traffic_for(
            &testbed,
            &ServiceProfile::google_drive(),
            SimDuration::from_secs(120),
            SimDuration::from_secs(30),
        );
        assert_eq!(series.points.len(), 5); // 0, 30, 60, 90, 120 s
        assert!(series.steady_rate_bps > 0.0);
    }
}
