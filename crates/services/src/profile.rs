//! Service profiles: the behavioural parameters of each studied service.
//!
//! Every constant in the five constructors below is taken from (or calibrated
//! against) a statement in the paper; the relevant section is cited next to
//! each field group.

use cloudsim_geo::Provider;
use cloudsim_net::http::HttpOverhead;
use cloudsim_net::SimDuration;
use cloudsim_storage::{ChunkingStrategy, CompressionPolicy};
use serde::Serialize;

/// How a client maps files onto transport connections during an upload batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferMode {
    /// Files are bundled and pipelined over one reused storage connection
    /// (Dropbox, §4.2: "only Dropbox implements a file-bundling strategy").
    Bundled,
    /// One reused storage connection, but files are submitted sequentially and
    /// the client waits for an application-layer acknowledgement between files
    /// (SkyDrive, Wuala).
    SequentialWithAcks,
    /// A new TCP + SSL connection is opened for every file (Google Drive), and
    /// optionally extra control connections per file operation (Cloud Drive
    /// opens three, §4.2).
    ConnectionPerFile {
        /// Number of additional control connections opened per file operation.
        control_connections_per_file: u32,
    },
}

/// The full behavioural profile of one service.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceProfile {
    /// Which provider this profile models.
    pub provider: Provider,

    // --- Client capabilities (§4, Table 1) -------------------------------
    /// Chunking strategy (§4.1).
    pub chunking: ChunkingStrategy,
    /// How files map onto connections (§4.2).
    pub transfer_mode: TransferMode,
    /// Compression policy (§4.5).
    pub compression: CompressionPolicy,
    /// Client-side deduplication (§4.3).
    pub dedup: bool,
    /// Delta encoding of modified files (§4.4).
    pub delta_encoding: bool,

    // --- Network placement (§3.2, §5.2) -----------------------------------
    /// RTT from the (European) testbed to the control servers.
    pub control_rtt: SimDuration,
    /// RTT from the testbed to the storage front end.
    pub storage_rtt: SimDuration,
    /// Bottleneck bandwidth towards the control and storage servers alike,
    /// bits per second.
    pub bandwidth: u64,

    // --- Login and idle behaviour (§3.1, Fig. 1) ---------------------------
    /// Number of distinct control servers contacted during login (SkyDrive
    /// talks to ~13 Microsoft Live servers).
    pub login_servers: u32,
    /// Total bytes exchanged during login across all control servers.
    pub login_bytes: u64,
    /// Interval between keep-alive polls while idle.
    pub polling_interval: SimDuration,
    /// Application bytes exchanged per poll (request + response bodies).
    pub polling_bytes: u64,
    /// Whether every poll opens a brand-new HTTPS connection (Cloud Drive).
    pub polling_new_connection: bool,
    /// Whether the notification/keep-alive channel uses plain HTTP instead of
    /// HTTPS (Dropbox's notification protocol).
    pub notification_plain_http: bool,

    // --- Synchronisation timing (§5.1) -------------------------------------
    /// Base delay between a file change and the start of synchronisation.
    pub startup_delay: SimDuration,
    /// Additional start-up delay per file in the batch (SkyDrive "gets slower
    /// as batches increase").
    pub startup_delay_per_file: SimDuration,
    /// Client-side per-file processing time during upload (hashing, database
    /// commits, encryption).
    pub per_file_overhead: SimDuration,
    /// Server-side processing time charged per storage request.
    pub server_think: SimDuration,
    /// HTTP header overhead of the service's API.
    pub http_overhead: HttpOverhead,
}

impl ServiceProfile {
    /// Dropbox v2.0.8: the most sophisticated client of the study — 4 MB
    /// chunks, bundling, always-on compression, dedup and delta encoding; own
    /// control servers in San Jose, storage on Amazon in Northern Virginia.
    pub fn dropbox() -> ServiceProfile {
        ServiceProfile {
            provider: Provider::Dropbox,
            chunking: ChunkingStrategy::DROPBOX,
            transfer_mode: TransferMode::Bundled,
            compression: CompressionPolicy::Always,
            dedup: true,
            delta_encoding: true,
            control_rtt: SimDuration::from_millis(150),
            storage_rtt: SimDuration::from_millis(95),
            bandwidth: 45_000_000,
            login_servers: 3,
            login_bytes: 40_000,
            polling_interval: SimDuration::from_secs(60),
            polling_bytes: 515,
            polling_new_connection: false,
            notification_plain_http: true,
            startup_delay: SimDuration::from_millis(900),
            startup_delay_per_file: SimDuration::from_millis(30),
            per_file_overhead: SimDuration::from_millis(70),
            server_think: SimDuration::from_millis(40),
            http_overhead: HttpOverhead::DEFAULT,
        }
    }

    /// Microsoft SkyDrive v17.0: variable chunking, no bundling (sequential
    /// uploads with application-level acks), no compression/dedup/delta;
    /// storage near Seattle and control in Southern Virginia (~160 ms RTT);
    /// very chatty login (~150 kB over ~13 servers) and the slowest start-up.
    pub fn skydrive() -> ServiceProfile {
        ServiceProfile {
            provider: Provider::SkyDrive,
            chunking: ChunkingStrategy::VARIABLE,
            transfer_mode: TransferMode::SequentialWithAcks,
            compression: CompressionPolicy::Never,
            dedup: false,
            delta_encoding: false,
            control_rtt: SimDuration::from_millis(160),
            storage_rtt: SimDuration::from_millis(160),
            // A single 2013-era TCP connection across the Atlantic rarely
            // sustained more than ~10-15 Mb/s; the paper measures ~4 s for a
            // 1 MB upload to SkyDrive.
            bandwidth: 12_000_000,
            login_servers: 13,
            login_bytes: 150_000,
            polling_interval: SimDuration::from_secs(60),
            polling_bytes: 140,
            polling_new_connection: false,
            notification_plain_http: false,
            startup_delay: SimDuration::from_secs(9),
            startup_delay_per_file: SimDuration::from_millis(120),
            per_file_overhead: SimDuration::from_millis(40),
            server_think: SimDuration::from_millis(60),
            http_overhead: HttpOverhead::HEAVY,
        }
    }

    /// LaCie Wuala: client-side convergent encryption, variable chunking,
    /// dedup, no compression, no delta; European data centres only (~25 ms),
    /// the quietest idle behaviour (one poll every ~5 minutes).
    pub fn wuala() -> ServiceProfile {
        ServiceProfile {
            provider: Provider::Wuala,
            chunking: ChunkingStrategy::VARIABLE,
            transfer_mode: TransferMode::SequentialWithAcks,
            compression: CompressionPolicy::Never,
            dedup: true,
            delta_encoding: false,
            control_rtt: SimDuration::from_millis(25),
            storage_rtt: SimDuration::from_millis(25),
            bandwidth: 60_000_000,
            login_servers: 2,
            login_bytes: 35_000,
            polling_interval: SimDuration::from_secs(300),
            polling_bytes: 2_150,
            polling_new_connection: false,
            notification_plain_http: true,
            startup_delay: SimDuration::from_secs(5),
            startup_delay_per_file: SimDuration::from_millis(55),
            per_file_overhead: SimDuration::from_millis(110),
            server_think: SimDuration::from_millis(30),
            http_overhead: HttpOverhead::LEAN,
        }
    }

    /// Google Drive v1.9: 8 MB chunks, no bundling — one TCP and SSL
    /// connection per file — smart compression, no dedup, no delta; client TCP
    /// terminates at the closest Google edge node (~15 ms from the testbed).
    pub fn google_drive() -> ServiceProfile {
        ServiceProfile {
            provider: Provider::GoogleDrive,
            chunking: ChunkingStrategy::GOOGLE_DRIVE,
            transfer_mode: TransferMode::ConnectionPerFile { control_connections_per_file: 0 },
            compression: CompressionPolicy::Smart,
            dedup: false,
            delta_encoding: false,
            control_rtt: SimDuration::from_millis(15),
            storage_rtt: SimDuration::from_millis(15),
            bandwidth: 65_000_000,
            login_servers: 4,
            login_bytes: 38_000,
            polling_interval: SimDuration::from_secs(40),
            polling_bytes: 110,
            polling_new_connection: false,
            notification_plain_http: false,
            startup_delay: SimDuration::from_millis(2_500),
            startup_delay_per_file: SimDuration::from_millis(10),
            per_file_overhead: SimDuration::from_millis(35),
            server_think: SimDuration::from_millis(130),
            http_overhead: HttpOverhead::DEFAULT,
        }
    }

    /// Amazon Cloud Drive v2.0: the most simplistic client — no chunking, no
    /// bundling, no compression/dedup/delta; one storage connection per file
    /// plus *three* control connections per file operation; polls every 15 s
    /// over a fresh HTTPS connection (~65 MB of background traffic per day).
    pub fn cloud_drive() -> ServiceProfile {
        ServiceProfile {
            provider: Provider::CloudDrive,
            chunking: ChunkingStrategy::None,
            transfer_mode: TransferMode::ConnectionPerFile { control_connections_per_file: 3 },
            compression: CompressionPolicy::Never,
            dedup: false,
            delta_encoding: false,
            control_rtt: SimDuration::from_millis(30),
            storage_rtt: SimDuration::from_millis(95),
            bandwidth: 40_000_000,
            login_servers: 3,
            login_bytes: 36_000,
            polling_interval: SimDuration::from_secs(15),
            polling_bytes: 2_000,
            polling_new_connection: true,
            notification_plain_http: false,
            startup_delay: SimDuration::from_millis(3_500),
            startup_delay_per_file: SimDuration::from_millis(15),
            per_file_overhead: SimDuration::from_millis(30),
            server_think: SimDuration::from_millis(80),
            http_overhead: HttpOverhead::DEFAULT,
        }
    }

    /// Profiles of all five services in the paper's order.
    pub fn all() -> Vec<ServiceProfile> {
        vec![
            ServiceProfile::dropbox(),
            ServiceProfile::skydrive(),
            ServiceProfile::wuala(),
            ServiceProfile::google_drive(),
            ServiceProfile::cloud_drive(),
        ]
    }

    /// Looks up a profile by provider.
    pub fn for_provider(provider: Provider) -> ServiceProfile {
        match provider {
            Provider::Dropbox => ServiceProfile::dropbox(),
            Provider::SkyDrive => ServiceProfile::skydrive(),
            Provider::Wuala => ServiceProfile::wuala(),
            Provider::GoogleDrive => ServiceProfile::google_drive(),
            Provider::CloudDrive => ServiceProfile::cloud_drive(),
        }
    }

    /// Display name of the service.
    pub fn name(&self) -> &'static str {
        self.provider.name()
    }

    /// Whether the client bundles small files (Table 1 row "Bundling").
    pub fn bundles(&self) -> bool {
        matches!(self.transfer_mode, TransferMode::Bundled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_profiles_exist_in_paper_order() {
        let all = ServiceProfile::all();
        assert_eq!(all.len(), 5);
        let names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Dropbox", "SkyDrive", "Wuala", "Google Drive", "Cloud Drive"]);
        for p in Provider::ALL {
            assert_eq!(ServiceProfile::for_provider(p).provider, p);
        }
    }

    #[test]
    fn capability_matrix_matches_table_1() {
        let dropbox = ServiceProfile::dropbox();
        assert_eq!(dropbox.chunking.describe(), "4 MB");
        assert!(dropbox.bundles());
        assert_eq!(dropbox.compression.describe(), "always");
        assert!(dropbox.dedup);
        assert!(dropbox.delta_encoding);

        let skydrive = ServiceProfile::skydrive();
        assert_eq!(skydrive.chunking.describe(), "var.");
        assert!(!skydrive.bundles());
        assert_eq!(skydrive.compression.describe(), "no");
        assert!(!skydrive.dedup);
        assert!(!skydrive.delta_encoding);

        let wuala = ServiceProfile::wuala();
        assert_eq!(wuala.chunking.describe(), "var.");
        assert!(!wuala.bundles());
        assert!(wuala.dedup);

        let gdrive = ServiceProfile::google_drive();
        assert_eq!(gdrive.chunking.describe(), "8 MB");
        assert_eq!(gdrive.compression.describe(), "smart");
        assert!(!gdrive.dedup);

        let clouddrive = ServiceProfile::cloud_drive();
        assert_eq!(clouddrive.chunking.describe(), "no");
        assert!(!clouddrive.bundles());
        assert_eq!(clouddrive.compression.describe(), "no");
        assert!(!clouddrive.dedup);
        assert!(!clouddrive.delta_encoding);
    }

    #[test]
    fn idle_rates_reproduce_the_section_3_ranking() {
        // Idle signalling rate in b/s implied by the polling parameters (the
        // §3.1 numbers: Wuala ≈ 60 b/s, Google Drive ≈ 42 b/s, Dropbox ≈ 82
        // b/s, SkyDrive ≈ 32 b/s, Cloud Drive ≈ 6 kb/s). A service that
        // reopens a connection on every poll pays a TCP+TLS handshake, an
        // HTTP exchange and a teardown (~9 kB); one that keeps it open pays
        // only the framing of a small exchange.
        let rate = |p: ServiceProfile| {
            let overhead = if p.polling_new_connection { 9_000.0 } else { 100.0 };
            (p.polling_bytes as f64 + overhead) * 8.0 / p.polling_interval.as_secs_f64()
        };
        let dropbox = rate(ServiceProfile::dropbox());
        let skydrive = rate(ServiceProfile::skydrive());
        let wuala = rate(ServiceProfile::wuala());
        let gdrive = rate(ServiceProfile::google_drive());
        let clouddrive = rate(ServiceProfile::cloud_drive());

        // Cloud Drive is an order of magnitude noisier than everyone else.
        assert!(clouddrive > 4_000.0, "cloud drive {clouddrive} b/s");
        assert!(clouddrive > 10.0 * dropbox);
        // The others sit in the tens of b/s.
        for (name, v) in
            [("dropbox", dropbox), ("skydrive", skydrive), ("wuala", wuala), ("gdrive", gdrive)]
        {
            assert!((20.0..200.0).contains(&v), "{name} idle rate {v}");
        }
        // Relative ordering from §3.1: Dropbox > Wuala > Google Drive > SkyDrive.
        assert!(dropbox > wuala && wuala > gdrive && gdrive > skydrive);
    }

    #[test]
    fn rtt_placement_reflects_data_center_geography() {
        // European services are close, US-centric ones are far (§5.2).
        assert!(ServiceProfile::wuala().storage_rtt < SimDuration::from_millis(50));
        assert!(ServiceProfile::google_drive().storage_rtt < SimDuration::from_millis(30));
        assert!(ServiceProfile::dropbox().storage_rtt > SimDuration::from_millis(80));
        assert!(ServiceProfile::skydrive().storage_rtt > SimDuration::from_millis(120));
    }

    #[test]
    fn login_chattiness_matches_fig1() {
        let skydrive = ServiceProfile::skydrive();
        for other in [
            ServiceProfile::dropbox(),
            ServiceProfile::wuala(),
            ServiceProfile::google_drive(),
            ServiceProfile::cloud_drive(),
        ] {
            assert!(
                skydrive.login_bytes as f64 >= 3.5 * other.login_bytes as f64,
                "SkyDrive login must be ~4x {}",
                other.name()
            );
        }
        assert!(skydrive.login_servers >= 13);
    }
}
