//! Capability detection (§4 of the paper, Table 1, Fig. 3–5).
//!
//! Each detector reproduces one of the paper's tests: it crafts the file
//! batch the test prescribes, synchronises it through the service under test,
//! and then decides from the *captured traffic alone* whether the capability
//! is implemented — never by peeking at the service profile. The detected
//! matrix is then compared against Table 1.

use crate::json::{Fields, ToJson};
use crate::testbed::Testbed;
use cloudsim_services::ServiceProfile;
use cloudsim_trace::analysis::{self, BurstConfig, ThroughputConfig};
use cloudsim_trace::{FlowKind, SimDuration, SimTime};
use cloudsim_workload::{generate, FileKind, GeneratedFile, Mutation};

/// The chunking verdict of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkingVerdict {
    /// No pauses during a large upload: single-object transfers.
    None,
    /// Consistent pauses every ~`size` bytes.
    Fixed {
        /// Inferred chunk size in bytes.
        size: u64,
    },
    /// Pauses at varying intervals (content-defined chunking).
    Variable,
}

impl ChunkingVerdict {
    /// Table-1 wording ("no", "4 MB", "var.").
    pub(crate) fn describe(&self) -> String {
        match self {
            ChunkingVerdict::None => "no".to_string(),
            ChunkingVerdict::Fixed { size } => {
                format!("{} MB", (*size as f64 / (1024.0 * 1024.0)).round() as u64)
            }
            ChunkingVerdict::Variable => "var.".to_string(),
        }
    }
}

/// Detected capabilities of one service (the rows of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCapabilities {
    /// Service name.
    pub(crate) service: String,
    /// §4.1 chunking verdict.
    pub chunking: ChunkingVerdict,
    /// §4.2 bundling verdict.
    pub bundling: bool,
    /// §4.5 compression verdict ("no", "always", "smart").
    pub compression: String,
    /// §4.3 deduplication verdict.
    pub deduplication: bool,
    /// §4.4 delta-encoding verdict.
    pub delta_encoding: bool,
}

/// Table 1: one row per service.
#[derive(Debug, Clone, PartialEq)]
pub struct CapabilityMatrix {
    /// Rows in the paper's service order.
    pub rows: Vec<ServiceCapabilities>,
}

crate::json::objects! {
    ServiceCapabilities { service, chunking, bundling, compression, deduplication, delta_encoding }
    CapabilityMatrix { rows }
}

/// A unit variant as its name, the struct variant as a one-key object.
impl ToJson for ChunkingVerdict {
    fn write_json(&self, out: &mut String, level: usize) {
        match *self {
            ChunkingVerdict::None => "None".write_json(out, level),
            ChunkingVerdict::Fixed { size } => {
                Fields(&[("Fixed", &Fields(&[("size", &size)]))]).write_json(out, level)
            }
            ChunkingVerdict::Variable => "Variable".write_json(out, level),
        }
    }
}

impl CapabilityMatrix {
    /// Runs the full §4 battery for every service.
    pub fn detect_all(testbed: &Testbed) -> CapabilityMatrix {
        let rows =
            ServiceProfile::all().into_iter().map(|p| detect_capabilities(testbed, &p)).collect();
        CapabilityMatrix { rows }
    }

    /// Looks up one service's row by name.
    pub fn row(&self, service: &str) -> Option<&ServiceCapabilities> {
        self.rows.iter().find(|r| r.service == service)
    }
}

/// Runs every capability detector against one service.
pub(crate) fn detect_capabilities(
    testbed: &Testbed,
    profile: &ServiceProfile,
) -> ServiceCapabilities {
    ServiceCapabilities {
        service: profile.name().to_string(),
        chunking: detect_chunking(testbed, profile),
        bundling: detect_bundling(testbed, profile),
        compression: detect_compression(testbed, profile),
        deduplication: detect_deduplication(testbed, profile),
        delta_encoding: detect_delta_encoding(testbed, profile),
    }
}

/// §4.1 — chunking: upload a single large file and look for pauses in the
/// upload throughput. Pauses preceded by at least ~1 MB of payload delimit
/// chunks; chunk sizes within ±12 % of each other are called "fixed".
pub(crate) fn detect_chunking(testbed: &Testbed, profile: &ServiceProfile) -> ChunkingVerdict {
    let content = generate(FileKind::RandomBinary, 18 * 1024 * 1024, 0xC0FFEE);
    let files = vec![GeneratedFile { path: "capability/chunking.bin".to_string(), content }];
    let run = testbed.run_sync_files(profile, &files, 0);
    // Only the storage flows carry the file content; control chatter in the
    // same capture must not be mistaken for chunk boundaries.
    let storage_packets: Vec<_> =
        run.packets.iter().filter(|p| p.kind == FlowKind::Storage).cloned().collect();
    let cfg = ThroughputConfig { min_pause: SimDuration::from_millis(40) };
    let pauses = analysis::detect_pauses(&storage_packets, cfg);
    let mut chunk_sizes: Vec<u64> =
        pauses.iter().map(|p| p.bytes_before).filter(|b| *b >= 1024 * 1024).collect();
    if chunk_sizes.is_empty() {
        return ChunkingVerdict::None;
    }
    // The last chunk of a file is a partial one; judge regularity by how many
    // pauses sit within ±12 % of the median inter-pause volume.
    chunk_sizes.sort_unstable();
    let median = chunk_sizes[chunk_sizes.len() / 2] as f64;
    let consistent =
        chunk_sizes.iter().filter(|s| (**s as f64 - median).abs() / median <= 0.12).count();
    if consistent * 10 >= chunk_sizes.len() * 6 {
        ChunkingVerdict::Fixed { size: median.round() as u64 }
    } else {
        ChunkingVerdict::Variable
    }
}

/// §4.2 — bundling: upload 100 × 10 kB and inspect how many storage
/// connections were opened and how many upload bursts appear. One connection
/// per file (or several) means no bundling; one reused connection with one
/// burst per file (application-level acks) also means no bundling; a small
/// number of large bursts means the files were bundled.
pub(crate) fn detect_bundling(testbed: &Testbed, profile: &ServiceProfile) -> bool {
    let spec = cloudsim_workload::BatchSpec::new(100, 10_000, FileKind::RandomBinary);
    let run = testbed.run_sync(profile, &spec, 0);
    let storage_syns = analysis::syn_count_by_kind(&run.packets, FlowKind::Storage);
    if storage_syns >= 50 {
        return false; // a connection per file
    }
    let bursts = analysis::detect_bursts(
        &run.packets,
        BurstConfig { max_gap: SimDuration::from_millis(35), min_bytes: 2_000 },
    );
    // Sequential submission produces roughly one burst per file; bundling
    // collapses the batch into a handful of large bursts.
    bursts.len() <= 25
}

/// §4.5 — compression: upload highly compressible text and a fake JPEG of
/// the same size; compare uploaded volumes. Returns Table-1 wording: "no",
/// "always" or "smart".
pub(crate) fn detect_compression(testbed: &Testbed, profile: &ServiceProfile) -> String {
    const SIZE: usize = 1_000_000;
    let upload_for = |kind: FileKind, rep: u64| -> u64 {
        let content = generate(kind, SIZE, 0xBEEF ^ rep);
        let files = vec![GeneratedFile {
            path: format!("capability/compression-{}.{}", kind.label(), kind.extension()),
            content,
        }];
        testbed.run_sync_files(profile, &files, rep).uploaded_payload()
    };
    let text = upload_for(FileKind::Text, 1);
    let fake_jpeg = upload_for(FileKind::FakeJpeg, 3);

    let compresses_text = (text as f64) < 0.85 * SIZE as f64;
    let compresses_fake_jpeg = (fake_jpeg as f64) < 0.85 * SIZE as f64;

    if !compresses_text {
        "no".to_string()
    } else if compresses_fake_jpeg {
        "always".to_string()
    } else {
        "smart".to_string()
    }
}

/// §4.3 — deduplication: upload a random file, then a same-payload replica
/// under another name, then a copy in a third folder, then delete everything
/// and restore the original. Dedup is detected when the replicas generate no
/// storage traffic; the delete/restore step checks that it persists.
pub(crate) fn detect_deduplication(testbed: &Testbed, profile: &ServiceProfile) -> bool {
    let content = generate(FileKind::RandomBinary, 400_000, 0xDED0);
    let (replica_bytes, _packets) = testbed.run_scripted(profile, 0, |sim, client, t0| {
        let original = vec![GeneratedFile {
            path: "folder1/original.bin".to_string(),
            content: content.clone(),
        }];
        let out1 = client.sync_batch(sim, &original, t0 + SimDuration::from_secs(5));

        let before = sim.trace().wire_bytes(FlowKind::Storage);
        // Replica with a different name in a second folder.
        let replica = vec![GeneratedFile {
            path: "folder2/replica.bin".to_string(),
            content: content.clone(),
        }];
        let out2 = client.sync_batch(sim, &replica, out1.completed_at + SimDuration::from_secs(30));
        // Copy into a third folder.
        let copy =
            vec![GeneratedFile { path: "folder3/copy.bin".to_string(), content: content.clone() }];
        let out3 = client.sync_batch(sim, &copy, out2.completed_at + SimDuration::from_secs(30));
        // Delete all copies, then place the original back.
        let mut t = out3.completed_at + SimDuration::from_secs(10);
        for path in ["folder1/original.bin", "folder2/replica.bin", "folder3/copy.bin"] {
            t = client.delete_file(sim, path, t + SimDuration::from_secs(2));
        }
        let restored = vec![GeneratedFile {
            path: "folder1/original.bin".to_string(),
            content: content.clone(),
        }];
        client.sync_batch(sim, &restored, t + SimDuration::from_secs(30));
        let after = sim.trace().wire_bytes(FlowKind::Storage);
        after - before
    });
    // With dedup, the replicas and the restore cause (almost) no storage
    // traffic; without it, three more full uploads happen (~1.2 MB).
    replica_bytes < content.len() as u64 / 2
}

/// §4.4 — delta encoding: upload a file, append 100 kB, re-sync, and compare
/// the storage volume of the second sync against the file size. Only a client
/// with delta encoding uploads roughly the appended amount.
pub(crate) fn detect_delta_encoding(testbed: &Testbed, profile: &ServiceProfile) -> bool {
    let original = generate(FileKind::RandomBinary, 1_500_000, 0xDE17A);
    let appended = Mutation::Append { len: 100_000 }.apply(&original, 0xDE17B);
    let (second_sync_bytes, _packets) = testbed.run_scripted(profile, 0, |sim, client, t0| {
        let first = vec![GeneratedFile {
            path: "capability/delta.bin".to_string(),
            content: original.clone(),
        }];
        let out1 = client.sync_batch(sim, &first, t0 + SimDuration::from_secs(5));
        let before = sim.trace().wire_bytes(FlowKind::Storage);
        let second = vec![GeneratedFile {
            path: "capability/delta.bin".to_string(),
            content: appended.clone(),
        }];
        client.sync_batch(sim, &second, out1.completed_at + SimDuration::from_secs(30));
        sim.trace().wire_bytes(FlowKind::Storage) - before
    });
    // Delta: ~100-200 kB on the wire. Full re-upload: >1.5 MB (dedup does not
    // help because the single chunk's content changed).
    second_sync_bytes < 800_000
}

/// One point of the Fig. 4 series: file size vs. bytes uploaded after a
/// modification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPoint {
    /// Original file size in bytes.
    pub file_size: u64,
    /// Storage payload uploaded when syncing the modified revision.
    pub uploaded: u64,
}

/// Fig. 4: uploaded volume after appending (left plot) or inserting at a
/// random offset (right plot) 100 kB into files of increasing size.
pub fn delta_encoding_series(
    testbed: &Testbed,
    profile: &ServiceProfile,
    sizes: &[u64],
    random_offset: bool,
) -> Vec<DeltaPoint> {
    sizes
        .iter()
        .map(|&size| {
            let original = generate(FileKind::RandomBinary, size as usize, 0xF160 ^ size);
            let mutation = if random_offset {
                Mutation::InsertRandom { len: 100_000 }
            } else {
                Mutation::Append { len: 100_000 }
            };
            let modified = mutation.apply(&original, 0xF161 ^ size);
            let (uploaded, _): (u64, _) = testbed.run_scripted(profile, size, |sim, client, t0| {
                let first = vec![GeneratedFile {
                    path: "fig4/file.bin".to_string(),
                    content: original.clone(),
                }];
                let out1 = client.sync_batch(sim, &first, t0 + SimDuration::from_secs(5));
                let before: u64 = analysis::uploaded_payload(&sim.packets());
                let second = vec![GeneratedFile {
                    path: "fig4/file.bin".to_string(),
                    content: modified.clone(),
                }];
                client.sync_batch(sim, &second, out1.completed_at + SimDuration::from_secs(30));
                analysis::uploaded_payload(&sim.packets()) - before
            });
            DeltaPoint { file_size: size, uploaded }
        })
        .collect()
}

/// One point of the Fig. 5 series: file size vs. bytes uploaded for a content
/// type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionPoint {
    /// File size in bytes.
    pub file_size: u64,
    /// Storage payload uploaded.
    pub uploaded: u64,
}

/// Fig. 5: bytes uploaded when syncing files of the given kind and sizes.
pub fn compression_series(
    testbed: &Testbed,
    profile: &ServiceProfile,
    kind: FileKind,
    sizes: &[u64],
) -> Vec<CompressionPoint> {
    sizes
        .iter()
        .map(|&size| {
            let content = generate(kind, size as usize, 0xF150 ^ size);
            let files =
                vec![GeneratedFile { path: format!("fig5/file.{}", kind.extension()), content }];
            let run = testbed.run_sync_files(profile, &files, size);
            CompressionPoint { file_size: size, uploaded: run.uploaded_payload() }
        })
        .collect()
}

/// Fig. 3: the cumulative TCP-SYN-versus-time series while uploading
/// 100 × 10 kB files. Returns `(seconds since sync start, cumulative SYNs)`.
pub fn syn_series(testbed: &Testbed, profile: &ServiceProfile) -> Vec<(f64, u64)> {
    let spec = cloudsim_workload::BatchSpec::new(100, 10_000, FileKind::RandomBinary);
    let run = testbed.run_sync(profile, &spec, 0);
    let series = analysis::cumulative_syns(&run.packets);
    let origin = run.packets.first().map(|p| p.timestamp).unwrap_or(SimTime::ZERO);
    series.points().map(|(t, v)| ((t - origin).as_secs_f64(), v as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Testbed {
        Testbed::new(7)
    }

    #[test]
    fn chunking_detection_matches_table1() {
        let tb = testbed();
        let dropbox = detect_chunking(&tb, &ServiceProfile::dropbox());
        match dropbox {
            ChunkingVerdict::Fixed { size } => {
                assert!((3_500_000..4_700_000).contains(&size), "Dropbox chunk {size}");
            }
            other => panic!("Dropbox should use fixed chunks, got {other:?}"),
        }
        let gdrive = detect_chunking(&tb, &ServiceProfile::google_drive());
        match gdrive {
            ChunkingVerdict::Fixed { size } => {
                assert!((7_000_000..9_400_000).contains(&size), "Google Drive chunk {size}");
            }
            other => panic!("Google Drive should use fixed chunks, got {other:?}"),
        }
        assert_eq!(detect_chunking(&tb, &ServiceProfile::cloud_drive()), ChunkingVerdict::None);
        assert_eq!(detect_chunking(&tb, &ServiceProfile::skydrive()), ChunkingVerdict::Variable);
        assert_eq!(detect_chunking(&tb, &ServiceProfile::wuala()), ChunkingVerdict::Variable);
    }

    #[test]
    fn bundling_only_detected_for_dropbox() {
        let tb = testbed();
        assert!(detect_bundling(&tb, &ServiceProfile::dropbox()));
        assert!(!detect_bundling(&tb, &ServiceProfile::google_drive()));
        assert!(!detect_bundling(&tb, &ServiceProfile::cloud_drive()));
        assert!(!detect_bundling(&tb, &ServiceProfile::skydrive()));
        assert!(!detect_bundling(&tb, &ServiceProfile::wuala()));
    }

    #[test]
    fn compression_verdicts_match_table1() {
        let tb = testbed();
        assert_eq!(detect_compression(&tb, &ServiceProfile::dropbox()), "always");
        assert_eq!(detect_compression(&tb, &ServiceProfile::google_drive()), "smart");
        assert_eq!(detect_compression(&tb, &ServiceProfile::skydrive()), "no");
        assert_eq!(detect_compression(&tb, &ServiceProfile::cloud_drive()), "no");
    }

    #[test]
    fn dedup_and_delta_verdicts_match_table1() {
        let tb = testbed();
        assert!(detect_deduplication(&tb, &ServiceProfile::dropbox()));
        assert!(detect_deduplication(&tb, &ServiceProfile::wuala()));
        assert!(!detect_deduplication(&tb, &ServiceProfile::google_drive()));
        assert!(detect_delta_encoding(&tb, &ServiceProfile::dropbox()));
        assert!(!detect_delta_encoding(&tb, &ServiceProfile::skydrive()));
    }

    #[test]
    fn verdict_wording_matches_the_table() {
        assert_eq!(ChunkingVerdict::None.describe(), "no");
        assert_eq!(ChunkingVerdict::Variable.describe(), "var.");
        assert_eq!(ChunkingVerdict::Fixed { size: 4 * 1024 * 1024 }.describe(), "4 MB");
    }

    #[test]
    fn fig4_series_shapes() {
        let tb = testbed();
        let sizes = [500_000u64, 1_000_000];
        let dropbox = delta_encoding_series(&tb, &ServiceProfile::dropbox(), &sizes, false);
        let skydrive = delta_encoding_series(&tb, &ServiceProfile::skydrive(), &sizes, false);
        // Dropbox uploads ~the appended 100 kB regardless of file size;
        // SkyDrive re-uploads the whole (grown) file.
        for p in &dropbox {
            assert!(p.uploaded < 400_000, "Dropbox uploaded {} for {}", p.uploaded, p.file_size);
        }
        for p in &skydrive {
            assert!(p.uploaded > p.file_size, "SkyDrive should re-upload everything");
        }
    }

    #[test]
    fn fig3_series_distinguishes_connection_behaviour() {
        let tb = testbed();
        let gdrive = syn_series(&tb, &ServiceProfile::google_drive());
        let clouddrive = syn_series(&tb, &ServiceProfile::cloud_drive());
        let gd_total = gdrive.last().map(|(_, v)| *v).unwrap_or(0);
        let cd_total = clouddrive.last().map(|(_, v)| *v).unwrap_or(0);
        assert!(gd_total >= 100, "Google Drive opened {gd_total} connections");
        assert!(cd_total >= 350, "Cloud Drive opened {cd_total} connections");
        assert!(cd_total > 3 * gd_total / 2);
    }
}
