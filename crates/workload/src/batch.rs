//! Batch specifications.
//!
//! §2.3: "In total, we perform 8 experiments in which files of different sizes
//! and formats are synchronized." §5: "we design 8 benchmarks varying i)
//! number of files; ii) file sizes and iii) file types", with the four
//! workloads shown in Fig. 6 (1×100 kB, 1×1 MB, 10×100 kB, 100×10 kB) and the
//! guidance from passive measurements that "up to 90 % of Dropbox users'
//! upload batches carry less than 1 MB".

use crate::generator::{generate, FileKind};
use serde::Serialize;

/// A batch of files to be synchronised in one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct BatchSpec {
    /// Number of files in the batch.
    pub file_count: usize,
    /// Size of each file in bytes.
    pub file_size: usize,
    /// Content type of every file in the batch.
    pub kind: FileKind,
}

/// One generated file of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFile {
    /// Path of the file inside the synced folder.
    pub path: String,
    /// File content.
    pub content: Vec<u8>,
}

impl BatchSpec {
    /// Creates a batch spec.
    pub fn new(file_count: usize, file_size: usize, kind: FileKind) -> Self {
        assert!(file_count > 0, "a batch needs at least one file");
        BatchSpec { file_count, file_size, kind }
    }

    /// The four binary-file workloads of Fig. 6: 1×100 kB, 1×1 MB, 10×100 kB,
    /// 100×10 kB.
    pub fn figure6_workloads() -> Vec<BatchSpec> {
        vec![
            BatchSpec::new(1, 100 * 1000, FileKind::RandomBinary),
            BatchSpec::new(1, 1000 * 1000, FileKind::RandomBinary),
            BatchSpec::new(10, 100 * 1000, FileKind::RandomBinary),
            BatchSpec::new(100, 10 * 1000, FileKind::RandomBinary),
        ]
    }

    /// The full set of 8 benchmark experiments (§2.3): the four Fig. 6
    /// workloads plus the same four sizes with text content, exercising the
    /// file-type dimension.
    pub fn paper_experiments() -> Vec<BatchSpec> {
        let mut specs = BatchSpec::figure6_workloads();
        specs.extend([
            BatchSpec::new(1, 100 * 1000, FileKind::Text),
            BatchSpec::new(1, 1000 * 1000, FileKind::Text),
            BatchSpec::new(10, 100 * 1000, FileKind::Text),
            BatchSpec::new(100, 10 * 1000, FileKind::Text),
        ]);
        specs
    }

    /// Total payload bytes of the batch.
    pub fn total_bytes(&self) -> u64 {
        self.file_count as u64 * self.file_size as u64
    }

    /// A short label like `100x10kB` used as the x-axis tick in Fig. 6.
    pub fn label(&self) -> String {
        let size = self.file_size;
        let size_label = if size.is_multiple_of(1_000_000) && size >= 1_000_000 {
            format!("{}MB", size / 1_000_000)
        } else if size.is_multiple_of(1000) && size >= 1000 {
            format!("{}kB", size / 1000)
        } else {
            format!("{size}B")
        };
        format!("{}x{}", self.file_count, size_label)
    }

    /// Generates the files of the batch, deterministically from `seed`.
    /// Every file gets distinct content (different derived seed), so
    /// generation fans out across worker threads for large batches; the
    /// result is identical to sequential generation.
    pub fn generate(&self, seed: u64) -> Vec<GeneratedFile> {
        // Below ~2 MB of total content the thread fan-out costs more than
        // the generation itself.
        const PARALLEL_THRESHOLD_BYTES: u64 = 2 * 1024 * 1024;

        let one = |i: usize| GeneratedFile {
            path: format!("batch/{}_{i:04}.{}", self.label(), self.kind.extension()),
            content: generate(self.kind, self.file_size, seed.wrapping_add(i as u64 * 7919 + 1)),
        };
        let workers = cloudsim_parallel::auto_workers(
            self.file_count,
            self.total_bytes(),
            PARALLEL_THRESHOLD_BYTES,
        );
        cloudsim_parallel::run_indexed(workers, self.file_count, || (), |(), i| one(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_workloads_match_the_paper() {
        let specs = BatchSpec::figure6_workloads();
        assert_eq!(specs.len(), 4);
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["1x100kB", "1x1MB", "10x100kB", "100x10kB"]);
        // Three of the four workloads carry <= 1 MB (the regime passive
        // measurements say covers 90 % of real batches).
        assert!(specs.iter().filter(|s| s.total_bytes() <= 1_000_000).count() >= 3);
    }

    #[test]
    fn paper_experiments_are_eight() {
        let specs = BatchSpec::paper_experiments();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs.iter().filter(|s| s.kind == FileKind::Text).count(), 4);
        assert_eq!(specs.iter().filter(|s| s.kind == FileKind::RandomBinary).count(), 4);
    }

    #[test]
    fn generated_files_are_distinct_and_sized() {
        let spec = BatchSpec::new(10, 10_000, FileKind::RandomBinary);
        let files = spec.generate(1234);
        assert_eq!(files.len(), 10);
        for f in &files {
            assert_eq!(f.content.len(), 10_000);
            assert!(f.path.ends_with(".bin"));
        }
        // Contents must differ between files (no accidental dedup).
        assert_ne!(files[0].content, files[1].content);
        // Paths must be unique.
        let paths: std::collections::HashSet<&String> = files.iter().map(|f| &f.path).collect();
        assert_eq!(paths.len(), 10);
        // Deterministic per seed.
        assert_eq!(spec.generate(1234), files);
        assert_ne!(spec.generate(99)[0].content, files[0].content);
    }

    #[test]
    fn parallel_generation_matches_sequential_output() {
        // Large enough to cross the parallel threshold.
        let spec = BatchSpec::new(8, 500_000, FileKind::RandomBinary);
        let files = spec.generate(42);
        let expected: Vec<GeneratedFile> = (0..8)
            .map(|i| GeneratedFile {
                path: format!("batch/{}_{i:04}.{}", spec.label(), spec.kind.extension()),
                content: crate::generate(
                    spec.kind,
                    spec.file_size,
                    42u64.wrapping_add(i as u64 * 7919 + 1),
                ),
            })
            .collect();
        assert_eq!(files, expected);
    }

    #[test]
    fn labels_render_sizes_sensibly() {
        assert_eq!(BatchSpec::new(1, 1_000_000, FileKind::Text).label(), "1x1MB");
        assert_eq!(BatchSpec::new(5, 10_000, FileKind::Text).label(), "5x10kB");
        assert_eq!(BatchSpec::new(2, 512, FileKind::Text).label(), "2x512B");
    }

    #[test]
    #[should_panic(expected = "a batch needs at least one file")]
    fn empty_batches_are_rejected() {
        let _ = BatchSpec::new(0, 100, FileKind::Text);
    }
}
