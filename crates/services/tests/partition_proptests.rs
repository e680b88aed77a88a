//! Property tests for capture slicing and partition merging.
//!
//! The partition runner's contract is structural: any valid contiguous
//! split of a capture slices into per-worker captures that concatenate
//! back to the original, and merging finished partitions is
//! order-independent — the k-way merge by event key reconstructs the
//! global heap pop order whatever order the workers finished in. These
//! two properties are what let the CI partition-determinism leg `cmp`
//! whole suite dumps byte for byte across worker counts.

use cloudsim_services::capture::{
    capture_of_spec, merge_slices, parse_capture, render_fleet_capture, replay_capture,
    slice_capture, ReplayMix,
};
use cloudsim_services::partition::{
    merge_partitions, partition_ranges, run_one, spec_partitions, PartitionRun,
};
use cloudsim_services::scale::{run_population, run_population_traced, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};
use proptest::prelude::*;

/// Turns `cuts` (arbitrary raw draws) into a valid contiguous split of
/// `clients`: cut points are dedup-sorted modulo the population.
fn ranges_from_cuts(clients: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % clients).filter(|&c| c > 0).collect();
    points.sort_unstable();
    points.dedup();
    points.push(clients);
    let mut ranges = Vec::with_capacity(points.len());
    let mut start = 0usize;
    for end in points {
        ranges.push((start, end));
        start = end;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slicing over an arbitrary valid contiguous split round-trips: the
    /// slices tile the population, each survives the text round trip, and
    /// merging them back (in any order) reproduces the original capture
    /// exactly.
    #[test]
    fn slice_capture_roundtrips_over_arbitrary_splits(
        seed in 0u64..1_000_000,
        clients in 1usize..40,
        commits in 1usize..4,
        cuts in proptest::collection::vec(0usize..64, 0..6),
        rotate in 0usize..8,
    ) {
        let spec = ScaleSpec::new(clients).with_seed(seed).with_commits(commits);
        let capture = capture_of_spec(&spec);
        let ranges = ranges_from_cuts(clients, &cuts);
        let mut slices = slice_capture(&capture, &ranges).expect("valid split must slice");

        prop_assert_eq!(slices.len(), ranges.len());
        let mut total_events = 0usize;
        for slice in &slices {
            total_events += slice.events.len();
            prop_assert_eq!(slice.events.len(), slice.clients * commits);
            let reparsed = parse_capture(&render_fleet_capture(slice)).expect("slice parses");
            prop_assert_eq!(&reparsed, slice);
        }
        prop_assert_eq!(total_events, capture.events.len());

        // Merge in an arbitrary rotation of the slice order.
        slices.rotate_left(rotate % ranges.len());
        prop_assert_eq!(merge_slices(&slices).expect("slices tile"), capture);
    }

    /// Partition merges are order-independent: any permutation of the
    /// finished partitions merges to the identical run, and that run
    /// matches the unsliced one bit for bit — as do the other unsliced
    /// surfaces (same-mix replay, the traced run), which are one-partition
    /// runs of the same commit runner.
    #[test]
    fn partition_merge_is_order_independent(
        seed in 0u64..1_000_000,
        clients in 1usize..24,
        partitions in 1usize..6,
        rotate in 0usize..8,
        flip in 0u8..2,
    ) {
        let partitions = partitions.min(clients);
        let spec = ScaleSpec::new(clients).with_seed(seed);
        let whole = run_population(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));

        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        let started = std::time::Instant::now();
        let mut finished: Vec<PartitionRun> = spec_partitions(&spec, partitions)
            .iter()
            .map(|p| run_one(p, &store).expect("partition runs"))
            .collect();
        finished.rotate_left(rotate % partitions);
        if flip == 1 {
            finished.reverse();
        }
        let files = (clients * spec.commits_per_client * spec.files_per_commit) as u64;
        let (merged, _waves) =
            merge_partitions(0, clients, files, &finished, store, started).expect("tiles");

        prop_assert_eq!(&merged.intervals, &whole.intervals);
        prop_assert_eq!(merged.commits, whole.commits);
        prop_assert_eq!(merged.logical_bytes, whole.logical_bytes);
        prop_assert_eq!(merged.aggregate(), whole.aggregate());
        prop_assert_eq!(merged.load_curve(12), whole.load_curve(12));

        let replayed = replay_capture(&capture_of_spec(&spec), &ReplayMix::Original)
            .expect("a spec-derived capture replays");
        let (traced, _trace) =
            run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        for run in [&replayed, &traced] {
            prop_assert_eq!(&run.intervals, &whole.intervals);
            prop_assert_eq!(run.aggregate(), whole.aggregate());
            for i in 0..clients {
                let user = spec.user(i);
                prop_assert_eq!(run.store.stats(&user), whole.store.stats(&user));
            }
        }
    }

    /// The near-equal range splitter always tiles the population with
    /// non-empty ranges whose sizes differ by at most one.
    #[test]
    fn partition_ranges_always_tile(clients in 1usize..500, partitions in 1usize..16) {
        let partitions = partitions.min(clients);
        let ranges = partition_ranges(clients, partitions);
        prop_assert_eq!(ranges.len(), partitions);
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].1, clients);
        let sizes: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
        for pair in ranges.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].0);
        }
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(*min >= 1 && max - min <= 1);
    }
}
