//! Partition runner: the fleet population split into N disjoint client
//! sets, driven one after another against one shared [`ObjectStore`].
//!
//! The controller derives the event heap once (from a live [`ScaleSpec`]
//! or a parsed [`FleetCapture`]), cuts the population into disjoint
//! [`ClientSet`]s — contiguous ranges over a capture (the slice doubles as
//! the work-distribution unit, see [`slice_capture`]), round-robin stripes
//! over a live spec — and hands each partition a self-contained
//! [`PartitionSpec`]. The controller drives each partition in turn, on
//! the calling thread, through the one commit runner ([`crate::scale`]) —
//! the unsliced run is that same runner handed the partition that owns
//! everyone — and gets back a [`PartitionRun`]; it then merges the
//! per-partition results:
//!
//! * **busy-chaining is per-client**: a client's commits serialise on its
//!   own link and never touch another client's state, so driving a client's
//!   events inside any partition produces the same intervals as the
//!   unsliced heap;
//! * **store aggregates are commutative**: all partitions commit into the
//!   one shared store, whose accounting is order-independent, and scale
//!   clients interact through nothing else — so the partitions' order
//!   does not matter;
//! * **interval and histogram merges are order-independent**: per-partition
//!   event streams are subsequences of the globally key-ordered stream, so
//!   merging them by [`FleetEvent::key`] reconstructs the global firing
//!   order exactly, and histogram merge is elementwise bucket addition.
//!
//! Together these make a partitioned run **bit-identical** to the unsliced
//! run for every derived metric, whatever the partition count — asserted
//! with `to_bits` equality at 10k clients in the bench crate and `cmp`ed
//! byte for byte by the CI partition-determinism leg.
//!
//! The worker-facing API is deliberately free of shared-memory assumptions
//! beyond the store handle: a [`PartitionSpec`] is pure data (a capture
//! slice serialises to the versioned JSONL format), and a [`PartitionRun`]
//! is plain totals, events and intervals — the seam for a future
//! multi-process mode where workers live in separate processes and ship
//! their runs back over a pipe.

use crate::capture::{slice_capture, FleetCapture, ReplayMix};
use crate::engine::{wave_count, FleetEvent};
use crate::scale::{drive, reserve_population, ScaleRun, ScaleSpec, Source};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::{series, LatencyHistogram, SimTime};

#[doc(hidden)]
pub use crate::perf_pins::{merge_partitions, run_partition};

/// The disjoint set of global client indices one partition owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientSet {
    /// Contiguous global clients `[start, end)` — what capture slices
    /// cover.
    Range {
        /// First global client index (inclusive).
        start: usize,
        /// One past the last global client index.
        end: usize,
    },
    /// Every `step`-th client of a `total`-client population starting at
    /// `offset` — the round-robin split over a live spec, which balances
    /// the link mix (links are assigned round-robin too) across partitions.
    Stripe {
        /// First global client index of the stripe.
        offset: usize,
        /// Distance between consecutive stripe members (the partition
        /// count).
        step: usize,
        /// Clients in the whole population.
        total: usize,
    },
}

impl ClientSet {
    /// Clients in the set. A stripe with a zero `step` (the fields are
    /// `pub`, so a hand-built set can say it) holds none.
    pub fn len(&self) -> usize {
        match *self {
            ClientSet::Range { start, end } => end.saturating_sub(start),
            ClientSet::Stripe { offset, step, total } => {
                if offset >= total || step == 0 {
                    0
                } else {
                    (total - offset - 1) / step + 1
                }
            }
        }
    }

    /// True when the set holds no clients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the set owns global client `id`.
    pub fn contains(&self, id: usize) -> bool {
        match *self {
            ClientSet::Range { start, end } => (start..end).contains(&id),
            ClientSet::Stripe { offset, step, total } => {
                step > 0 && id < total && id >= offset && (id - offset).is_multiple_of(step)
            }
        }
    }

    /// The set-local index of global client `id`, if the set owns it. The
    /// inverse of [`ClientSet::global_id`].
    pub fn local_index(&self, id: usize) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        Some(match *self {
            ClientSet::Range { start, .. } => id - start,
            ClientSet::Stripe { offset, step, .. } => (id - offset) / step,
        })
    }

    /// The global index of the set's `local`-th client.
    pub fn global_id(&self, local: usize) -> usize {
        debug_assert!(
            local < self.len(),
            "local index {local} outside the {}-client set",
            self.len()
        );
        match *self {
            ClientSet::Range { start, .. } => start + local,
            ClientSet::Stripe { offset, step, .. } => offset + local * step,
        }
    }

    /// The set's global client indices in local order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|local| self.global_id(local))
    }

    /// Fails for a stripe that cannot advance, naming the partition.
    fn check_step(&self, partition: usize) -> Result<(), String> {
        match self {
            ClientSet::Stripe { step: 0, .. } => {
                Err(format!("partition {partition}: a stripe's step must be at least 1"))
            }
            _ => Ok(()),
        }
    }
}

/// The workload one partition drives — pure data either way.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionWorkload {
    /// Derive the partition's events live from the spec (the partition
    /// only fires events of the clients its set owns).
    Spec(ScaleSpec),
    /// Replay a capture slice — the work-distribution unit a controller
    /// can hand to an out-of-process worker as versioned JSONL.
    Slice(FleetCapture),
}

/// Everything one worker needs to drive its partition: the client set it
/// owns and the workload to derive events from. No shared memory beyond
/// the store handle passed to [`run_one`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// The partition's index among its siblings.
    pub index: usize,
    /// The global clients this partition owns.
    pub clients: ClientSet,
    /// Where the partition's events come from.
    pub workload: PartitionWorkload,
}

/// One finished partition: the driven state, the partition's events in
/// heap order (global client indices) and the matching transfer intervals.
/// Plain data — nothing here assumes the worker shared an address space
/// with the controller.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The partition's index among its siblings.
    pub index: usize,
    /// The global clients the partition drove.
    pub clients: ClientSet,
    /// The partition's events in heap pop order, with global client
    /// indices — each stream is a subsequence of the unsliced run's global
    /// event order, which is what makes the k-way merge exact.
    pub events: Vec<FleetEvent>,
    /// Transfer intervals, parallel to `events`.
    pub intervals: Vec<(SimTime, SimTime)>,
    /// Waves the partition's own event stream splits into
    /// ([`wave_count`]; the scale path counts waves, it does not run them).
    pub waves: usize,
    /// Commits the partition performed.
    pub commits: u64,
    /// Plaintext bytes the partition committed.
    pub logical_bytes: u64,
}

impl PartitionRun {
    /// Start of the partition's earliest transfer.
    pub fn first_start(&self) -> SimTime {
        series::interval_span(&self.intervals).0
    }

    /// End of the partition's latest transfer.
    pub fn last_end(&self) -> SimTime {
        series::interval_span(&self.intervals).1
    }

    /// Distribution of the partition's per-commit transfer durations.
    /// Merging the partitions' histograms elementwise reproduces the
    /// unsliced run's histogram exactly.
    pub fn transfer_histogram(&self) -> LatencyHistogram {
        series::duration_histogram(&self.intervals)
    }
}

/// Near-equal contiguous ranges splitting `clients` into `partitions`
/// parts: the first `clients % partitions` ranges get one extra client.
/// Capture-local, half-open — exactly what [`slice_capture`] consumes.
pub fn partition_ranges(clients: usize, partitions: usize) -> Vec<(usize, usize)> {
    assert!(partitions > 0, "need at least one partition");
    let base = clients / partitions;
    let extra = clients % partitions;
    let mut ranges = Vec::with_capacity(partitions);
    let mut start = 0usize;
    for k in 0..partitions {
        let end = start + base + usize::from(k < extra);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Cuts a live spec into `partitions` round-robin stripes. Striping keeps
/// every partition's link mix representative (links are assigned
/// round-robin over global client indices too).
pub fn spec_partitions(spec: &ScaleSpec, partitions: usize) -> Vec<PartitionSpec> {
    assert!(partitions > 0, "need at least one partition");
    (0..partitions)
        .map(|k| PartitionSpec {
            index: k,
            clients: ClientSet::Stripe { offset: k, step: partitions, total: spec.clients },
            workload: PartitionWorkload::Spec(spec.clone()),
        })
        .collect()
}

/// Cuts a capture into `partitions` contiguous slices via
/// [`slice_capture`] and wraps each as a partition spec. Fails when the
/// capture holds fewer clients than partitions.
pub fn capture_partitions(
    capture: &FleetCapture,
    partitions: usize,
) -> Result<Vec<PartitionSpec>, String> {
    if partitions == 0 {
        return Err("need at least one partition".into());
    }
    if partitions > capture.clients {
        return Err(format!(
            "cannot cut {} clients into {partitions} non-empty partitions",
            capture.clients
        ));
    }
    let ranges = partition_ranges(capture.clients, partitions);
    let slices = slice_capture(capture, &ranges)?;
    Ok(slices
        .into_iter()
        .enumerate()
        .map(|(k, slice)| PartitionSpec {
            index: k,
            clients: ClientSet::Range {
                start: slice.client_base,
                end: slice.client_base + slice.clients,
            },
            workload: PartitionWorkload::Slice(slice),
        })
        .collect())
}

/// Drives one partition on the calling thread against the shared store,
/// through the same commit runner as the unsliced run ([`crate::scale`]) —
/// which is simply the partition that owns everyone. Returns the
/// partition's events (global indices, firing order) alongside their
/// intervals and the partition's totals.
pub fn run_one(part: &PartitionSpec, store: &ObjectStore) -> Result<PartitionRun, String> {
    part.clients.check_step(part.index)?;
    let source = match &part.workload {
        PartitionWorkload::Spec(spec) => Source::Spec(spec, &part.clients),
        PartitionWorkload::Slice(capture) => {
            let covered = ClientSet::Range {
                start: capture.client_base,
                end: capture.client_base.saturating_add(capture.clients),
            };
            if part.clients != covered {
                return Err(format!(
                    "partition {} owns {:?} but its slice covers {covered:?}",
                    part.index, part.clients
                ));
            }
            Source::Capture(capture, &ReplayMix::Original)
        }
    };
    let driven = drive(source, store).map_err(|err| format!("partition {}: {err}", part.index))?;
    Ok(PartitionRun {
        index: part.index,
        clients: part.clients.clone(),
        commits: driven.commits,
        logical_bytes: driven.logical_bytes,
        waves: wave_count(&driven.events),
        events: driven.events,
        intervals: driven.intervals,
    })
}

/// Merges finished partitions back into one [`ScaleRun`], in any partition
/// order. Validates that the partitions exactly tile the global client
/// range `[client_base, client_base + clients)`, sums the partitions'
/// totals, and merges the per-partition (event, interval) streams by
/// [`FleetEvent::key`] — each stream is a subsequence of the globally
/// ordered stream, so the merge reconstructs the unsliced firing order
/// exactly. Returns the merged run plus the wave count of the merged event
/// stream.
pub fn merge_runs(
    client_base: usize,
    clients: usize,
    files: u64,
    parts: &[PartitionRun],
    store: ObjectStore,
) -> Result<(ScaleRun, usize), String> {
    let mut owned = vec![false; clients];
    for part in parts {
        part.clients.check_step(part.index)?;
        for id in part.clients.iter() {
            if id < client_base || id - client_base >= clients {
                return Err(format!(
                    "partition {} owns client {id} outside the [{client_base}, {}) population",
                    part.index,
                    client_base + clients
                ));
            }
            if owned[id - client_base] {
                return Err(format!("client {id} is owned by more than one partition"));
            }
            owned[id - client_base] = true;
        }
    }
    if let Some(orphan) = owned.iter().position(|&o| !o) {
        return Err(format!("no partition owns client {}", client_base + orphan));
    }

    // Every partition's stream is already key-ordered, so the stable sort
    // sees one sorted run per partition and merges them.
    let mut merged: Vec<(FleetEvent, (SimTime, SimTime))> = parts
        .iter()
        .flat_map(|p| p.events.iter().copied().zip(p.intervals.iter().copied()))
        .collect();
    merged.sort_by_key(|(ev, _)| ev.key());
    let (merged_events, intervals): (Vec<_>, Vec<_>) = merged.into_iter().unzip();

    let run = ScaleRun {
        clients,
        commits: parts.iter().map(|p| p.commits).sum(),
        files,
        logical_bytes: parts.iter().map(|p| p.logical_bytes).sum(),
        intervals,
        store,
    };
    Ok((run, wave_count(&merged_events)))
}

/// A merged partitioned run: the recombined [`ScaleRun`] (bit-identical to
/// the unsliced run) plus the per-partition runs the merge consumed.
#[derive(Debug)]
pub struct PartitionedRun {
    /// The recombined run — every derived metric matches the unsliced run
    /// to the bit.
    pub run: ScaleRun,
    /// The finished partitions, in partition-index order.
    pub parts: Vec<PartitionRun>,
    /// Waves the merged event stream splits into (the unsliced run's wave
    /// count).
    pub merged_waves: usize,
}

/// The controller: runs the prepared partitions in order on the calling
/// thread against one shared store and merges the results. Every store
/// walk holds the store's write lock for its whole length, so partitions
/// on threads of their own would only queue for it. Every client commits
/// `files_per_client` files, the first `shared_per_client` of them from
/// the shared pool; the store is sized for the whole population here,
/// once, so a partition's own reservation finds the room already there.
fn run_controller(
    parts: &[PartitionSpec],
    client_base: usize,
    clients: usize,
    files_per_client: usize,
    shared_per_client: usize,
) -> Result<PartitionedRun, String> {
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let population = ClientSet::Range { start: client_base, end: client_base + clients };
    reserve_population(&store, &population, files_per_client, shared_per_client);
    let finished = parts.iter().map(|part| run_one(part, &store)).collect::<Result<Vec<_>, _>>()?;
    let files = clients as u64 * files_per_client as u64;
    let (run, merged_waves) = merge_runs(client_base, clients, files, &finished, store)?;
    Ok(PartitionedRun { run, parts: finished, merged_waves })
}

/// Runs a live spec split into `partitions` round-robin stripes. The
/// merged run is bit-identical to [`crate::scale::run_population`] on the same
/// spec, whatever the partition count.
pub fn run_partitioned(spec: &ScaleSpec, partitions: usize) -> PartitionedRun {
    spec.validate();
    assert!(
        partitions > 0 && partitions <= spec.clients,
        "partition count must be within [1, {}], got {partitions}",
        spec.clients
    );
    let parts = spec_partitions(spec, partitions);
    run_controller(
        &parts,
        0,
        spec.clients,
        spec.commits_per_client * spec.files_per_commit,
        spec.commits_per_client * spec.shared_files_per_commit(),
    )
    .expect("spec-derived partitions tile the population by construction")
}

/// Replays a capture split into `partitions` contiguous slices. The merged
/// run is bit-identical to an unsliced [`crate::capture::replay_capture`] of the
/// same capture (and, for a spec-derived capture, to the live run).
pub fn replay_partitioned(
    capture: &FleetCapture,
    partitions: usize,
) -> Result<PartitionedRun, String> {
    // Validates the capture: the products below index what it holds.
    let parts = capture_partitions(capture, partitions)?;
    run_controller(
        &parts,
        capture.client_base,
        capture.clients,
        capture.commits_per_client * capture.files_per_commit,
        capture.commits_per_client.saturating_mul(capture.shared_files_per_commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_of_spec, replay_capture};
    use crate::scale::run_wide;

    fn small_spec() -> ScaleSpec {
        ScaleSpec::new(60).with_seed(0xFACE)
    }

    #[test]
    fn client_sets_index_both_ways() {
        let range = ClientSet::Range { start: 10, end: 14 };
        assert_eq!(range.len(), 4);
        assert_eq!(range.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
        let stripe = ClientSet::Stripe { offset: 1, step: 3, total: 8 };
        assert_eq!(stripe.len(), 3);
        assert_eq!(stripe.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        for set in [range, stripe] {
            for (local, id) in set.iter().enumerate() {
                assert!(set.contains(id));
                assert_eq!(set.local_index(id), Some(local));
                assert_eq!(set.global_id(local), id);
            }
            assert_eq!(set.local_index(9), None);
        }
        assert!(ClientSet::Stripe { offset: 5, step: 2, total: 5 }.is_empty());
    }

    #[test]
    fn partition_ranges_tile_the_population() {
        assert_eq!(partition_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition_ranges(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(partition_ranges(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn striped_partitions_recombine_bit_identically_to_the_unsliced_run() {
        let spec = small_spec();
        let whole = run_wide(&spec);
        // Counts that do and do not divide the population, up to one
        // partition per client.
        for partitions in [1usize, 2, 3, 7, 8, 60] {
            let split = run_partitioned(&spec, partitions);
            assert_eq!(split.run.commits, whole.commits);
            assert_eq!(split.run.files, whole.files);
            assert_eq!(split.run.logical_bytes, whole.logical_bytes);
            assert_eq!(split.run.intervals, whole.intervals, "k={partitions}");
            assert_eq!(split.run.aggregate(), whole.aggregate());
            assert_eq!(split.run.load_curve(12), whole.load_curve(12));
            assert_eq!(
                split.run.dedup_ratio().to_bits(),
                whole.dedup_ratio().to_bits(),
                "k={partitions}"
            );
            assert_eq!(split.parts.len(), partitions);
            assert_eq!(split.parts.iter().map(|p| p.commits).sum::<u64>(), whole.commits);
        }
    }

    #[test]
    fn sliced_capture_replays_recombine_bit_identically() {
        let spec = small_spec();
        let capture = capture_of_spec(&spec);
        let whole = replay_capture(&capture, &ReplayMix::Original).unwrap();
        let split = replay_partitioned(&capture, 4).unwrap();
        assert_eq!(split.run.intervals, whole.intervals);
        assert_eq!(split.run.aggregate(), whole.aggregate());
        assert_eq!(split.run.load_curve(12), whole.load_curve(12));
        // The merged histogram is the elementwise sum of the partitions'.
        let mut merged_parts = LatencyHistogram::new();
        for part in &split.parts {
            merged_parts.merge(&part.transfer_histogram());
        }
        let whole_hist = whole.transfer_histogram();
        assert_eq!(merged_parts.summary(), whole_hist.summary());
        // And the live run matches too (capture replay is bit-faithful).
        let live = run_wide(&spec);
        assert_eq!(split.run.intervals, live.intervals);
    }

    #[test]
    fn merge_is_order_independent() {
        let spec = small_spec();
        let parts = spec_partitions(&spec, 3);
        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        let mut finished: Vec<PartitionRun> =
            parts.iter().map(|p| run_one(p, &store).unwrap()).collect();
        let files = (spec.clients * spec.commits_per_client * spec.files_per_commit) as u64;
        let (forward, waves_fwd) = merge_runs(
            0,
            spec.clients,
            files,
            &finished,
            ObjectStore::with_policy(GcPolicy::MarkSweep),
        )
        .unwrap();
        finished.rotate_left(1);
        finished.reverse();
        let (shuffled, waves_shuf) = merge_runs(0, spec.clients, files, &finished, store).unwrap();
        assert_eq!(forward.intervals, shuffled.intervals);
        assert_eq!(forward.commits, shuffled.commits);
        assert_eq!(waves_fwd, waves_shuf);
    }

    #[test]
    fn merge_rejects_overlaps_and_gaps() {
        let spec = small_spec();
        let parts = spec_partitions(&spec, 2);
        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        let finished: Vec<PartitionRun> =
            parts.iter().map(|p| run_one(p, &store).unwrap()).collect();
        let files = (spec.clients * spec.commits_per_client * spec.files_per_commit) as u64;
        // A duplicated partition overlaps itself.
        let doubled = vec![finished[0].clone(), finished[0].clone()];
        let err = merge_runs(
            0,
            spec.clients,
            files,
            &doubled,
            ObjectStore::with_policy(GcPolicy::MarkSweep),
        )
        .unwrap_err();
        assert!(err.contains("more than one partition"), "got: {err}");
        // A missing partition leaves a gap.
        let err = merge_runs(
            0,
            spec.clients,
            files,
            &finished[..1],
            ObjectStore::with_policy(GcPolicy::MarkSweep),
        )
        .unwrap_err();
        assert!(err.contains("no partition owns"), "got: {err}");
        // A hand-built stripe with a zero step is an error on both paths,
        // and an empty set rather than a division by zero.
        let stuck = ClientSet::Stripe { offset: 0, step: 0, total: spec.clients };
        assert_eq!((stuck.len(), stuck.contains(0), stuck.iter().count()), (0, false, 0));
        let part = PartitionSpec { clients: stuck.clone(), ..parts[0].clone() };
        let err = run_one(&part, &store).unwrap_err();
        assert!(err.contains("partition 0") && err.contains("step"), "got: {err}");
        let run = PartitionRun { clients: stuck, ..finished[0].clone() };
        let err = merge_runs(
            0,
            spec.clients,
            files,
            &[run, finished[1].clone()],
            ObjectStore::with_policy(GcPolicy::MarkSweep),
        )
        .unwrap_err();
        assert!(err.contains("partition 0") && err.contains("step"), "got: {err}");
    }

    #[test]
    fn capture_partitions_reject_degenerate_counts() {
        let capture = capture_of_spec(&ScaleSpec::new(3).with_seed(1));
        assert!(capture_partitions(&capture, 0).is_err());
        assert!(capture_partitions(&capture, 4).is_err());
        assert_eq!(capture_partitions(&capture, 3).unwrap().len(), 3);
    }
}
