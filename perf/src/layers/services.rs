//! `services.*`: the event engine, the fleet-scale runner, capture and
//! partitions, the full-fidelity client and planner, and the fleet.

use super::Bench;
use crate::workloads::fleet_restore_faults::{fleet_spec, shape, tally};
use cloudbench::scale::scale_spec;
use cloudsim_net::{FaultSchedule, Simulator};
use cloudsim_services::capture::{
    capture_of_spec, merge_slices, parse_capture, render_fleet_capture, replay, slice_capture,
    ReplayMix,
};
use cloudsim_services::engine::{EventHeap, FleetEvent, Phase};
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::partition::{
    merge_partitions, partition_ranges, run_partition, run_partitioned, spec_partitions,
};
use cloudsim_services::scale::{run_scale, run_scale_traced, ScaleSpec};
use cloudsim_services::{
    FleetSchedule, RetryConfig, ServiceProfile, SyncClient, SyncOutcome, UploadPipeline,
    UploadPlanner,
};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::{SimDuration, SimTime};
use cloudsim_workload::{BatchSpec, FileKind, GeneratedFile};
use std::time::Instant;

/// Partitions of the partition rows (the `replay_trace` workload's count).
const PARTITIONS: usize = crate::workloads::replay_trace::PARTITIONS;

pub fn run(b: &mut Bench) {
    let spec = scale_spec(b.sizes.clients, b.seed);
    // The heap and event rows are so fast per event that they get a
    // population five times the one the runner rows repeat.
    let wide = scale_spec(b.sizes.clients * 5, b.seed);
    engine(b, &wide);
    let events = (wide.clients * wide.commits_per_client) as f64;
    b.rate("services.scale_events_gen_per_s", events, || (), |()| wide.events());
    scale(b, &spec);
    capture(b, &spec);
    client(b);
    fleet(b);
}

/// The spec's events, unsorted, as [`ScaleSpec::events`] feeds them to the
/// heap.
pub fn events_of(spec: &ScaleSpec) -> Vec<FleetEvent> {
    let mut events = Vec::with_capacity(spec.clients * spec.commits_per_client);
    for client in 0..spec.clients {
        for round in 0..spec.commits_per_client {
            events.push(FleetEvent {
                at: spec.commit_at(client, round),
                phase: Phase::Sync,
                client,
                round,
            });
        }
    }
    events
}

/// Pops every wave off `heap`; returns the waves' lengths.
pub fn drain_waves(mut heap: EventHeap) -> Vec<usize> {
    let mut lengths = Vec::new();
    while let Some(wave) = heap.next_wave() {
        lengths.push(wave.events.len());
    }
    lengths
}

fn mark_sweep() -> ObjectStore {
    ObjectStore::with_policy(GcPolicy::MarkSweep)
}

fn engine(b: &mut Bench, spec: &ScaleSpec) {
    let events = events_of(spec);
    let count = events.len() as f64;
    b.rate(
        "services.engine_heap_build_events_per_s",
        count,
        || events.clone(),
        EventHeap::from_events,
    );
    b.rate(
        "services.engine_next_wave_events_per_s",
        count,
        || EventHeap::from_events(events.clone()),
        drain_waves,
    );
    let waves = drain_waves(EventHeap::from_events(events)).len() as f64;
    b.set("services.engine_waves", waves);
    b.set("services.engine_mean_wave_len", count / waves);
}

fn scale(b: &mut Bench, spec: &ScaleSpec) {
    let workers = cloudsim_parallel::available_workers();
    let commits = (spec.clients * spec.commits_per_client) as f64;
    let one = b.rate("services.scale_run_1w_commits_per_s", commits, mark_sweep, |s| {
        run_scale(spec, s, 1)
    });
    let many = b.rate("services.scale_run_nw_commits_per_s", commits, mark_sweep, |s| {
        run_scale(spec, s, workers)
    });
    b.set("services.scale_nw_speedup", many / one);
    let traced = b.rate("services.scale_traced_commits_per_s", commits, mark_sweep, |s| {
        run_scale_traced(spec, s, workers)
    });
    b.set("services.scale_trace_cost_share", many / traced - 1.0);

    // The cost ladder: one sample per rung, each rung four times the
    // clients of the one below. Linear scaling reads 4.0.
    let base = b.sizes.ladder_base;
    let rung = |clients: usize| {
        let spec = scale_spec(clients, b.seed);
        let t0 = Instant::now();
        let run = b.spans.sized("services.scale_ladder", clients as u64, || {
            run_scale(&spec, mark_sweep(), workers)
        });
        let secs = t0.elapsed().as_secs_f64();
        drop(run);
        secs
    };
    let (low, mid, high) = (rung(base), rung(base * 4), rung(base * 16));
    b.set("services.scale_cost_ratio_25k_to_100k", mid / low);
    b.set("services.scale_cost_ratio_100k_to_400k", high / mid);
}

fn capture(b: &mut Bench, spec: &ScaleSpec) {
    let workers = cloudsim_parallel::available_workers();
    let commits = (spec.clients * spec.commits_per_client) as f64;
    b.rate("services.capture_lower_events_per_s", commits, || (), |()| capture_of_spec(spec));
    let capture = capture_of_spec(spec);
    let text = render_fleet_capture(&capture);
    let mb = text.len() as f64 / 1e6;
    b.rate("services.capture_render_mb_per_s", mb, || (), |()| render_fleet_capture(&capture));
    b.rate("services.capture_parse_mb_per_s", mb, || (), |()| parse_capture(&text));
    let ranges = partition_ranges(spec.clients, PARTITIONS);
    b.rate(
        "services.capture_slice_merge_events_per_s",
        commits,
        || (),
        |()| {
            let slices = slice_capture(&capture, &ranges).expect("the ranges tile the capture");
            merge_slices(&slices).expect("the slices tile the capture")
        },
    );
    b.rate(
        "services.capture_replay_commits_per_s",
        commits,
        || (),
        |()| {
            replay(&capture, &ReplayMix::Original, workers).expect("a same-mix replay cannot fail")
        },
    );
    b.rate(
        "services.partition_run_commits_per_s",
        commits,
        || (),
        |()| run_partitioned(spec, PARTITIONS),
    );
    let files = commits as u64 * spec.files_per_commit as u64;
    b.secs(
        "services.partition_merge_s",
        || {
            let store = mark_sweep();
            let parts: Vec<_> = spec_partitions(spec, PARTITIONS)
                .iter()
                .map(|p| run_partition(p, &store, 1).expect("spec partitions are valid"))
                .collect();
            (parts, store)
        },
        |(parts, store)| {
            merge_partitions(0, spec.clients, files, &parts, store, Instant::now())
                .expect("the partitions tile the population")
        },
    );
}

fn client(b: &mut Bench) {
    let (bytes, seed) = (b.sizes.bytes, b.seed);
    let small = BatchSpec::new(100, bytes / 100, FileKind::RandomBinary).generate(seed ^ 0xC1);
    let large = BatchSpec::new(1, bytes, FileKind::RandomBinary).generate(seed ^ 0xC2);
    let at = SimTime::ZERO + SimDuration::from_secs(120);
    let fresh = |profile: ServiceProfile| {
        move || {
            (
                Simulator::new(seed),
                SyncClient::with_pipeline(profile.clone(), UploadPipeline::sequential()),
            )
        }
    };

    let logins = b.sizes.transfers * 4;
    b.rate(
        "services.client_login_per_s",
        logins as f64,
        || (),
        |()| {
            (0..logins)
                .map(|_| {
                    let (mut sim, mut client) = fresh(ServiceProfile::dropbox())();
                    client.login(&mut sim, SimTime::ZERO)
                })
                .max()
        },
    );
    fn sync(
        files: &[GeneratedFile],
        at: SimTime,
    ) -> impl FnMut((Simulator, SyncClient)) -> SyncOutcome + '_ {
        move |(mut sim, mut client)| client.sync_batch(&mut sim, files, at)
    }
    b.rate(
        "services.client_sync_bundled_files_per_s",
        100.0,
        fresh(ServiceProfile::dropbox()),
        sync(&small, at),
    );
    b.rate(
        "services.client_sync_per_file_files_per_s",
        100.0,
        fresh(ServiceProfile::cloud_drive()),
        sync(&small, at),
    );
    b.rate(
        "services.client_sync_1mb_mb_per_s",
        bytes as f64 / 1e6,
        fresh(ServiceProfile::dropbox()),
        sync(&large, at),
    );
    let policy = RetryConfig::standard_exponential().policy();
    b.rate(
        "services.client_sync_faulted_none_files_per_s",
        100.0,
        fresh(ServiceProfile::dropbox()),
        |(mut sim, mut client)| {
            client.sync_batch_faulted(
                &mut sim,
                &small,
                at,
                &FaultSchedule::NONE,
                policy.as_ref(),
                seed,
            )
        },
    );
    let batch: Vec<(&str, &[u8])> =
        small.iter().map(|f| (f.path.as_str(), f.content.as_slice())).collect();
    b.rate(
        "services.planner_plan_batch_files_per_s",
        100.0,
        || UploadPlanner::with_pipeline(ServiceProfile::dropbox(), UploadPipeline::sequential()),
        |mut planner| planner.plan_batch(&batch),
    );

    // Restore: an owner's hundred files sit in a shared store; a second
    // device that holds nothing pulls the namespace back down.
    let shared = ObjectStore::new();
    let device = |user: &str| {
        SyncClient::for_user(
            ServiceProfile::dropbox(),
            UploadPipeline::sequential(),
            shared.clone(),
            user,
        )
    };
    device("owner").sync_batch(&mut Simulator::new(seed), &small, at);
    b.rate(
        "services.client_restore_files_per_s",
        100.0,
        || (Simulator::new(seed), device("puller")),
        |(mut sim, mut client)| {
            let outcome = client.restore_user(&mut sim, "owner", at);
            assert_eq!(outcome.files_restored, 100, "the layer benchmark's restore must succeed");
            outcome
        },
    );
    b.rate(
        "services.planner_plan_restore_files_per_s",
        100.0,
        || {
            UploadPlanner::for_user(
                ServiceProfile::dropbox(),
                UploadPipeline::sequential(),
                shared.clone(),
                "puller",
            )
        },
        |mut planner| planner.plan_restore_user("owner"),
    );
}

fn fleet(b: &mut Bench) {
    // The quick shape of the end-to-end fleet: small enough to repeat,
    // the same code paths (faults, restore fan, leavers, eager GC).
    let spec = fleet_spec(&shape(crate::workloads::Size::Quick), b.seed);
    let eager = || ObjectStore::with_policy(GcPolicy::Eager);
    let t = tally(&run_fleet(&spec, eager(), 1));
    let files = (t.synced + t.restored) as f64;
    let workers = cloudsim_parallel::available_workers();
    let one = b.rate("services.fleet_run_1w_files_per_s", files, eager, |s| run_fleet(&spec, s, 1));
    let many =
        b.rate("services.fleet_run_nw_files_per_s", files, eager, |s| run_fleet(&spec, s, workers));
    b.set("services.fleet_nw_speedup", many / one);

    let big = FleetSpec::new(ServiceProfile::dropbox(), b.sizes.transfers * 40)
        .with_batches(5)
        .with_seed(b.seed);
    let events = (big.slots.len() * big.rounds) as f64;
    b.rate(
        "services.schedule_generate_events_per_s",
        events,
        || (),
        |()| FleetSchedule::generate(&big),
    );
}
