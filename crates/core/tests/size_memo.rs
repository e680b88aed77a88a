//! How much of a paper-sized run's LZSS size counting repeats content the
//! same run already counted.
//!
//! One testbed syncs the corpora of one `paper_sync` iteration of the
//! host-time benchmark (`perf/`) — the §2.3 suite's eight batches, Fig. 5's
//! three content kinds, Fig. 4's bases with their appended and inserted
//! revisions — through all five profiles, the way that workload does, and
//! prints the bytes offered to the testbed's size memo against the distinct
//! bytes it counted, and how many of those the LZSS repeat pass settled
//! without a parse (the random bytes). All three readings repeat exactly,
//! also when the testbed's clients run on several threads, and a second
//! identical pass adds no distinct byte. The release build reads the full
//! sizes:
//!
//! ```text
//! cargo test --release -p cloudbench --test size_memo -- --nocapture
//! ```

use cloudbench::benchmarks::run_suite_with_workloads;
use cloudbench::testbed::Testbed;
use cloudbench::{BatchSpec, FileKind, ServiceProfile};
use cloudsim_net::SimDuration;
use cloudsim_workload::{generate, GeneratedFile, Mutation};

/// The benchmark's default seed.
const SEED: u64 = 12;

/// What one pass syncs, per profile.
struct Corpora {
    suite: Vec<Vec<GeneratedFile>>,
    fig5: Vec<Vec<GeneratedFile>>,
    /// Fig. 4: a base and its modified revision, synced in turn.
    fig4: Vec<(GeneratedFile, GeneratedFile)>,
}

/// The corpora, derived from the testbed's seed as `paper_sync` derives
/// them.
fn corpora(testbed: &Testbed, suite: &[BatchSpec], fig5: &[usize], fig4: &[usize]) -> Corpora {
    let suite = suite
        .iter()
        .enumerate()
        .map(|(i, spec)| spec.generate(testbed.derived_seed(0x5017E, i as u64)))
        .collect();
    let fig5 = [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg]
        .into_iter()
        .flat_map(|kind| {
            fig5.iter().map(move |&size| {
                let content = generate(kind, size, testbed.derived_seed(0xF150, size as u64));
                let path = format!("fig5/file_{size}.{}", kind.extension());
                vec![GeneratedFile { path, content }]
            })
        })
        .collect();
    let fig4 = fig4
        .iter()
        .flat_map(|&size| {
            let base =
                generate(FileKind::RandomBinary, size, testbed.derived_seed(0xF160, size as u64));
            [Mutation::Append { len: 100_000 }, Mutation::InsertRandom { len: 100_000 }].map(
                |mutation| {
                    let path = "fig4/file.bin".to_string();
                    let modified = mutation.apply(&base, testbed.derived_seed(0xF161, size as u64));
                    (
                        GeneratedFile { path: path.clone(), content: base.clone() },
                        GeneratedFile { path, content: modified },
                    )
                },
            )
        })
        .collect();
    Corpora { suite, fig5, fig4 }
}

/// One pass: every corpus through every profile, on `testbed`'s clients.
fn sync_all(testbed: &Testbed, corpora: &Corpora) {
    for profile in ServiceProfile::all() {
        for sets in [&corpora.suite, &corpora.fig5] {
            for (rep, files) in sets.iter().enumerate() {
                testbed.run_sync_files(&profile, files, rep as u64);
            }
        }
        for (rep, (base, modified)) in corpora.fig4.iter().enumerate() {
            testbed.run_scripted(&profile, rep as u64, |sim, client, t0| {
                let first = client.sync_batch(
                    sim,
                    std::slice::from_ref(base),
                    t0 + SimDuration::from_secs(5),
                );
                let at = first.completed_at + SimDuration::from_secs(30);
                client.sync_batch(sim, std::slice::from_ref(modified), at);
            });
        }
    }
}

/// `(offered, distinct, certified)` bytes of `testbed`'s size memo.
fn reading(testbed: &Testbed) -> (u64, u64, u64) {
    let sizes = testbed.size_memo();
    (sizes.offered_bytes(), sizes.distinct_bytes(), sizes.certified_bytes())
}

#[test]
fn each_content_is_counted_once_per_run() {
    let (suite, fig5, fig4) = if cfg!(debug_assertions) {
        let suite = vec![
            BatchSpec::new(1, 100_000, FileKind::Text),
            BatchSpec::new(10, 10_000, FileKind::Text),
        ];
        (suite, vec![50_000], vec![150_000])
    } else {
        (BatchSpec::paper_experiments(), vec![100_000, 500_000, 1_000_000], vec![200_000, 500_000])
    };
    let testbed = Testbed::new(SEED);
    let corpora = corpora(&testbed, &suite, &fig5, &fig4);
    sync_all(&testbed, &corpora);
    let (offered, distinct, certified) = reading(&testbed);
    println!(
        "one pass: {offered} bytes offered to the size memo, {distinct} distinct, \
         {certified} of them settled without a parse; {:.1} % of the offered bytes \
         repeat a count the run already made",
        100.0 * (offered - distinct) as f64 / offered as f64
    );
    assert!(0 < distinct && distinct < offered, "{distinct} of {offered}");
    assert!(0 < certified && certified < distinct, "{certified} of {distinct}");

    // All three readings repeat on a fresh testbed.
    let fresh = Testbed::new(SEED);
    sync_all(&fresh, &corpora);
    assert_eq!(reading(&fresh), (offered, distinct, certified));

    // A second identical pass asks for every count again and makes none.
    sync_all(&testbed, &corpora);
    assert_eq!(reading(&testbed), (2 * offered, distinct, certified));

    // So do the Fig. 6 suite's cells, which share one testbed across the
    // host's cores: which worker counts a content first does not show.
    let parallel = |testbed: Testbed| {
        run_suite_with_workloads(&testbed, &suite, 1);
        reading(&testbed)
    };
    let first = parallel(Testbed::new(SEED));
    assert_eq!(parallel(Testbed::new(SEED)), first);
    assert!(first.2 < first.1 && first.1 < first.0, "{first:?}");
}
