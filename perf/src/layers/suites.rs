//! `geo.*`, `core.*` and `bench.*`: the suite wrappers and the CI gate, as
//! shipped. No end-to-end workload runs these; they are here so that a
//! change to the suite plumbing has a number to be argued against.

use super::Bench;
use cloudbench::architecture::discover_all;
use cloudbench::benchmarks::run_full_suite;
use cloudbench::{Report, Testbed};
use cloudbench_bench::{gate, metrics};

pub fn run(b: &mut Bench) {
    let seed = b.seed;
    b.secs("geo.discover_all_s", || (), |()| discover_all(seed));

    // One sample each: these take seconds, and what they watch for is a
    // step, not a percent.
    let suite = b.once("core.full_suite_s", || run_full_suite(&Testbed::new(seed), 1));
    let json = Report::to_json(&suite);
    b.rate(
        "core.report_json_mb_per_s",
        json.len() as f64 / 1e6,
        || (),
        |()| Report::to_json(&suite),
    );

    let collected = b.once("bench.gate_collect_s", metrics::collect);
    let flat = gate::render_flat(&collected);
    // The gate file is a hundred-odd entries; parse it a hundred times
    // per repetition so that a repetition takes milliseconds.
    const PARSES: usize = 100;
    b.rate(
        "bench.parse_flat_metrics_per_s",
        (collected.len() * PARSES) as f64,
        || (),
        |()| {
            (0..PARSES)
                .map(|_| gate::parse_flat(&flat).map_or(0, |entries| entries.len()))
                .sum::<usize>()
        },
    );
}
