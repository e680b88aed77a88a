//! The traced run: one number per layer, from harness-side spans.
//!
//! Each layer is driven alone through its public calls with inputs built
//! from the seed. A throughput row is the amount of work in one repetition
//! over the median repetition time ([`Sizes::reps`] repetitions after one
//! untimed call, spread recorded); a count row is exact and repeats bit
//! for bit. The four end-to-end workloads are then run with spans on,
//! which gives the `decomp.*` and `proc.*` rows, and in pairs with spans
//! on and off, which gives `harness.span_overhead_share`.

mod net_trace;
mod services;
mod storage;
mod suites;
mod workloads;

use crate::manifest;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::Size;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// How much work the layer benchmarks do.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Whether the end-to-end workloads run at full or quick size.
    pub size: Size,
    /// Timed repetitions of a throughput row.
    pub reps: usize,
    /// Bytes of one content buffer (a "1 MB file").
    pub bytes: usize,
    /// Users of a populated store.
    pub users: usize,
    /// Clients of a scale population.
    pub clients: usize,
    /// Packets of a trace.
    pub packets: usize,
    /// Megabyte transfers (and, times forty, small exchanges) one
    /// repetition of a netsim row makes; also the waves of one repetition
    /// of a `parallel.*` row.
    pub transfers: usize,
    /// Clients of the cost ladder's lowest rung (the others are 4x and 16x).
    pub ladder_base: usize,
    /// Traced iterations of each end-to-end workload, after one warm-up.
    pub iterations: usize,
}

impl Sizes {
    /// The sizes behind the committed numbers.
    pub fn full() -> Sizes {
        Sizes {
            size: Size::Full,
            reps: 9,
            bytes: 1_000_000,
            users: 10_000,
            clients: 10_000,
            packets: 500_000,
            transfers: 500,
            ladder_base: 25_000,
            iterations: 4,
        }
    }

    /// Tiny sizes that drive every row end to end in a few seconds.
    pub fn quick() -> Sizes {
        Sizes {
            size: Size::Quick,
            reps: 2,
            bytes: 40_000,
            users: 200,
            clients: 200,
            packets: 2_000,
            transfers: 5,
            ladder_base: 100,
            iterations: 2,
        }
    }
}

/// A synthetic 256-bit content hash from four 64-bit lanes — the shape of
/// the hashes the fleet-scale runner commits for its metadata-only chunks.
fn hash_from_lanes(lane: impl Fn(u64) -> u64) -> cloudsim_storage::ContentHash {
    let mut bytes = [0u8; 32];
    for i in 0..4u64 {
        bytes[i as usize * 8..][..8].copy_from_slice(&lane(i).to_le_bytes());
    }
    cloudsim_storage::ContentHash(bytes)
}

/// One per-layer result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The metric's value.
    pub value: f64,
    /// Repetitions behind it (1 for a count or a single sample).
    pub n: usize,
    /// Interquartile spread of the repetition times as a share of their
    /// median (0 for a count or a single sample).
    pub spread: f64,
}

/// Collects rows while recording one span per repetition.
pub struct Bench<'a> {
    /// The span recorder every repetition is recorded into.
    pub spans: &'a Spans,
    /// The sizes in force.
    pub sizes: Sizes,
    /// The seed inputs derive from.
    pub seed: u64,
    rows: BTreeMap<String, Row>,
}

impl<'a> Bench<'a> {
    fn new(spans: &'a Spans, sizes: Sizes, seed: u64) -> Bench<'a> {
        Bench { spans, sizes, seed, rows: BTreeMap::new() }
    }

    /// Times `work(setup())` [`Sizes::reps`] times after one untimed call,
    /// `setup` and the drop of `work`'s result staying outside the clock.
    pub fn time<S, R>(
        &mut self,
        name: &str,
        size: u64,
        mut setup: impl FnMut() -> S,
        mut work: impl FnMut(S) -> R,
    ) -> Summary {
        black_box(work(setup()));
        let mut secs = Vec::with_capacity(self.sizes.reps);
        for _ in 0..self.sizes.reps {
            let input = setup();
            let (result, dt) = self.spans.sized(name, size, || {
                let t0 = Instant::now();
                let result = work(input);
                (result, t0.elapsed())
            });
            black_box(result);
            secs.push(dt.as_secs_f64());
        }
        Summary::of(&secs).expect("reps > 0")
    }

    /// Records `name` as `amount` per median second of `work`.
    pub fn rate<S, R>(
        &mut self,
        name: &str,
        amount: f64,
        setup: impl FnMut() -> S,
        work: impl FnMut(S) -> R,
    ) -> f64 {
        let s = self.time(name, amount as u64, setup, work);
        let value = amount / s.median;
        self.rows.insert(name.to_string(), Row { value, n: s.n, spread: s.iqr_share() });
        value
    }

    /// Records `name` as the median seconds of `work`.
    pub fn secs<S, R>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        work: impl FnMut(S) -> R,
    ) -> f64 {
        let s = self.time(name, 0, setup, work);
        self.rows.insert(name.to_string(), Row { value: s.median, n: s.n, spread: s.iqr_share() });
        s.median
    }

    /// Records `name` as the seconds of one call of `work`.
    pub fn once<R>(&mut self, name: &str, work: impl FnOnce() -> R) -> R {
        let (result, dt) = self.spans.scope(name, || {
            let t0 = Instant::now();
            let result = work();
            (result, t0.elapsed().as_secs_f64())
        });
        self.set(name, dt);
        result
    }

    /// Records an exact count or a value derived from other rows.
    pub fn set(&mut self, name: &str, value: f64) {
        self.rows.insert(name.to_string(), Row { value, n: 1, spread: 0.0 });
    }

    /// Records a value that summarises `n` samples with the given spread.
    pub fn set_summary(&mut self, name: &str, value: f64, n: usize, spread: f64) {
        self.rows.insert(name.to_string(), Row { value, n, spread });
    }
}

/// A finished traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    /// One row per name of [`manifest::per_layer`], no more, no fewer.
    pub rows: BTreeMap<String, Row>,
    /// Operations the four traced workloads attempted (none failed, or
    /// the run would have been an error).
    pub attempted: u64,
}

/// Runs every layer benchmark and the four traced workloads. Errors when
/// an operation of a workload fails, a digest disagrees, or the rows
/// produced are not exactly the names of [`manifest::per_layer`].
pub fn run(spans: &Spans, sizes: Sizes, seed: u64) -> Result<Layers, String> {
    let mut bench = Bench::new(spans, sizes, seed);
    spans.scope("layers", || {
        // The store's resident size is read as a difference of VmRSS, so
        // it goes first, before other groups leave freed pages behind.
        storage::run(&mut bench);
        net_trace::run(&mut bench);
        services::run(&mut bench);
        suites::run(&mut bench);
    });
    let attempted = workloads::run(&mut bench)?;

    let expected: Vec<String> = manifest::per_layer().into_iter().map(|d| d.name).collect();
    let missing: Vec<&String> = expected.iter().filter(|n| !bench.rows.contains_key(*n)).collect();
    let extra: Vec<&String> = bench.rows.keys().filter(|n| !expected.contains(n)).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "per-layer rows disagree with the manifest: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    Ok(Layers { rows: bench.rows, attempted })
}
