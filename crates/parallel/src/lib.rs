//! Order-preserving parallel map over scoped threads.
//!
//! The one threading primitive the workspace needs, shared by the storage
//! byte pipelines, the workload generator, the fleet and the suites: run
//! `work(ctx, i)` for `i in 0..count` across worker threads and return
//! results indexed by `i`, bit-identically to a sequential loop. Workers
//! pull indices from a shared atomic counter and tag every result with its
//! index; the tags are used to reassemble deterministic output. No locks, no
//! unsafe, no pool — workers are `std::thread::scope` threads that live for
//! one call.
//!
//! **Nesting is detected, not configured.** Every worker thread a fan-out
//! spawns is marked for its lifetime, and a fan-out entered from a marked
//! thread runs all of its items inline on that thread with one context. So a
//! harness that is parallel at one level (a fleet wave, a benchmark cell, a
//! partition) can call code that would fan out on its own (the byte
//! pipelines, the batch generator) and the host still runs one level of
//! threads. [`auto_workers`] answers 1 on a marked thread, so such code does
//! not even prepare a fan-out there (split an input, lend scratch tables).
//! A one-worker fan-out spawns nothing and marks nothing: beneath it the
//! calling thread is still the only one, so a nested fan-out may use the
//! host.
//!
//! [`run_indexed`] and [`run_with_contexts`] differ only in who owns the
//! per-worker contexts (built per call on the worker, or lent by the caller
//! and kept across calls — how the LZSS size count keeps its 320 kB tables
//! off the spawned threads), so both are two-line adapters over one private
//! body.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    /// True on a thread spawned by [`fan_out`], from its first instruction to
    /// its exit; never set on any other thread, so there is nothing to reset.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn available_workers() -> usize {
    thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The shared auto-sizing policy for fan-out callers: one worker when the
/// batch is trivial (`work_items < 2`), too small to amortise the
/// scoped-thread fan-out (`total_bytes < threshold_bytes`), or the caller is
/// itself a fan-out worker (whose fan-outs run inline anyway, so the answer
/// says what will happen); otherwise the host's available parallelism,
/// capped at one worker per item. A caller that has to prepare per-worker
/// state — split an input, lend scratch tables — asks this first and does
/// none of it when the answer is 1.
pub fn auto_workers(work_items: usize, total_bytes: u64, threshold_bytes: u64) -> usize {
    if work_items < 2 || total_bytes < threshold_bytes || IS_WORKER.with(Cell::get) {
        1
    } else {
        available_workers().clamp(1, work_items)
    }
}

/// Runs `work(ctx, i)` for `i in 0..count` on up to `workers` threads and
/// returns the results in index order. `init` builds one context per worker
/// (e.g. a reusable scratch buffer); with `workers <= 1`, or when the caller
/// is itself a fan-out worker, the whole map runs on the calling thread with
/// a single context. Panics in `work` propagate.
pub fn run_indexed<C, T, I, F>(workers: usize, count: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    fan_out((0..workers.max(1)).map(|_| ()), count, |()| init(), work)
}

/// Like [`run_indexed`], but over caller-owned worker contexts that persist
/// across calls: runs `work(ctx, i)` for `i in 0..count` with exactly one
/// scoped thread per entry of `contexts` (capped at one per item), returning
/// results in index order. The fleet harness uses this to hand each round
/// worker a long-lived trace shard that keeps accumulating packets wave after
/// wave. With a single worker, or when the caller is itself a fan-out
/// worker, the whole map runs inline on the calling thread with the first
/// context. Panics in `work` propagate; panics if `contexts` is empty.
pub fn run_with_contexts<C, T, F>(contexts: &mut [C], count: usize, work: F) -> Vec<T>
where
    C: Send,
    T: Send,
    F: Fn(&mut C, usize) -> T + Sync,
{
    assert!(!contexts.is_empty(), "at least one worker context is required");
    fan_out(contexts.iter_mut(), count, |ctx| ctx, work)
}

/// The one fan-out body behind both entry points. Each of the first `count`
/// `seeds` becomes one worker: `open` turns the seed into the worker's
/// context on the worker's own thread — built there by [`run_indexed`]'s
/// `init` (so a context need not be `Send`), or simply the caller's
/// `&mut C` for [`run_with_contexts`] — and the worker claims indices off a
/// shared counter until none are left. Called from a worker of an enclosing
/// fan-out, it uses one seed and spawns nothing.
fn fan_out<S, G, C, T>(
    seeds: impl ExactSizeIterator<Item = S>,
    count: usize,
    open: impl Fn(S) -> G + Sync,
    work: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<T>
where
    S: Send,
    G: BorrowMut<C>,
    T: Send,
{
    let nested = IS_WORKER.with(Cell::get);
    let mut seeds = seeds.take(if nested { count.min(1) } else { count });
    if seeds.len() <= 1 {
        let Some(seed) = seeds.next() else { return Vec::new() };
        let mut ctx = open(seed);
        return (0..count).map(|i| work(ctx.borrow_mut(), i)).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = |seed: S| {
        IS_WORKER.with(|is_worker| is_worker.set(true));
        let mut ctx = open(seed);
        let mut shard = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break shard;
            }
            shard.push((i, work(ctx.borrow_mut(), i)));
        }
    };
    let shards: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
        let handles: Vec<_> = seeds.map(|seed| scope.spawn(|| claim(seed))).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in shards.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "duplicate work item {i}");
        slots[i] = Some(value);
    }
    slots.into_iter().map(|slot| slot.expect("work item lost")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_under_contention() {
        let doubled = run_indexed(8, 1000, || (), |(), i| i * 2);
        assert_eq!(doubled.len(), 1000);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn empty_and_single_item_work() {
        assert!(run_indexed(4, 0, || (), |(), i| i).is_empty());
        assert_eq!(run_indexed(4, 1, || (), |(), i| i + 7), vec![7]);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run_indexed(
            1,
            257,
            || 0u64,
            |acc, i| {
                *acc += 1;
                i as u64 * 3
            },
        );
        let par = run_indexed(
            5,
            257,
            || 0u64,
            |acc, i| {
                *acc += 1;
                i as u64 * 3
            },
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn persistent_contexts_survive_across_calls() {
        let mut tallies = vec![0u64; 3];
        let a = run_with_contexts(&mut tallies, 100, |seen, i| {
            *seen += 1;
            i * 2
        });
        assert_eq!(a, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let b = run_with_contexts(&mut tallies, 50, |seen, i| {
            *seen += 1;
            i
        });
        assert_eq!(b, (0..50).collect::<Vec<_>>());
        // Every item was tallied exactly once, accumulated across both calls.
        assert_eq!(tallies.iter().sum::<u64>(), 150);
    }

    #[test]
    fn single_context_runs_inline_and_empty_count_is_empty() {
        let mut ctxs = vec![0usize];
        assert!(run_with_contexts(&mut ctxs, 0, |c, i| {
            *c += 1;
            i
        })
        .is_empty());
        let out = run_with_contexts(&mut ctxs, 5, |c, i| {
            *c += 1;
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(ctxs[0], 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker context")]
    fn empty_contexts_panic() {
        let mut ctxs: Vec<()> = Vec::new();
        let _ = run_with_contexts(&mut ctxs, 3, |(), i| i);
    }

    /// Where each of `count` items of a two-worker fan-out ran.
    fn item_threads(count: usize) -> Vec<thread::ThreadId> {
        run_indexed(2, count, || (), |(), _| thread::current().id())
    }

    #[test]
    fn a_fan_out_started_inside_a_worker_runs_on_that_worker() {
        let caller = thread::current().id();
        let outer = run_indexed(
            2,
            4,
            || (),
            |(), _| {
                let worker = thread::current().id();
                let mut contexts = [0usize; 2];
                let lent = run_with_contexts(&mut contexts, 8, |seen, _| {
                    *seen += 1;
                    thread::current().id()
                });
                assert_eq!(contexts, [8, 0], "the first context takes every item");
                (worker, item_threads(8), lent)
            },
        );
        for (worker, built, lent) in outer {
            assert_ne!(worker, caller);
            assert!(built.iter().chain(&lent).all(|id| *id == worker));
        }
        // The mark lives and dies with the worker threads: back on the
        // caller, every item runs on a spawned thread again.
        assert!(item_threads(8).iter().all(|id| *id != caller));
    }

    #[test]
    fn auto_workers_answers_one_inside_a_worker() {
        let top_level = auto_workers(64, 1 << 30, 0);
        assert_eq!(top_level, available_workers().min(64));
        let nested = run_indexed(2, 4, || (), |(), _| auto_workers(64, 1 << 30, 0));
        assert_eq!(nested, vec![1; 4]);
        // A one-worker fan-out marks nothing, and neither does a finished one.
        let inline = run_indexed(1, 2, || (), |(), _| auto_workers(64, 1 << 30, 0));
        assert_eq!(inline, vec![top_level; 2]);
        assert_eq!(auto_workers(64, 1 << 30, 0), top_level);
        // The size rules still apply at top level.
        assert_eq!(auto_workers(1, 1 << 30, 0), 1);
        assert_eq!(auto_workers(64, 99, 100), 1);
    }

    #[test]
    fn a_panicking_worker_leaves_no_mark_on_the_caller() {
        let caller = thread::current().id();
        let panicked = std::panic::catch_unwind(|| {
            run_indexed(2, 4, || (), |(), i| assert_ne!(i, 2, "item 2 fails"))
        });
        assert!(panicked.is_err());
        assert!(item_threads(8).iter().all(|id| *id != caller));
    }

    #[test]
    fn contexts_are_per_worker() {
        // With one worker the context accumulates across all items.
        let counts = run_indexed(
            1,
            10,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }
}
