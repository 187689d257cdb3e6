//! The parallel sharded analysis pipeline.
//!
//! Every LagAlyzer analysis is a fold over episodes (or over whole
//! sessions) whose accumulators are exact — integer counts, integer
//! nanosecond sums, minima and maxima — and are normalized to floating
//! point exactly once at the end. That makes the fold splittable: shard
//! the input into contiguous index ranges, accumulate each shard on its
//! own worker, and merge the shard accumulators in shard order. Because
//! the merge is exact and the shards are contiguous and ascending, the
//! merged result is *byte-identical* to the serial one regardless of the
//! number of workers or shards.
//!
//! The worker pool is built on `std::thread::scope` only, so the pipeline
//! works without any external dependency. Shards are claimed from an
//! atomic counter, which load-balances uneven shards; each result is
//! stored in its shard's slot, so the results come back in shard order
//! whichever worker ran each shard, which is what keeps the pipeline
//! deterministic. The threads are spawned by one non-generic function,
//! compiled once however many result types the pool serves.
//!
//! The module lives in `lagalyzer-model` (the bottom of the crate graph)
//! so that both the trace codecs and the analyses can fan work out over
//! the same pool; `lagalyzer_core::parallel` re-exports it unchanged.
//!
//! ```
//! use lagalyzer_model::parallel::map_shards;
//!
//! let data: Vec<u64> = (0..10_000).collect();
//! let shard_sums = map_shards(data.len(), 4, |range| {
//!     data[range].iter().sum::<u64>()
//! });
//! let total: u64 = shard_sums.into_iter().sum();
//! assert_eq!(total, data.iter().sum());
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shards per worker: more shards than workers lets the atomic claim
/// counter balance uneven per-shard work without affecting the merged
/// result (the merge is exact, so shard granularity is invisible).
const SHARDS_PER_JOB: usize = 4;

/// The machine's available parallelism, falling back to 1 when it cannot
/// be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Resolves a user-requested job count: `None` or `Some(0)` mean "use the
/// available parallelism", anything else is taken literally.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        None | Some(0) => available_jobs(),
        Some(n) => n,
    }
}

/// The worker count a request for `jobs` actually gets: clamped to the
/// machine's available parallelism (never below 1).
///
/// Oversubscribing a CPU-bound fold is pure overhead — the shards are
/// claimed from a shared counter, so fewer workers simply claim more
/// shards each, and the merged result is identical either way. Clamping
/// here means `--jobs 8` on a 2-core box runs the 2-worker schedule
/// instead of thrashing 8 threads across 2 cores.
pub fn effective_jobs(jobs: usize) -> usize {
    jobs.clamp(1, available_jobs())
}

/// Splits `0..len` into at most `shards` contiguous ascending ranges of
/// near-equal size (the first `len % shards` ranges are one longer).
/// Returns fewer ranges when `len < shards` and none when `len == 0`.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// How many shards to cut `len` items into for `jobs` workers.
fn shard_count(len: usize, jobs: usize) -> usize {
    if jobs <= 1 {
        1
    } else {
        jobs.saturating_mul(SHARDS_PER_JOB).min(len.max(1))
    }
}

/// The shards [`map_shards`] and [`map_shards_init`] cut `0..len` into
/// when asked for `jobs` workers, in order: one range for one effective
/// worker, else several per worker.
pub fn shard_plan(len: usize, jobs: usize) -> Vec<Range<usize>> {
    shard_ranges(len, shard_count(len, effective_jobs(jobs)))
}

/// Runs `f` over contiguous ascending shards of `0..len` on a pool of at
/// most `jobs` worker threads and returns the shard results *in shard
/// order* (ascending by range start), ready for an in-order merge.
///
/// The worker count is clamped to the machine's available parallelism
/// (see [`effective_jobs`]); with one effective worker (or a single
/// shard) everything runs inline on the calling thread — the serial path
/// spawns nothing. An empty input yields an empty result vector.
pub fn map_shards<R, F>(len: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    map_shards_init(len, jobs, || (), |(), range| f(range))
}

/// Like [`map_shards`], but each worker thread builds one persistent
/// state value with `init` and reuses it (`&mut`) across every shard it
/// claims.
///
/// This is how decode and analysis hot paths keep per-worker scratch —
/// reused builders, sample buffers, arenas — alive across work batches
/// instead of reallocating them per shard (or worse, per item): the shard
/// granularity exists purely for load balancing, so worker-lifetime state
/// is the natural place for anything reusable. The state never migrates
/// between threads and is dropped when the worker finishes.
///
/// Results are returned in shard order exactly like [`map_shards`]; with
/// one effective worker everything runs inline on one state value, so the
/// merged result is byte-identical regardless of `jobs`.
pub fn map_shards_init<S, R, I, F>(len: usize, jobs: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> R + Sync,
{
    let jobs = effective_jobs(jobs);
    let ranges = shard_plan(len, jobs);
    if jobs <= 1 || ranges.len() <= 1 {
        let mut state = init();
        return ranges.into_iter().map(|r| f(&mut state, r)).collect();
    }
    // A slot's lock is held only to store its result, which cannot
    // panic, so no lock is ever poisoned.
    const UNPOISONED: &str = "a slot's lock is held only to store a result";
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(i) else { break };
            let result = f(&mut state, range.clone());
            *slots[i].lock().expect(UNPOISONED) = Some(result);
        }
    };
    run_workers(jobs.min(ranges.len()), &worker);
    slots
        .into_iter()
        .map(|slot| {
            let result = slot.into_inner().expect(UNPOISONED);
            result.expect("every shard is claimed and run exactly once")
        })
        .collect()
}

/// Runs `worker` on `workers` scoped threads and returns once every one
/// has finished, re-raising a worker's panic: the pool's only thread
/// code, and not generic, so it is compiled once for every caller.
fn run_workers(workers: usize, worker: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_input() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(len, shards);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= shards.max(1));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                    assert!(!w[1].is_empty());
                }
                let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal shards, got {sizes:?}");
            }
        }
    }

    #[test]
    fn map_shards_preserves_shard_order() {
        for jobs in [1usize, 2, 3, 8] {
            let starts = map_shards(1000, jobs, |range| range.start);
            let mut sorted = starts.clone();
            sorted.sort_unstable();
            assert_eq!(starts, sorted, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_fold_matches_serial() {
        let data: Vec<u64> = (0..4096).map(|i| i * 37 % 101).collect();
        let serial: u64 = data.iter().sum();
        for jobs in [1usize, 2, 5, 16] {
            let total: u64 = map_shards(data.len(), jobs, |r| data[r].iter().sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_no_shards() {
        let out = map_shards(0, 8, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_input() {
        let out = map_shards(1, 8, |r| r.clone());
        assert_eq!(out, vec![0..1]);
    }

    #[test]
    fn effective_jobs_clamps_to_machine() {
        assert_eq!(effective_jobs(0), 1);
        assert_eq!(effective_jobs(1), 1);
        let avail = available_jobs();
        assert_eq!(effective_jobs(avail + 100), avail);
    }

    #[test]
    fn map_shards_init_reuses_worker_state() {
        // Each worker counts the shards it handled in its own state; the
        // per-shard results must still arrive in shard order and cover
        // every index exactly once.
        for jobs in [1usize, 2, 8] {
            let results = map_shards_init(
                1000,
                jobs,
                || 0usize,
                |claimed, range| {
                    *claimed += 1;
                    (*claimed, range)
                },
            );
            let mut seen = 0;
            for (claimed, range) in &results {
                assert!(*claimed >= 1);
                assert_eq!(range.start, seen, "jobs={jobs}: shard order broken");
                seen = range.end;
            }
            assert_eq!(seen, 1000, "jobs={jobs}: shards must cover the input");
            // Worker-lifetime state outlives individual shards: the total
            // of per-worker claim counters equals the shard count, and on
            // the inline path one state value sees every shard.
            if effective_jobs(jobs) == 1 {
                let last = results.last().unwrap();
                assert_eq!(last.0, results.len());
            }
        }
    }

    #[test]
    fn resolve_jobs_defaults() {
        assert!(resolve_jobs(None) >= 1);
        assert_eq!(resolve_jobs(Some(0)), available_jobs());
        assert_eq!(resolve_jobs(Some(3)), 3);
    }
}
