//! Deterministic parallel sweep executor.
//!
//! The paper's campaigns (Fig 6 BER curves, Table 2 TWR statistics, the
//! distance sweep) are embarrassingly parallel across sweep points, but a
//! naive port would thread one RNG through the whole run and make results
//! depend on scheduling. This module fixes the contract instead:
//!
//! * every sweep point gets its **own** RNG stream, derived with
//!   [`stream_seed`] from `(campaign seed, point index)` only, and
//! * [`run_indexed`] returns results **in index order** regardless of
//!   which worker finished first,
//!
//! so a campaign's output is bit-identical at any thread count — the
//! determinism the top-down methodology needs to compare model fidelities
//! across runs (and machines).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads to use for campaigns: the machine's available
/// parallelism (1 if that cannot be determined). Campaigns that need
/// another count take it as an argument.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives the RNG seed for sweep point `index` of a campaign seeded with
/// `seed`.
///
/// A SplitMix64-style finalizer over the pair: avalanching guarantees that
/// neighbouring indices (and neighbouring campaign seeds) produce
/// uncorrelated ChaCha8 streams. Pure function of its arguments — this is
/// what makes campaign results independent of the thread count.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `task(0) .. task(n-1)` on a scoped worker pool of `threads`
/// threads and returns the results **in index order**.
///
/// Work is claimed from a shared atomic counter, so load-balancing is
/// dynamic (sweep points can differ wildly in cost — a circuit-level BER
/// point dwarfs an ideal one), while the output order is fixed. With
/// `threads <= 1` the tasks run inline on the caller's thread.
///
/// `task` must be `Sync` (shared by all workers) but its return value only
/// needs `Send` — values are created and consumed on one worker each.
pub fn run_indexed<T, F>(n: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = task(i);
                collected.lock().unwrap().push((i, value));
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap();
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Fallible variant of [`run_indexed`]: all `n` tasks run to completion,
/// then the **lowest-indexed** error (if any) is returned — the same error
/// a serial loop would have hit first, independent of scheduling.
///
/// # Errors
///
/// The error of the lowest-indexed failing task.
pub fn try_run_indexed<T, E, F>(n: usize, threads: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    run_indexed(n, threads, task).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Make early indices slow so completion order inverts.
        let out = run_indexed(16, 8, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 200));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = |i: usize| stream_seed(42, i as u64);
        let serial = run_indexed(33, 1, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_indexed(33, threads, f), serial, "{threads} threads");
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        for threads in [1, 4] {
            let r: Result<Vec<usize>, usize> =
                try_run_indexed(20, threads, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
            assert_eq!(r, Err(3), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(none.is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(stream_seed(0xBE5, i)), "collision at {i}");
        }
        // Pinned: these values are part of campaign reproducibility.
        assert_eq!(stream_seed(0, 0), stream_seed(0, 0));
        assert_ne!(stream_seed(0, 0), stream_seed(0, 1));
        assert_ne!(stream_seed(0, 0), stream_seed(1, 0));
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
