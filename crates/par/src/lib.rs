//! Deterministic parallel execution primitives.
//!
//! Everything in this repo is built around sealed deterministic units: a
//! simulation (or a differential scenario, or a random schedule) takes a
//! seed and produces a value, with no hidden shared state. That makes
//! scenario-level parallelism trivially safe — the only thing a parallel
//! runner must guarantee is that *results come back in input order* so
//! downstream consumers (reports, golden files, shrinking loops) see the
//! same sequence a serial loop would have produced.
//!
//! This crate provides exactly that, with no dependencies beyond `std`:
//!
//! - [`par_map`]: an ordered fork–join map over scoped threads
//!   ([`std::thread::scope`]). The workers — the calling thread is one
//!   of them, so `threads = N` applies exactly `N` threads of compute —
//!   claim input indices from a shared atomic cursor, and the results
//!   are put back in index order once every worker has joined, so the
//!   output order is the input order regardless of how the scheduler
//!   interleaved the jobs. Every caller in the workspace runs one map
//!   per process or per test, so there is no pool to keep warm.
//! - [`configured_threads`]: the process-wide thread-count knob. CLI
//!   `--threads N` flags and the `DBGP_THREADS` environment variable both
//!   funnel through here; `1` means "use the existing serial paths".
//!
//! # The ordered-map contract
//!
//! `par_map(threads, items, f)` is observationally equivalent to
//! `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` provided
//! `f` is a pure function of its arguments. If any job panics, the
//! remaining jobs still run and the panic is re-raised, with its
//! payload, on the calling thread *after* every worker has joined, so a
//! panicking check inside one scenario cannot strand a thread mid-job.

#![forbid(unsafe_code)]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Ordered parallel map: apply `f` to every item on up to `threads`
/// threads (the caller included), returning results in input order.
/// `threads <= 1` or a single item runs inline on the caller.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the results
            // are published by the joins below.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, f(i, item)));
        }
    };
    let joined = thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        // A panic in the caller's own share unwinds through the scope,
        // which joins the spawned workers before letting it out.
        let mut results = worker();
        let mut panicked = None;
        for handle in spawned {
            match handle.join() {
                Ok(done) => results.extend(done),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        panicked.map_or(Ok(results), Err)
    });
    let mut results = joined.unwrap_or_else(|payload| panic::resume_unwind(payload));
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// The process-wide thread-count default: `DBGP_THREADS` if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// CLI `--threads` flags override this per invocation.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("DBGP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(4, &items, |i, &x| {
            // Skew per-job runtime so completion order differs from
            // submission order.
            let mut acc = x;
            for _ in 0..((100 - i) * 50) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            let _ = acc;
            (i, x * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, items[i] * 2);
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u32> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| (x as u64) * x as u64 + 7).collect();
        let parallel = par_map(3, &items, |_, &x| (x as u64) * x as u64 + 7);
        assert_eq!(serial, parallel);
        assert_eq!(par_map(8, &[] as &[u32], |_, &x| x), Vec::<u32>::new());
    }

    #[test]
    fn one_thread_runs_inline() {
        let caller = thread::current().id();
        let out = par_map(1, &[1, 2, 3], |_, &x| (thread::current().id(), x + 1));
        assert_eq!(out, vec![(caller, 2), (caller, 3), (caller, 4)]);
        // Zero is clamped up, not a request for no work.
        assert_eq!(par_map(0, &[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn scoped_borrows_are_visible_after_the_map() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(4, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_maps_are_independent() {
        for round in 0..50 {
            let items: Vec<usize> = (0..8).collect();
            let out = par_map(2, &items, |_, &x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_panic_is_reraised_on_the_caller_after_the_rest_ran() {
        let items: Vec<usize> = (0..16).collect();
        let ran = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |i, _| {
                if i == 7 {
                    panic!("job 7 failed");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 7 failed"));
        // The panicking worker stops claiming, the others drain the rest.
        assert_eq!(ran.load(Ordering::Relaxed), 15);
        // Nothing is left behind to poison a later map.
        assert_eq!(par_map(4, &items, |i, _| i), items);
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
