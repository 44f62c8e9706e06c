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
//! - [`Pool`]: a persistent worker pool (plain `std::thread` workers, a
//!   mutex-protected injector queue, and a completion latch). The thread
//!   that submits a batch participates in draining it, so a pool built
//!   with `threads = N` applies exactly `N` threads of compute.
//! - [`par_map`]: an ordered fork–join map. Results land in a pre-sized
//!   slot vector by input index, so the output order is the input order
//!   regardless of how the scheduler interleaved the jobs.
//! - [`configured_threads`]: the process-wide thread-count knob. CLI
//!   `--threads N` flags and the `DBGP_THREADS` environment variable both
//!   funnel through here; `1` means "use the existing serial paths".
//!
//! # The ordered-map contract
//!
//! `par_map(pool, items, f)` is observationally equivalent to
//! `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` provided
//! `f` is a pure function of its arguments. Jobs may run on any worker
//! in any interleaving, but each result is written into its own
//! pre-allocated slot and the slots are read out in index order after
//! the batch barrier. If any job panics, the panic is re-raised on the
//! submitting thread *after* the batch completes, so a panicking check
//! inside one scenario cannot strand worker threads mid-job.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// A unit of work queued on the pool. Lifetime-erased: see the safety
/// comment on `Pool::run_batch`.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: VecDeque<Job>,
    /// Jobs queued or currently executing in the open batch.
    pending: usize,
    /// First panic payload captured from a job, re-raised by the submitter.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued (or on shutdown).
    work_ready: Condvar,
    /// Signalled when `pending` reaches zero.
    batch_done: Condvar,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // A panicking job is captured by `catch_unwind` below, so the
        // mutex can only be poisoned by a panic in this module itself;
        // recover rather than cascade.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop-and-run jobs until the queue is empty. Returns the number run.
    fn drain(&self) -> usize {
        let mut ran = 0;
        loop {
            let job = {
                let mut st = self.lock();
                match st.jobs.pop_front() {
                    Some(j) => j,
                    None => return ran,
                }
            };
            let result = panic::catch_unwind(AssertUnwindSafe(job));
            let mut st = self.lock();
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.pending -= 1;
            if st.pending == 0 {
                self.batch_done.notify_all();
            }
            ran += 1;
        }
    }
}

/// A persistent worker pool with a batch-submission API.
///
/// `Pool::new(n)` spawns `n - 1` background workers; the submitting
/// thread is the `n`-th. Batches are submitted through [`par_map`] and
/// block until every job in the batch has finished, which is what makes
/// non-`'static` borrows in jobs sound.
pub struct Pool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// A pool applying `threads` total threads of compute (the caller
    /// counts as one). `threads` is clamped to at least 1; a 1-thread
    /// pool spawns no workers and runs batches inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                pending: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("dbgp-par-{i}"))
                    .spawn(move || loop {
                        {
                            let mut st = shared.lock();
                            while st.jobs.is_empty() && !st.shutdown {
                                st = shared.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                            }
                            if st.shutdown && st.jobs.is_empty() {
                                return;
                            }
                        }
                        shared.drain();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers, threads }
    }

    /// Total threads of compute this pool applies (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run a batch of scoped jobs to completion.
    ///
    /// Blocks until every job has run; a panic from any job is re-raised
    /// here once the batch has fully drained.
    ///
    /// # Safety argument (lifetime erasure)
    ///
    /// Jobs may borrow from the caller's stack (`'scope`), but are stored
    /// as `'static` trait objects so plain `std::thread` workers can hold
    /// them. This is sound because this function does not return until
    /// `pending == 0`, i.e. until every job — including any that borrowed
    /// from the caller — has finished executing. No job outlives the
    /// borrowed data.
    fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        {
            let mut st = self.shared.lock();
            debug_assert_eq!(st.pending, 0, "overlapping batches on one pool");
            st.pending = n;
            for job in jobs {
                // SAFETY: see the lifetime-erasure argument above — the
                // barrier below outlives every job.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
                st.jobs.push_back(job);
            }
            self.shared.work_ready.notify_all();
        }
        // Participate: the submitting thread is a worker for this batch.
        self.shared.drain();
        let mut st = self.shared.lock();
        while st.pending > 0 {
            st = self.shared.batch_done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = st.panic.take() {
            drop(st);
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Ordered parallel map: apply `f` to every item, returning results in
/// input order. `f(i, &items[i])` may run on any pool thread.
pub fn par_map<T, R, F>(pool: &Pool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    if pool.threads() <= 1 || items.len() == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    {
        let f = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .zip(items.iter())
            .enumerate()
            .map(|(i, (slot, item))| {
                Box::new(move || {
                    *slot = Some(f(i, item));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(jobs);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("batch barrier guarantees every slot is filled"))
        .collect()
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&pool, &items, |i, &x| {
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
        let pool = Pool::new(3);
        let items: Vec<u32> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| (x as u64) * x as u64 + 7).collect();
        let parallel = par_map(&pool, &items, |_, &x| (x as u64) * x as u64 + 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = par_map(&pool, &[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn scoped_borrows_are_visible_after_the_batch() {
        let pool = Pool::new(4);
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(&pool, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn pool_survives_sequential_batches() {
        let pool = Pool::new(2);
        for round in 0..50 {
            let items: Vec<usize> = (0..8).collect();
            let out = par_map(&pool, &items, |_, &x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_panic_is_reraised_on_submitter() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..16).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&pool, &items, |i, _| {
                if i == 7 {
                    panic!("job 7 failed");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable after a panicking batch.
        let out = par_map(&pool, &items, |i, _| i);
        assert_eq!(out, items);
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
