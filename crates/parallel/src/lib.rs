//! `dnasim-par` — a hermetic work-stealing thread pool with a determinism
//! contract.
//!
//! The paper's evaluation is embarrassingly parallel across clusters and
//! sweep points, but the workspace builds with **zero registry
//! dependencies**, so there is no `rayon` to reach for. This crate is the
//! in-tree substitute, built on `std::thread::scope`:
//!
//! * [`ThreadPool::par_map_len`] / [`ThreadPool::par_map_indexed`] fan an
//!   index range or a slice out over workers and return results **in item
//!   order**;
//! * scheduling is work-stealing over chunked per-worker deques, so uneven
//!   per-item cost (BMA on a high-coverage cluster next to an erasure) does
//!   not serialise on the slowest worker;
//! * a worker panic is **isolated**: it aborts the remaining work and
//!   surfaces as a typed [`PoolError`] (convertible to
//!   [`DnasimError::Degraded`]), never as a hang or a cross-thread abort.
//!
//! # The determinism contract
//!
//! Output must be **bit-identical for every thread count** (the
//! differential suite in `tests/parallel_equivalence.rs` enforces this for
//! each pipeline stage). The pool guarantees ordering: slot `i` of the
//! result always holds `f(i, &items[i])`. Randomness is the caller's half
//! of the contract: an item must draw only from its own stream, derived
//! with [`SeedSequence::fork_rng`](dnasim_core::rng::SeedSequence::fork_rng)
//! from the item index — never from a shared generator, whose draw order
//! would depend on scheduling.
//!
//! ```
//! use dnasim_core::rng::{RngExt, SeedSequence};
//! use dnasim_par::ThreadPool;
//!
//! let seq = SeedSequence::new(42);
//! let bounds = [10u64, 20, 30, 40];
//! let draw = |i: usize| seq.fork_rng(i as u64).random_range(0..bounds[i]);
//! let two = ThreadPool::new(2).par_map_len(bounds.len(), draw)?;
//! let eight = ThreadPool::new(8).par_map_len(bounds.len(), draw)?;
//! assert_eq!(two, eight); // independent of thread count
//! # Ok::<(), dnasim_par::PoolError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use dnasim_core::{Budget, DnasimError};

/// Environment variable overriding the default worker count
/// ([`ThreadPool::from_env`]). `0`, empty, or unparsable values fall back
/// to the machine's available parallelism.
pub const THREADS_ENV: &str = "DNASIM_THREADS";

/// Target number of chunks handed to each worker up front. More chunks
/// means finer-grained stealing at the cost of more queue traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// A worker panicked inside a parallel region.
///
/// The panic is confined to the failing item: the pool stops issuing work,
/// joins every worker, and reports the first panic's message together with
/// how much of the input had completed. Converts into
/// [`DnasimError::Degraded`] at subsystem boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// The first captured panic message.
    pub panic_message: String,
    /// Items that finished before the abort.
    pub completed: usize,
    /// Items requested.
    pub total: usize,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallel worker panicked after {}/{} items: {}",
            self.completed, self.total, self.panic_message
        )
    }
}

impl std::error::Error for PoolError {}

impl From<PoolError> for DnasimError {
    fn from(e: PoolError) -> DnasimError {
        DnasimError::Degraded {
            missing: e.total.saturating_sub(e.completed),
            budget: 0,
        }
    }
}

/// Acquires a mutex, recovering the guard if a panicking thread poisoned
/// it. The pool's critical sections are non-panicking (bounded indexing
/// and queue pops), so a poisoned guard still protects consistent data.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A scoped work-stealing thread pool.
///
/// The pool is a lightweight *policy* object (just a worker count): each
/// parallel call spawns scoped workers, runs them to completion, and joins
/// them before returning, so borrows of the input live only for the call.
/// `new(1)` (or [`ThreadPool::serial`]) degenerates to an ordinary loop —
/// same results, same error behaviour, no threads spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: parallel calls run inline.
    pub fn serial() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// A pool sized from the environment: [`THREADS_ENV`] if set to a
    /// positive integer, else the machine's available parallelism.
    pub fn from_env() -> ThreadPool {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        match from_var {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::new(
                std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            ),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..len` and returns the results in
    /// index order.
    ///
    /// This is the pool's base primitive: `f` must be a pure function of
    /// its index (plus captured shared state) for the output to be
    /// independent of thread count — see the crate docs for the seeding
    /// half of that contract.
    ///
    /// # Errors
    ///
    /// [`PoolError`] if any invocation of `f` panics. Remaining work is
    /// abandoned, all workers are joined, and the first panic wins.
    pub fn par_map_len<R, F>(&self, len: usize, f: F) -> Result<Vec<R>, PoolError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(len);
        if workers == 1 {
            return map_serial(len, &f);
        }
        map_stealing(len, workers, &f)
    }

    /// Applies `f(index, &items[index])` to every item and returns the
    /// results in item order. See [`par_map_len`](ThreadPool::par_map_len).
    ///
    /// # Errors
    ///
    /// [`PoolError`] if any invocation of `f` panics.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_len(items.len(), |i| f(i, &items[i]))
    }

    /// [`par_map_indexed`](ThreadPool::par_map_indexed) metered by a
    /// [`Budget`]: charges one work unit per item *before* fanning out and
    /// maps only the admitted prefix, returning `(results, admitted)`.
    ///
    /// The admission happens in the caller's (serial) thread, so the cut
    /// point is a pure function of the budget — the parallel workers never
    /// touch the meter and cannot perturb determinism. `admitted <
    /// items.len()` means the budget ran dry; the caller decides whether
    /// the prefix is usable.
    ///
    /// # Errors
    ///
    /// [`PoolError`] if any invocation of `f` panics.
    pub fn par_map_admitted<T, R, F>(
        &self,
        budget: &Budget,
        items: &[T],
        f: F,
    ) -> Result<(Vec<R>, usize), PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let admitted = usize::try_from(budget.admit(items.len() as u64)).unwrap_or(usize::MAX);
        let out = self.par_map_len(admitted, |i| f(i, &items[i]))?;
        Ok((out, admitted))
    }

}

impl Default for ThreadPool {
    /// [`ThreadPool::from_env`].
    fn default() -> ThreadPool {
        ThreadPool::from_env()
    }
}

/// The inline (single-worker) execution path. Panic semantics match the
/// threaded path: the first panicking item aborts the region with a
/// [`PoolError`].
fn map_serial<R, F>(len: usize, f: &F) -> Result<Vec<R>, PoolError>
where
    F: Fn(usize) -> R,
{
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(value) => out.push(value),
            Err(payload) => {
                return Err(PoolError {
                    panic_message: panic_message(payload),
                    completed: out.len(),
                    total: len,
                })
            }
        }
    }
    Ok(out)
}

/// The work-stealing execution path.
///
/// `0..len` is split into roughly `workers × CHUNKS_PER_WORKER` contiguous
/// chunks dealt round-robin onto per-worker deques. A worker drains its own
/// deque from the front and, when empty, steals from the back of its
/// neighbours' — back-stealing takes the chunk its owner would reach last,
/// minimising contention on the front. Results land in a shared
/// index-addressed buffer, so completion order never affects output order.
fn map_stealing<R, F>(len: usize, workers: usize, f: &F) -> Result<Vec<R>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = (len / (workers * CHUNKS_PER_WORKER)).max(1);
    let mut initial: Vec<VecDeque<Range<usize>>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut start = 0usize;
    let mut dealt = 0usize;
    while start < len {
        let end = (start + chunk).min(len);
        initial[dealt % workers].push_back(start..end);
        dealt += 1;
        start = end;
    }
    let queues: Vec<Mutex<VecDeque<Range<usize>>>> =
        initial.into_iter().map(Mutex::new).collect();

    let results: Mutex<Vec<Option<R>>> = {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        Mutex::new(slots)
    };
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let abort = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let failure = &failure;
            let abort = &abort;
            scope.spawn(move || {
                while !abort.load(Ordering::Relaxed) {
                    let Some(range) = next_range(queues, me) else {
                        break;
                    };
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(range.len());
                    for i in range {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(value) => local.push((i, value)),
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                let mut first = lock_unpoisoned(failure);
                                if first.is_none() {
                                    *first = Some(panic_message(payload));
                                }
                                break;
                            }
                        }
                    }
                    let mut slots = lock_unpoisoned(results);
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
            });
        }
    });

    if let Some(message) = lock_unpoisoned(&failure).take() {
        let completed = lock_unpoisoned(&results)
            .iter()
            .filter(|slot| slot.is_some())
            .count();
        return Err(PoolError {
            panic_message: message,
            completed,
            total: len,
        });
    }
    let slots = match results.into_inner() {
        Ok(slots) => slots,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut out = Vec::with_capacity(len);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(value) => out.push(value),
            // Unreachable: a missing slot implies an abort, which implies a
            // recorded failure handled above. Kept as a typed error so the
            // library stays panic-free even if the invariant breaks.
            None => {
                return Err(PoolError {
                    panic_message: format!("item {i} was never executed"),
                    completed: out.len(),
                    total: len,
                })
            }
        }
    }
    Ok(out)
}

/// Pops the next chunk for worker `me`: own deque front first, then steal
/// from the back of the nearest non-empty neighbour.
fn next_range(
    queues: &[Mutex<VecDeque<Range<usize>>>],
    me: usize,
) -> Option<Range<usize>> {
    if let Some(range) = lock_unpoisoned(&queues[me]).pop_front() {
        return Some(range);
    }
    let workers = queues.len();
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        if let Some(range) = lock_unpoisoned(&queues[victim]).pop_back() {
            return Some(range);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::SeedSequence;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_matches_serial_iteration() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ThreadPool::new(threads)
                .par_map_indexed(&items, |_, &x| x * x)
                .expect("no panics");
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool.par_map_indexed(&empty, |_, &x| x).expect("ok"), Vec::<u32>::new());
        assert_eq!(pool.par_map_indexed(&[7u32], |i, &x| x + i as u32).expect("ok"), vec![7]);
    }

    #[test]
    fn map_len_runs_every_item_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        ThreadPool::new(6)
            .par_map_len(counters.len(), |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no panics");
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn forked_streams_are_thread_count_invariant() {
        use dnasim_core::rng::RngExt;
        let seq = SeedSequence::new(0xF0CA);
        let draw = |i: usize| seq.fork_rng(i as u64).random::<u64>();
        let reference = ThreadPool::serial().par_map_len(64, draw).expect("ok");
        for threads in [2, 4, 8] {
            let got = ThreadPool::new(threads).par_map_len(64, draw).expect("ok");
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let err = ThreadPool::new(threads)
                .par_map_indexed(&items, |_, &x| {
                    assert!(x != 41, "injected failure at {x}");
                    x
                })
                .expect_err("the panic must surface");
            assert!(err.panic_message.contains("injected failure"), "{err}");
            assert!(err.completed < err.total);
            assert!(matches!(
                DnasimError::from(err),
                DnasimError::Degraded { budget: 0, .. }
            ));
        }
        std::panic::set_hook(previous);
    }

    #[test]
    fn admitted_map_runs_exactly_the_budget_prefix() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 4] {
            let budget = Budget::limited(20);
            let (out, admitted) = ThreadPool::new(threads)
                .par_map_admitted(&budget, &items, |_, &x| x * 2)
                .expect("no panics");
            assert_eq!(admitted, 20, "threads = {threads}");
            assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<u64>>());
            assert_eq!(budget.spent(), 20);
        }
    }

    #[test]
    fn forked_admitted_prefix_matches_unbudgeted_run() {
        use dnasim_core::rng::RngExt;
        let seq = SeedSequence::new(0xBEEF);
        let items: Vec<u32> = (0..32).collect();
        let draw = |i: usize, _: &u32| seq.fork_rng(i as u64).random::<u64>();
        let full = ThreadPool::serial().par_map_indexed(&items, draw).expect("ok");
        for threads in [1, 2, 4] {
            let budget = Budget::limited(11);
            let (prefix, admitted) = ThreadPool::new(threads)
                .par_map_admitted(&budget, &items, draw)
                .expect("ok");
            assert_eq!(admitted, 11);
            assert_eq!(prefix, full[..11], "threads = {threads}");
        }
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn from_env_prefers_variable() {
        // Serialise against other env-reading tests by using a scoped var
        // name check only — set/remove happens in this one test.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(ThreadPool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(ThreadPool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(ThreadPool::from_env().threads() >= 1);
    }
}
