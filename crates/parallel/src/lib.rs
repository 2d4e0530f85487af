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
//!   [`DnasimError::Degraded`]), never as a hang or a cross-thread abort;
//! * [`ThreadPool::ordered`] is the streaming form: workers that live for
//!   one call take items as the caller submits them, and results come
//!   back strictly in submission order through a [`Lane`].
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
use std::sync::{Condvar, Mutex, MutexGuard};

use dnasim_core::{checked_batch_size, Budget, DnasimError};

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

/// [`Condvar::wait`] with the same poison recovery as [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match condvar.wait(guard) {
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

    /// Runs `body` with a [`Lane`]: the caller submits items one at a
    /// time, `threads()` workers apply `f` to them, and the caller takes
    /// the results back strictly in submission order.
    ///
    /// The workers are spawned once, when the call starts, and live until
    /// `body` returns. Then items not yet started are dropped, running
    /// ones finish, and every worker is joined before `ordered` returns.
    /// Each item runs under `catch_unwind`, so a panic becomes that item's
    /// [`PoolError`] and the other items are unaffected. With one thread
    /// no worker is spawned: [`Lane::submit`] runs the item inline.
    ///
    /// How many items are in flight at once is the caller's choice; see
    /// [`Lane::in_flight`].
    ///
    /// ```
    /// use dnasim_par::ThreadPool;
    ///
    /// let squares = ThreadPool::new(2).ordered(
    ///     |x: u64| x * x,
    ///     |lane| {
    ///         let mut out = Vec::new();
    ///         for x in 0..10 {
    ///             if lane.in_flight() == 3 {
    ///                 out.push(lane.wait().expect("one in flight")?);
    ///             }
    ///             lane.submit(x);
    ///         }
    ///         while let Some(result) = lane.wait() {
    ///             out.push(result?);
    ///         }
    ///         Ok::<_, dnasim_par::PoolError>(out)
    ///     },
    /// )?;
    /// assert_eq!(squares, (0..10).map(|x| x * x).collect::<Vec<u64>>());
    /// # Ok::<(), dnasim_par::PoolError>(())
    /// ```
    pub fn ordered<T, R, F, B, O>(&self, f: F, body: B) -> O
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        B: FnOnce(&mut Lane<'_, T, R>) -> O,
    {
        let state = LaneState {
            inner: Mutex::new(LaneInner {
                queue: VecDeque::new(),
                slots: VecDeque::new(),
                first: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        };
        let mut lane = Lane {
            state: &state,
            run: &f,
            inline: self.threads == 1,
            submitted: 0,
            taken: 0,
        };
        if lane.inline {
            return body(&mut lane);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| lane_worker(&state, &f)))
                .collect();
            // Closes the lane when `body` returns or unwinds, so no worker
            // waits for an item that will never come.
            let closer = CloseOnDrop(&state);
            let out = body(&mut lane);
            drop(closer);
            // Join explicitly, as `map_stealing` does, so each worker has
            // exited (and returned its allocator arena) before the call
            // returns. A worker runs every item under `catch_unwind`, so a
            // failed join means the lane itself is broken: re-raise it.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            out
        })
    }
}

impl Default for ThreadPool {
    /// [`ThreadPool::from_env`].
    fn default() -> ThreadPool {
        ThreadPool::from_env()
    }
}

/// How one stage call runs: the pool it fans out on, the most clusters
/// it holds per window, and the budget that meters it.
///
/// Every fan-out stage has one entry point taking a `&RunCtx` (`*_in`).
/// The batch size is validated once, here, so a stage never sees `0`.
/// Output never depends on any of the three: only the window gauges and
/// the point where a budget runs dry do.
///
/// ```
/// use dnasim_core::Budget;
/// use dnasim_par::{RunCtx, ThreadPool};
///
/// let ctx = RunCtx::new(&ThreadPool::new(2), 64)?.with_budget(Budget::limited(100));
/// assert_eq!((ctx.pool().threads(), ctx.batch_size()), (2, 64));
/// assert!(RunCtx::new(&ThreadPool::serial(), 0).is_err());
/// # Ok::<(), dnasim_core::DnasimError>(())
/// ```
#[derive(Debug)]
pub struct RunCtx {
    pool: ThreadPool,
    batch_size: usize,
    budget: Budget,
}

impl RunCtx {
    /// A context fanning out on `pool` in windows of at most
    /// `batch_size` clusters, with an unlimited budget.
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0`.
    pub fn new(pool: &ThreadPool, batch_size: usize) -> Result<RunCtx, DnasimError> {
        Ok(RunCtx {
            pool: *pool,
            batch_size: checked_batch_size(batch_size)?,
            budget: Budget::unlimited(),
        })
    }

    /// One thread, one window, no budget: the baseline every other
    /// context must match byte for byte.
    pub fn serial() -> RunCtx {
        RunCtx {
            pool: ThreadPool::serial(),
            batch_size: usize::MAX,
            budget: Budget::unlimited(),
        }
    }

    /// Meters the run by `budget`.
    pub fn with_budget(self, budget: Budget) -> RunCtx {
        RunCtx { budget, ..self }
    }

    /// The pool stages fan out on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The most clusters one window holds (at least 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The budget stages charge.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

/// The caller's end of [`ThreadPool::ordered`]: submit items, take
/// results back in submission order.
///
/// An item is *in flight* from [`submit`](Lane::submit) until its result
/// is taken by [`poll`](Lane::poll) or [`wait`](Lane::wait). A taken
/// `Err` is a [`PoolError`] whose `completed` counts the results before
/// it, all of which were taken first.
pub struct Lane<'a, T, R> {
    state: &'a LaneState<T, R>,
    run: &'a (dyn Fn(T) -> R + Sync),
    inline: bool,
    submitted: usize,
    taken: usize,
}

impl<T, R> fmt::Debug for Lane<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("inline", &self.inline)
            .field("submitted", &self.submitted)
            .field("taken", &self.taken)
            .finish()
    }
}

impl<T, R> Lane<'_, T, R> {
    /// Hands `item` to the workers; on a one-thread pool, runs it now.
    pub fn submit(&mut self, item: T) {
        if self.inline {
            let result = catch_unwind(AssertUnwindSafe(|| (self.run)(item))).map_err(panic_message);
            let mut inner = lock_unpoisoned(&self.state.inner);
            inner.slots.push_back(Some(result));
        } else {
            let mut inner = lock_unpoisoned(&self.state.inner);
            inner.slots.push_back(None);
            inner.queue.push_back((self.submitted, item));
            drop(inner);
            self.state.work.notify_one();
        }
        self.submitted += 1;
    }

    /// Items submitted whose results have not been taken yet, finished or
    /// not.
    pub fn in_flight(&self) -> usize {
        self.submitted - self.taken
    }

    /// The oldest in-flight item's result if it has finished; `None`
    /// without blocking otherwise.
    pub fn poll(&mut self) -> Option<Result<R, PoolError>> {
        let result = lock_unpoisoned(&self.state.inner).take_finished()?;
        Some(self.deliver(result))
    }

    /// Waits for the oldest in-flight item and returns its result; `None`
    /// when nothing is in flight.
    pub fn wait(&mut self) -> Option<Result<R, PoolError>> {
        if self.in_flight() == 0 {
            return None;
        }
        let mut inner = lock_unpoisoned(&self.state.inner);
        loop {
            if let Some(result) = inner.take_finished() {
                drop(inner);
                return Some(self.deliver(result));
            }
            inner = wait_unpoisoned(&self.state.done, inner);
        }
    }

    fn deliver(&mut self, result: Result<R, String>) -> Result<R, PoolError> {
        let completed = self.taken;
        self.taken += 1;
        result.map_err(|panic_message| PoolError {
            panic_message,
            completed,
            total: self.submitted,
        })
    }
}

/// What a lane's caller and workers share.
struct LaneState<T, R> {
    inner: Mutex<LaneInner<T, R>>,
    /// Signalled when an item is queued or the lane closes.
    work: Condvar,
    /// Signalled when an item finishes.
    done: Condvar,
}

struct LaneInner<T, R> {
    /// Submitted items no worker has started, with their sequence numbers.
    queue: VecDeque<(usize, T)>,
    /// One slot per in-flight item, oldest first; `Some` once it finished.
    slots: VecDeque<Option<Result<R, String>>>,
    /// The sequence number of `slots[0]`.
    first: usize,
    closed: bool,
}

impl<T, R> LaneInner<T, R> {
    /// Removes the oldest slot and returns its result, if it finished.
    fn take_finished(&mut self) -> Option<Result<R, String>> {
        let result = self.slots.front_mut()?.take()?;
        self.slots.pop_front();
        self.first += 1;
        Some(result)
    }
}

/// Closes a lane on drop: queued items are dropped and idle workers exit.
struct CloseOnDrop<'a, T, R>(&'a LaneState<T, R>);

impl<T, R> Drop for CloseOnDrop<'_, T, R> {
    fn drop(&mut self) {
        let mut inner = lock_unpoisoned(&self.0.inner);
        inner.closed = true;
        inner.queue.clear();
        drop(inner);
        self.0.work.notify_all();
    }
}

/// One lane worker: take the oldest queued item, run it, fill its slot,
/// until the lane closes.
fn lane_worker<T, R, F>(state: &LaneState<T, R>, f: &F)
where
    F: Fn(T) -> R,
{
    loop {
        let (seq, item) = {
            let mut inner = lock_unpoisoned(&state.inner);
            loop {
                if let Some(next) = inner.queue.pop_front() {
                    break next;
                }
                if inner.closed {
                    return;
                }
                inner = wait_unpoisoned(&state.work, inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
        let mut inner = lock_unpoisoned(&state.inner);
        // Only finished slots leave the front, so this unfinished item's
        // slot is still there, `seq - first` from the front.
        let offset = seq.wrapping_sub(inner.first);
        if let Some(slot) = inner.slots.get_mut(offset) {
            *slot = Some(result);
        }
        drop(inner);
        state.done.notify_one();
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
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let failure = &failure;
            let abort = &abort;
            handles.push(scope.spawn(move || {
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
            }));
        }
        // Join every worker explicitly. The scope alone returns once the
        // closures finish, possibly before the OS threads have exited and
        // handed their allocator arenas back; the next call's workers would
        // then open fresh arenas, and peak RSS would grow with the call
        // count.
        for handle in handles {
            if let Err(payload) = handle.join() {
                let mut first = lock_unpoisoned(&failure);
                if first.is_none() {
                    *first = Some(panic_message(payload));
                }
            }
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
    fn run_ctx_rejects_a_zero_batch_at_construction() {
        let err = RunCtx::new(&ThreadPool::new(2), 0).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            DnasimError::config("batch_size", "streaming batch size must be at least 1")
                .to_string()
        );
        let ctx = RunCtx::new(&ThreadPool::new(3), 7).expect("valid");
        assert_eq!((ctx.pool().threads(), ctx.batch_size()), (3, 7));
    }

    #[test]
    fn serial_run_ctx_is_one_thread_one_window_and_unlimited() {
        let ctx = RunCtx::serial();
        assert_eq!(ctx.pool().threads(), 1);
        assert_eq!(ctx.batch_size(), usize::MAX);
        assert_eq!(ctx.budget().limit(), u64::MAX);
        let metered = ctx.with_budget(Budget::limited(5));
        assert_eq!(metered.budget().limit(), 5);
        assert_eq!(metered.pool().threads(), 1);
    }

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

    /// A one-shot latch: `wait` blocks until `open` was called.
    #[derive(Default)]
    struct Latch {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Latch {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }

        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
    }

    #[test]
    fn lane_returns_results_in_submission_order_when_completion_is_reversed() {
        // Four items on four workers; item i finishes only after item i + 1
        // has, so they complete in exactly reverse order.
        const ITEMS: usize = 4;
        let finished: Vec<Latch> = (0..ITEMS).map(|_| Latch::default()).collect();
        let completion = Mutex::new(Vec::new());
        let taken = ThreadPool::new(ITEMS).ordered(
            |i: usize| {
                if i + 1 < ITEMS {
                    finished[i + 1].wait();
                }
                completion.lock().unwrap().push(i);
                finished[i].open();
                i * 10
            },
            |lane| {
                for i in 0..ITEMS {
                    lane.submit(i);
                }
                let mut taken = Vec::new();
                while let Some(result) = lane.wait() {
                    taken.push(result.expect("no panics"));
                }
                taken
            },
        );
        assert_eq!(taken, vec![0, 10, 20, 30]);
        assert_eq!(*completion.lock().unwrap(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn lane_keeps_order_under_reverse_cost_and_bounded_in_flight() {
        // Early items cost the most; the caller keeps at most CAP in flight.
        const CAP: usize = 3;
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cost = |i: u64| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let mut h = i;
            for _ in 0..(64 - i) * 2_000 {
                h = std::hint::black_box(h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7));
            }
            running.fetch_sub(1, Ordering::SeqCst);
            (i, h)
        };
        let expected: Vec<(u64, u64)> = (0..64).map(cost).collect();
        for threads in [1, 2, 4] {
            peak.store(0, Ordering::SeqCst);
            let got = ThreadPool::new(threads).ordered(cost, |lane| {
                let mut got = Vec::new();
                for i in 0..64 {
                    while lane.in_flight() >= CAP {
                        got.push(lane.wait().expect("in flight").expect("no panics"));
                    }
                    lane.submit(i);
                    assert!(lane.in_flight() <= CAP);
                    while let Some(result) = lane.poll() {
                        got.push(result.expect("no panics"));
                    }
                }
                while let Some(result) = lane.wait() {
                    got.push(result.expect("no panics"));
                }
                got
            });
            assert_eq!(got, expected, "threads = {threads}");
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= CAP.min(threads), "threads = {threads}: {peak}");
        }
    }

    #[test]
    fn lane_panic_is_that_items_error_after_every_earlier_result() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 2, 4] {
            let taken = ThreadPool::new(threads).ordered(
                |x: usize| {
                    assert!(x != 7, "injected failure at {x}");
                    x
                },
                |lane| {
                    for x in 0..20 {
                        lane.submit(x);
                    }
                    let mut taken = Vec::new();
                    while let Some(result) = lane.wait() {
                        taken.push(result);
                    }
                    taken
                },
            );
            assert_eq!(taken.len(), 20, "threads = {threads}");
            for (x, result) in taken.iter().enumerate() {
                match result {
                    Ok(value) => assert_eq!(*value, x),
                    Err(err) => {
                        assert_eq!(x, 7, "threads = {threads}");
                        assert!(err.panic_message.contains("injected failure at 7"), "{err}");
                        assert_eq!((err.completed, err.total), (7, 20));
                    }
                }
            }
            assert!(taken[7].is_err());
            // Returning with items still in flight drops them without a hang.
            let first = ThreadPool::new(threads).ordered(
                |x: usize| {
                    assert!(x != 0, "injected failure at {x}");
                    x
                },
                |lane| {
                    for x in 0..8 {
                        lane.submit(x);
                    }
                    lane.wait()
                },
            );
            assert!(matches!(first, Some(Err(PoolError { completed: 0, .. }))));
        }
        std::panic::set_hook(previous);
    }

    #[test]
    fn one_thread_lane_runs_inline_at_submit() {
        let caller = std::thread::current().id();
        let ids = Mutex::new(Vec::new());
        ThreadPool::serial().ordered(
            |x: u32| {
                ids.lock().unwrap().push(std::thread::current().id());
                x + 1
            },
            |lane| {
                for x in 0..5 {
                    lane.submit(x);
                    // Already finished: submit ran it.
                    assert_eq!(lane.poll().expect("ran inline").expect("no panics"), x + 1);
                    assert_eq!(lane.in_flight(), 0);
                }
                assert!(lane.poll().is_none());
                assert!(lane.wait().is_none());
            },
        );
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 5);
        assert!(ids.iter().all(|id| *id == caller));
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
