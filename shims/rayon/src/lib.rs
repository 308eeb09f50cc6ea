//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon) used by
//! this workspace.
//!
//! The build environment has no network access to crates.io, so the real
//! rayon cannot be vendored. Unlike the first iteration of this shim (which
//! ran iterator chains sequentially and spawned a fresh OS thread per
//! `join`), this version executes on a **persistent worker pool**:
//!
//! * Every pool is a [`registry`]: one Chase–Lev stealing deque per
//!   long-lived worker (owner pushes/pops LIFO, idle workers steal FIFO
//!   from victims) plus a small mutex injector for jobs submitted from
//!   outside the pool. [`join`] pushes its second closure onto the calling
//!   worker's own deque, runs the first inline, then either *reclaims* the
//!   job with one local pop (the cheap uncontended path) or — when a thief
//!   took it — *helps*: executing local, injected, and stolen jobs while it
//!   waits, which keeps nested fork-join deadlock-free with a bounded
//!   thread count and no per-call spawning or locking.
//! * The parallel-iterator surface ([`prelude`]) is built on splittable
//!   producers: terminal ops (`for_each`, `collect`, `reduce`, `sum`,
//!   `count`, `max_by`) recursively split their input and dispatch
//!   halves through [`join`], honoring `with_min_len` granularity hints.
//!   The split tree depends only on the input length and the hint — never on
//!   the worker count — so results are **bit-identical across thread
//!   counts** even for non-associative floating-point reductions.
//! * [`ThreadPool`] owns dedicated workers. [`install`](ThreadPool::install)
//!   runs the closure *on a pool worker* and blocks the calling thread
//!   without letting it execute pool jobs, so work stays scoped to the
//!   pool: a 1-thread pool really is a sequential baseline, and
//!   [`current_thread_index`] is always `< ` the pool width inside it.
//! * [`scope`] spawns run as heap jobs on the current registry and the
//!   scope helps until all of them (including nested spawns) finish.
//!
//! Env knobs: `RAYON_NUM_THREADS` caps the width of the implicit global
//! pool (default: available hardware parallelism). Explicit
//! [`ThreadPoolBuilder::num_threads`] pools are unaffected.
//!
//! Swapping the real rayon back in is a one-line change in the workspace
//! manifest; no source code needs to change.

use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

mod deque;
pub mod iter;
#[cfg(feature = "racecheck")]
pub mod racecheck;
mod registry;

use registry::{
    cooperative_wait, current_ctx, current_registry, default_width, local_index_in, HeapJob,
    Registry, StackJob,
};

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par,
        ParallelSlice, ParallelSliceMut,
    };
}

/// Number of worker threads of the pool governing the calling thread: the
/// enclosing [`ThreadPool`]'s width on pool workers, the global pool's
/// width elsewhere.
pub fn current_num_threads() -> usize {
    match current_ctx() {
        Some(ctx) => ctx.registry.width(),
        // Same value the global registry is built with — answer the pure
        // width query without spawning the global workers as a side effect.
        None => default_width(),
    }
}

/// The calling thread's index within its pool: `Some(i)` with
/// `i < current_num_threads()` on pool workers, `None` on threads outside
/// any pool (matching real rayon). Per-thread sharded structures can rely
/// on the bound — indices never grow past the pool width, no matter how
/// many pools or ad-hoc threads a long-lived process creates.
pub fn current_thread_index() -> Option<usize> {
    current_ctx().map(|ctx| ctx.index)
}

/// Run the two closures, potentially in parallel, and return both results.
///
/// On a pool worker, `oper_b` is pushed onto the worker's own stealing
/// deque while `oper_a` runs on the calling thread; the call then settles
/// `oper_b` with one local pop (nobody stole it — the common case) or by
/// helping the pool until the thief finishes it. On a foreign thread the
/// job goes through the registry's injector instead. On a width-1 registry
/// both closures run inline, sequentially.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = current_registry();
    if registry.width() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }

    let job_b = StackJob::new(oper_b);
    let job_ref = job_b.as_job_ref();
    let tag = job_ref.data_ptr();

    if let Some(index) = local_index_in(&registry) {
        // Worker path: publish job_b on our own deque. Thieves take the
        // *oldest* entry first, so anything pushed above job_b during
        // `oper_a` (nested joins, scope spawns executed while helping) has
        // settled or been stolen by the time we reclaim — the pop below
        // yields job_b itself, a stray leftover spawned onto our deque by
        // a stolen job, or `None` once job_b is gone to a thief.
        registry.submit(job_ref);
        let ra = match panic::catch_unwind(AssertUnwindSafe(oper_a)) {
            Ok(v) => v,
            Err(payload) => {
                // `oper_a` panicked, but `job_b` may still point into this
                // stack frame: settle it before unwinding. Job bodies catch
                // their own panics, so this cannot double-unwind.
                settle_local(&registry, index, &job_b);
                panic::resume_unwind(payload);
            }
        };
        settle_local(&registry, index, &job_b);
        return (ra, job_b.into_result());
    }

    // Foreign thread (global-registry caller): go through the injector.
    registry.inject(job_ref);
    let ra = match panic::catch_unwind(AssertUnwindSafe(oper_a)) {
        Ok(v) => v,
        Err(payload) => {
            if registry.try_reclaim(tag) {
                job_b.run_inline();
            } else {
                cooperative_wait(&registry, || job_b.is_done());
            }
            panic::resume_unwind(payload);
        }
    };

    if registry.try_reclaim(tag) {
        job_b.run_inline();
    } else {
        cooperative_wait(&registry, || job_b.is_done());
    }
    (ra, job_b.into_result())
}

/// Settle a worker's own `join` job: pop-and-run from the local deque (the
/// steal-back fast path — usually the very job we pushed) until the job is
/// done, falling back to full help-waiting once the deque runs dry (the
/// job was stolen and is in flight on another worker).
fn settle_local<F, R>(registry: &Registry, index: usize, job_b: &StackJob<F, R>)
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    while !job_b.is_done() {
        match registry.pop_local(index) {
            // SAFETY: locally queued jobs are alive until executed
            // (join/scope contract) and never unwind.
            Some(job) => unsafe { job.execute() },
            None => {
                cooperative_wait(registry, || job_b.is_done());
                return;
            }
        }
    }
}

/// Scope for structured task spawning: every spawned closure runs as a pool
/// job and [`scope`] does not return until all of them (including nested
/// spawns) have finished, which is what makes borrowing non-`'static` data
/// from the enclosing frame sound.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    owner: Thread,
    /// Models the `pending` countdown: each finishing spawn releases, the
    /// scope owner acquires once the count reaches zero.
    #[cfg(feature = "racecheck")]
    rc_done: racecheck::SyncVar,
    marker: PhantomData<std::cell::Cell<&'scope ()>>,
}

/// Pointer wrapper that lets the scope reference cross into pool jobs; the
/// scope outlives them by construction.
struct ScopePtr<'scope>(*const Scope<'scope>);
// SAFETY: the Scope outlives every job (scope() blocks until pending == 0)
// and all access through this pointer is internally synchronized: `pending`
// is atomic, `panic` is behind a Mutex, `owner`/`registry` are only read
// (Thread and Arc<Registry> are Sync). Note Scope itself is !Sync — the
// invariant marker is a Cell — so anyone adding unsynchronized mutable
// state to Scope must revisit this impl.
unsafe impl Send for ScopePtr<'_> {}

impl<'scope> ScopePtr<'scope> {
    /// Method (not field) access, so closures capture the whole Send
    /// wrapper rather than the raw pointer field.
    fn get(&self) -> *const Scope<'scope> {
        self.0
    }
}

impl<'scope> Scope<'scope> {
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        if self.registry.width() <= 1 {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(self))) {
                self.panic.lock().unwrap().get_or_insert(payload);
            }
            return;
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        let scope_ptr = ScopePtr(self as *const Scope<'scope>);
        let task = move || {
            // SAFETY: `scope` blocks until pending == 0, so the Scope (and
            // everything 'scope borrows) outlives this job.
            let scope = unsafe { &*scope_ptr.get() };
            struct Arrive<'a, 'scope>(&'a Scope<'scope>);
            impl Drop for Arrive<'_, '_> {
                fn drop(&mut self) {
                    #[cfg(feature = "racecheck")]
                    self.0.rc_done.release();
                    if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.0.owner.unpark();
                    }
                }
            }
            let _arrive = Arrive(scope);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(scope))) {
                scope.panic.lock().unwrap().get_or_insert(payload);
            }
        };
        // SAFETY: the scope waits for every spawned job before returning.
        unsafe { HeapJob::push(&self.registry, task) };
    }
}

/// Create a scope, run `op` inside it, and wait for all spawned tasks. The
/// first panic among `op` and the spawns is propagated after all tasks
/// settle.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let s = Scope {
        registry: current_registry(),
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        owner: thread::current(),
        #[cfg(feature = "racecheck")]
        rc_done: racecheck::SyncVar::new(),
        marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| op(&s)));
    cooperative_wait(&s.registry, || s.pending.load(Ordering::Acquire) == 0);
    // Pairs with the release in `Arrive::drop`: the owner observes every
    // spawned job's effects before using anything they produced.
    #[cfg(feature = "racecheck")]
    s.rc_done.acquire();
    match result {
        Err(payload) => panic::resume_unwind(payload),
        Ok(value) => {
            if let Some(payload) = s.panic.lock().unwrap().take() {
                panic::resume_unwind(payload);
            }
            value
        }
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`]; the shim only fails
/// if worker threads cannot be spawned, which panics instead.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _priv: (),
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builds a [`ThreadPool`] with a configurable worker count
/// (`num_threads(0)` or default: the machine's available parallelism).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = if self.num_threads == 0 {
            default_width()
        } else {
            self.num_threads
        };
        let (registry, workers) = Registry::spawn(width, width);
        Ok(ThreadPool { registry, workers })
    }
}

/// A pool of dedicated worker threads. Dropping the pool shuts the workers
/// down (after the queue drains).
#[derive(Debug)]
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("width", &self.width())
            .finish()
    }
}

/// Scheduler counters for one pool worker, snapshotted by
/// [`ThreadPool::metrics`]. All counters are monotone over the pool's
/// lifetime and collected with `Relaxed` increments, so a snapshot taken
/// while the pool is busy can lag in-flight work by a few events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Jobs this worker executed, from any source (own deque, injector,
    /// steals).
    pub jobs: u64,
    /// `steal` calls issued at other workers' deques (lost-CAS retries
    /// count again).
    pub steal_attempts: u64,
    /// Steal attempts that returned a job.
    pub steal_hits: u64,
    /// Times the worker parked on the idle condvar.
    pub parks: u64,
}

/// A snapshot of one pool's scheduler counters; see [`ThreadPool::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Per-worker counters, indexed by worker index.
    pub workers: Vec<WorkerMetrics>,
    /// Jobs submitted through the shared injector (from outside the pool,
    /// e.g. `install` calls).
    pub injected: u64,
}

impl PoolMetrics {
    /// Total jobs executed across all workers.
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Total successful steals across all workers.
    pub fn total_steal_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_hits).sum()
    }

    /// Total steal attempts across all workers.
    pub fn total_steal_attempts(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_attempts).sum()
    }

    /// Total idle parks across all workers.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.registry.width()
    }

    /// Snapshot this pool's scheduler counters (jobs executed, steal
    /// attempts/hits, injector pushes, idle parks). Counters are racy
    /// `Relaxed` reads — take the snapshot after the work of interest has
    /// settled (e.g. after `install` returns) for exact totals.
    pub fn metrics(&self) -> PoolMetrics {
        self.registry.metrics()
    }

    /// Run `op` on one of this pool's workers and block until it returns.
    /// All parallelism `op` forks (joins, scopes, `Par` chains) stays on
    /// this pool's workers, so `num_threads(1)` gives a truly sequential
    /// run (the repro harness relies on this for 1-thread baselines) and
    /// [`current_thread_index`] inside `op` is always `< num_threads`.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(ctx) = current_ctx() {
            if Arc::ptr_eq(&ctx.registry, &self.registry) {
                // Already on this pool; run inline (matches rayon).
                return op();
            }
        }
        let job = StackJob::new(op);
        self.registry.inject(job.as_job_ref());
        // Block without helping: executing pool jobs here would leak work
        // onto a non-pool thread and break the thread-index bound.
        while !job.is_done() {
            thread::park_timeout(Duration::from_millis(1));
        }
        job.into_result()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_nested_recursion() {
        fn sum(xs: &[u64]) -> u64 {
            if xs.len() < 4 {
                return xs.iter().sum();
            }
            let (lo, hi) = xs.split_at(xs.len() / 2);
            let (a, b) = join(|| sum(lo), || sum(hi));
            a + b
        }
        let xs: Vec<u64> = (0..10_000).collect();
        assert_eq!(sum(&xs), 10_000 * 9_999 / 2);
    }

    #[test]
    fn join_uses_pool_workers() {
        // Inside a pool of width >= 2, deeply nested joins must fan out to
        // pool workers (not the install caller, not fresh threads).
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caller = thread::current().id();
        let ids = pool.install(|| {
            fn collect_ids(depth: usize, out: &ConcurrentIds) {
                out.record();
                if depth == 0 {
                    return;
                }
                join(
                    || collect_ids(depth - 1, out),
                    || collect_ids(depth - 1, out),
                );
            }
            let out = ConcurrentIds::default();
            collect_ids(6, &out);
            out.into_set()
        });
        assert!(!ids.contains(&caller), "work must not run on the caller");
        assert!(!ids.is_empty());
    }

    #[derive(Default)]
    struct ConcurrentIds(Mutex<Vec<thread::ThreadId>>);
    impl ConcurrentIds {
        fn record(&self) {
            self.0.lock().unwrap().push(thread::current().id());
        }
        fn into_set(self) -> HashSet<thread::ThreadId> {
            self.0.into_inner().unwrap().into_iter().collect()
        }
    }

    #[test]
    fn pool_installs() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn single_thread_pool_runs_join_sequentially() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let ids = pool.install(|| {
            let worker = thread::current().id();
            let (ta, tb) = join(|| thread::current().id(), || thread::current().id());
            (worker, ta, tb)
        });
        assert_eq!(ids.1, ids.0, "1-thread pool must not fan out");
        assert_eq!(ids.2, ids.0, "1-thread pool must not fan out");
    }

    #[test]
    fn install_runs_on_a_pool_worker() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = thread::current().id();
        let inside = pool.install(|| thread::current().id());
        assert_ne!(inside, caller, "install must run op on a pool worker");
    }

    #[test]
    fn thread_index_bounded_by_pool_width() {
        // Regression test: the old shim handed out a monotonically growing
        // global counter, so a long-lived process eventually saw indices
        // >= the pool width. Repeated pools + heavy fan-out must never
        // yield an out-of-range index from inside `install`.
        for round in 0..3 {
            let width = 2 + round;
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let indices = pool.install(|| {
                let seen = Mutex::new(HashSet::new());
                (0..10_000u32)
                    .into_par_iter()
                    .with_min_len(64)
                    .for_each(|_| {
                        let idx = current_thread_index().expect("pool worker has an index");
                        assert_eq!(current_num_threads(), width);
                        seen.lock().unwrap().insert(idx);
                    });
                seen.into_inner().unwrap()
            });
            assert!(
                indices.iter().all(|&i| i < width),
                "indices {indices:?} exceed pool width {width}"
            );
        }
        // Threads outside any pool have no index at all.
        assert_eq!(thread::spawn(current_thread_index).join().unwrap(), None);
    }

    #[test]
    fn stolen_jobs_keep_thread_index_bounded() {
        // Regression test for the stealing scheduler: a worker executing a
        // job stolen from a foreign deque must still report its *own*
        // index (< width) and the pool's width — per-thread sharded
        // structures and `block_size`-style grain math rely on both being
        // width-stable no matter which deque a job came from.
        use std::sync::atomic::AtomicBool;
        for width in [2usize, 3, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let (a_thread, b_thread, b_index, b_width) = pool.install(|| {
                let flag = AtomicBool::new(false);
                let (a, b) = join(
                    || {
                        // Spin until job_b has run: this thread never pops
                        // its deque meanwhile, so job_b was necessarily
                        // *stolen* by another worker.
                        while !flag.load(Ordering::Acquire) {
                            thread::yield_now();
                        }
                        thread::current().id()
                    },
                    || {
                        let index = current_thread_index().expect("stolen job left the pool");
                        let w = current_num_threads();
                        let id = thread::current().id();
                        flag.store(true, Ordering::Release);
                        (id, index, w)
                    },
                );
                (a, b.0, b.1, b.2)
            });
            assert_ne!(a_thread, b_thread, "job_b must have been stolen");
            assert!(b_index < width, "index {b_index} escaped width {width}");
            assert_eq!(b_width, width);
        }
    }

    /// Deep nested joins at several widths with the detector on: every
    /// publish/steal edge of the deque scheduler must carry a modeled
    /// release/acquire pair, so zero races may be reported.
    #[cfg(feature = "racecheck")]
    #[test]
    fn deep_nested_joins_are_race_free_across_widths() {
        let _guard = racecheck::test_lock();
        for threads in [2usize, 4, 8] {
            racecheck::take_races();
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let total = pool.install(|| {
                fn count(depth: usize) -> u64 {
                    if depth == 0 {
                        return 1;
                    }
                    let (a, b) = join(|| count(depth - 1), || count(depth - 1));
                    a + b
                }
                count(10)
            });
            assert_eq!(total, 1 << 10);
            let races = racecheck::take_races();
            assert!(
                races.is_empty(),
                "nested joins raced at {threads}: {races:?}"
            );
        }
    }

    #[test]
    fn install_propagates_panics() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| panic!("boom in pool"));
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn join_propagates_panics_from_both_sides() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        for side in 0..2 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    join(
                        || {
                            if side == 0 {
                                panic!("left")
                            }
                        },
                        || {
                            if side == 1 {
                                panic!("right")
                            }
                        },
                    )
                })
            }));
            assert!(result.is_err(), "side {side} panic must propagate");
        }
        assert_eq!(pool.install(|| 1), 1);
    }

    #[test]
    fn scope_runs_spawns() {
        let mut hits = 0;
        scope(|s| {
            let hits = &mut hits;
            s.spawn(move |_| *hits += 1);
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn scope_waits_for_all_spawns_in_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let total = pool.install(|| {
            let counter = AtomicU64::new(0);
            scope(|s| {
                for i in 0..100u64 {
                    let counter = &counter;
                    s.spawn(move |_| {
                        counter.fetch_add(i, Ordering::Relaxed);
                    });
                }
            });
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(total, 4950);
    }

    #[test]
    fn nested_scope_spawns_complete() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let total = pool.install(|| {
            let counter = AtomicU64::new(0);
            scope(|s| {
                for _ in 0..8 {
                    let counter = &counter;
                    s.spawn(move |inner| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        inner.spawn(move |_| {
                            counter.fetch_add(10, Ordering::Relaxed);
                        });
                    });
                }
            });
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(total, 8 + 80);
    }

    #[test]
    fn pool_metrics_count_jobs_and_injections() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.metrics().workers.len(), 4);
        // Fresh workers park once they find no work, but not necessarily
        // before `install` hands them some: wait (bounded) for the first
        // park so the idle assertion below does not race the spawn.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.metrics().total_parks() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let sum = pool.install(|| {
            (0..10_000u64)
                .into_par_iter()
                .with_min_len(16)
                .map(|x| x)
                .sum::<u64>()
        });
        assert_eq!(sum, 10_000 * 9_999 / 2);
        let m = pool.metrics();
        assert!(m.injected >= 1, "install goes through the injector");
        assert!(m.total_jobs() > 0, "fan-out must execute pool jobs");
        assert!(m.total_steal_attempts() >= m.total_steal_hits());
        assert!(m.total_parks() > 0, "the pool idled before install");
        // Counters are monotone across snapshots.
        pool.install(|| ());
        let m2 = pool.metrics();
        assert!(m2.injected >= m.injected);
        assert!(m2.total_jobs() >= m.total_jobs());
    }

    #[test]
    fn par_iter_chains() {
        let xs = vec![1u64, 2, 3, 4, 5];
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
        let total = (0..100u64).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 4950);
    }
}
