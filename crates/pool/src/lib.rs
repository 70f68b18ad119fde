//! # `nnbo-pool` — the workspace's one parallelism mechanism
//!
//! A process-wide bounded pool of pinned worker threads, replacing the
//! per-call `std::thread::scope` spawning the numeric kernels and the
//! ensemble trainers used to do.  Everything parallel in the workspace —
//! the linalg row-band kernels, the outputs × members surrogate training
//! fan-outs, and the `nnbo-serve` session multiplexer — submits work here,
//! so the thread count is bounded once for the whole process instead of
//! per call site.
//!
//! ## Execution model
//!
//! Work enters through a shared injector deque and is executed by
//! [`WorkerPool::workers`] long-lived worker threads, in two shapes:
//!
//! * **Scoped batches** ([`WorkerPool::run_batch`]): a set of independent
//!   tasks borrowing the caller's stack frame (disjoint `&mut` bands of an
//!   output buffer, a slice of training jobs).  The call returns only after
//!   every task ran.  Tasks are claimed one at a time from the batch by
//!   whichever participant is free — the submitting thread itself works the
//!   batch alongside the pool, stealing tasks back from its own submission,
//!   so a batch always completes even when every worker is busy with other
//!   (possibly long-running) jobs and nested submissions cannot deadlock.
//!   Once the submitter has claimed the last task it takes the batch's
//!   handle back out of the injector if no worker took it, so a batch
//!   drained while every worker was busy leaves nothing queued behind it.
//!   Each task computes exactly what the sequential loop would, so results
//!   are bit-identical regardless of which thread claims which task.
//! * **Banded maps** ([`WorkerPool::map_bands`]): the one fan-out the
//!   library's loops share (ensemble training and prediction, the GP's
//!   multi-output fit, the PVT corner sweep).  It splits a slice into
//!   contiguous bands, runs one batch task per band, and returns the
//!   results in item order; one band runs inline and submits nothing.
//!   [`WorkerPool::fan_out`] is the band count those loops plan with, the
//!   only place its cap is written.  [`panic_message`] renders a caught
//!   payload, for callers that turn a panic into an error.
//! * **Detached jobs** ([`WorkerPool::spawn`]): fire-and-forget `'static`
//!   closures (the serving layer's session steps).  Each job runs under
//!   [`std::panic::catch_unwind`], so a poisoned job never takes down its
//!   worker mid-flight.
//!
//! ## The context word
//!
//! Each thread holds one opaque `u64` ([`context`], set for a scope with
//! [`with_context`]).  Every batch task and detached job runs with the word
//! of the thread that submitted it, so a per-thread setting follows work
//! onto the workers, through nested batches and jobs.  The pool gives no
//! bit a meaning; `nnbo-linalg`'s portable-kernel scope is bit 0.
//!
//! ## Supervision
//!
//! Workers are supervised: a worker whose job panicked (or whose job asked
//! for a clean slate via [`WorkerPool::recycle_current_worker`]) is
//! *recycled* — the thread exits and the supervisor spawns a fresh
//! replacement with a clean stack, counted in
//! [`PoolStats::worker_restarts`] — up to the configured
//! [`PoolConfig::restart_budget`].  Past the budget the worker is kept
//! alive instead of recycled (the pool never loses capacity; the budget
//! only bounds the churn) and the overflow is counted in
//! [`PoolStats::restart_budget_exhausted`].  Batch-task panics are *not* a
//! worker-health signal: the payload is captured and re-thrown on the
//! submitting thread, exactly as the old `thread::scope` join did.
//!
//! Poisoned internal locks are recovered, never propagated: a thread dying
//! while holding the injector, a batch queue, or the handle table cannot
//! cascade into panicking every later `run_batch`/`spawn` caller.  Each
//! recovery is counted in [`PoolStats::lock_poisonings`].
//!
//! ## The global pool
//!
//! [`WorkerPool::global`] is the process-wide instance every library call
//! site uses (sized `min(available_parallelism, 8)`, overridable with the
//! `NNBO_POOL_WORKERS` environment variable).  Private pools
//! ([`WorkerPool::new`]) exist for tests and for services that want their
//! own capacity accounting; dropping a private pool drains its injector
//! and joins its workers.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Upper bound on global-pool workers and on the band count of a fan-out
/// ([`WorkerPool::fan_out`]): beyond this the numeric kernels are
/// memory-bound.
const MAX_FAN_OUT: usize = 8;

/// A task inside a scoped batch.  The `'static` is a lie told once, in
/// [`WorkerPool::run_batch`], and made true by the batch latch: the
/// submitting call does not return (or unwind) until every task finished,
/// so the borrows the closures capture outlive every execution.
type BatchTask = Box<dyn FnOnce() + Send + 'static>;

/// A detached job (a session step, a checkpoint flush).
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The calling thread's context word (see [`context`]).
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's context word (see the crate docs); 0 on a new
/// thread.
#[inline]
pub fn context() -> u64 {
    CONTEXT.with(Cell::get)
}

/// Runs `f` with the calling thread's context word set to `word`, and
/// restores the previous word when `f` returns or unwinds.
pub fn with_context<R>(word: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CONTEXT.with(|c| c.replace(word)));
    f()
}

/// One scoped batch: a bag of claimable tasks plus the completion latch the
/// submitting thread blocks on.
struct BatchCore {
    /// Unclaimed tasks; participants (workers and the submitting thread)
    /// pop from the front.
    tasks: Mutex<VecDeque<BatchTask>>,
    /// Tasks not yet *completed* (claimed-and-running tasks count).
    remaining: AtomicUsize,
    /// First panic payload raised by a task, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Latch the submitting thread waits on once it runs out of tasks.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// The owning pool's poisoned-lock counter (shared so the free
    /// functions working a batch can count recoveries too).
    poisonings: Arc<AtomicUsize>,
    /// The owning pool's executed-task counter.  `run_one` bumps it before
    /// the `AcqRel` decrement of `remaining`, which the submitter acquires
    /// before `run_batch` returns, so the returned call has counted all of
    /// its tasks.
    executed: Arc<AtomicUsize>,
    /// The submitting thread's [`context`] word, set around every task.
    context: u64,
}

impl BatchCore {
    /// Claims and runs one task, if any remain.  Returns `false` when the
    /// batch has no unclaimed tasks left.
    fn run_one(&self) -> bool {
        let task = match recover_lock(&self.tasks, &self.poisonings).pop_front() {
            Some(t) => t,
            None => return false,
        };
        if let Err(payload) = with_context(self.context, || catch_unwind(AssertUnwindSafe(task))) {
            let mut slot = recover_lock(&self.panic, &self.poisonings);
            if slot.is_none() {
                *slot = Some(payload);
            } else if let Err(nested) = catch_unwind(AssertUnwindSafe(move || drop(payload))) {
                // Only the first payload is re-thrown.  Dropping a later one
                // runs its destructor, which must not unwind out of a batch
                // participant (see `run_batch`); one that does is leaked.
                std::mem::forget(nested);
            }
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = recover_lock(&self.done, &self.poisonings);
            *done = true;
            self.done_cv.notify_all();
        }
        true
    }

    /// `true` once every task completed.
    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Work item in the shared injector.
enum Work {
    /// A detached job.
    Job(Job),
    /// A handle to a scoped batch; the claiming worker runs one task and
    /// then re-injects the handle if tasks remain, so further workers join
    /// one at a time, each after the previous joiner's first task ends.
    Batch(Arc<BatchCore>),
}

/// Counters describing what the pool has done so far — a consistent-enough
/// snapshot for tests and benchmark reports (each counter is individually
/// atomic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Detached jobs a worker has taken, panicked ones included.  A job is
    /// counted when its worker takes it, before its closure runs, so a job
    /// that signals its caller from inside the closure is already counted
    /// when the caller wakes.
    pub jobs_executed: usize,
    /// Scoped-batch tasks executed (by workers or submitting threads).
    pub batch_tasks_executed: usize,
    /// Detached jobs that panicked (caught; the worker was then recycled).
    pub job_panics: usize,
    /// Workers the supervisor recycled with a fresh thread.
    pub worker_restarts: usize,
    /// Recycle requests denied because the restart budget was spent (the
    /// worker kept running on its old thread instead).
    pub restart_budget_exhausted: usize,
    /// Poisoned internal locks recovered with `into_inner` (a panic died
    /// while holding a pool lock; the pool continued instead of cascading
    /// the panic into every later caller).
    pub lock_poisonings: usize,
}

struct Counters {
    jobs_executed: AtomicUsize,
    /// Behind an `Arc` so each `BatchCore` can hold a handle to it.
    batch_tasks_executed: Arc<AtomicUsize>,
    job_panics: AtomicUsize,
    worker_restarts: AtomicUsize,
    restart_budget_exhausted: AtomicUsize,
    /// Behind an `Arc` so each `BatchCore` can hold a handle to it.
    lock_poisonings: Arc<AtomicUsize>,
}

impl Counters {
    fn new() -> Self {
        Counters {
            jobs_executed: AtomicUsize::new(0),
            batch_tasks_executed: Arc::new(AtomicUsize::new(0)),
            job_panics: AtomicUsize::new(0),
            worker_restarts: AtomicUsize::new(0),
            restart_budget_exhausted: AtomicUsize::new(0),
            lock_poisonings: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn snapshot(&self) -> PoolStats {
        PoolStats {
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            batch_tasks_executed: self.batch_tasks_executed.load(Ordering::Relaxed),
            job_panics: self.job_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            restart_budget_exhausted: self.restart_budget_exhausted.load(Ordering::Relaxed),
            lock_poisonings: self.lock_poisonings.load(Ordering::Relaxed),
        }
    }
}

/// Locks `lock`, recovering the inner value (and counting the recovery)
/// when a previous holder panicked.  Every invariant the pool's locks guard
/// is re-established by the panicking path itself (task panics are caught
/// *outside* the lock scopes), so the poison flag carries no information —
/// propagating it would only convert one panic into a cascade across every
/// later caller.
fn recover_lock<'a, T>(lock: &'a Mutex<T>, poisonings: &AtomicUsize) -> MutexGuard<'a, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        poisonings.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// [`Condvar::wait`] with the same poison recovery as [`recover_lock`].
fn recover_wait<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    poisonings: &AtomicUsize,
) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|poisoned| {
        poisonings.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Pool construction knobs (see [`WorkerPool::with_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// How many times the supervisor may replace a crashed/recycled worker
    /// with a fresh thread over the pool's lifetime.
    pub restart_budget: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { restart_budget: 64 }
    }
}

struct PoolInner {
    injector: Mutex<VecDeque<Work>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    config: PoolConfig,
    restarts: AtomicUsize,
    counters: Counters,
    /// Join handles of the live worker threads, indexed by worker id;
    /// replaced on recycle, joined on drop.
    handles: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
}

thread_local! {
    /// Set while this thread is a pool worker executing a detached job, so
    /// [`WorkerPool::recycle_current_worker`] knows whether (and where) a
    /// recycle request applies.
    static RECYCLE_REQUESTED: Cell<bool> = const { Cell::new(false) };
    static ON_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// How a worker loop ended.
enum WorkerExit {
    /// Pool shutting down — exit without replacement.
    Shutdown,
    /// The worker wants a fresh thread (panicked job or explicit request).
    Recycle,
}

/// The bounded, supervised worker pool.  See the crate docs for the
/// execution and supervision model.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Creates a private pool with `workers` pinned worker threads and the
    /// default supervision config.  `workers` may be 0: every batch then
    /// runs entirely on the submitting thread (detached jobs would never
    /// run, so [`WorkerPool::spawn`] requires at least one worker).
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_config(workers, PoolConfig::default())
    }

    /// Creates a private pool with an explicit supervision config.
    pub fn with_config(workers: usize, config: PoolConfig) -> Self {
        let inner = Arc::new(PoolInner {
            injector: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            config,
            restarts: AtomicUsize::new(0),
            counters: Counters::new(),
            handles: Mutex::new((0..workers).map(|_| None).collect()),
        });
        for id in 0..workers {
            spawn_worker(&inner, id);
        }
        WorkerPool { inner }
    }

    /// The process-wide pool: `min(available_parallelism, 8)` workers, or
    /// the `NNBO_POOL_WORKERS` environment variable when set.  Initialised
    /// on first use and never torn down.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let workers = std::env::var("NNBO_POOL_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| cores.min(MAX_FAN_OUT));
            WorkerPool::new(workers)
        })
    }

    /// Number of pinned worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Maximum useful fan-out of a scoped batch on this pool: the workers
    /// plus the submitting thread, which participates too.
    pub fn participants(&self) -> usize {
        self.inner.workers + 1
    }

    /// The band count the workspace's fan-outs plan with:
    /// [`WorkerPool::participants`], capped at 8 because beyond that the
    /// numeric kernels are memory-bound.
    pub fn fan_out(&self) -> usize {
        self.participants().min(MAX_FAN_OUT)
    }

    /// Snapshot of the pool's activity counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.counters.snapshot()
    }

    /// Maps `f` over `items` and returns the results in item order.
    ///
    /// The items are split into at most `bands` contiguous bands of
    /// `items.len().div_ceil(bands)` items, and each band runs as one task
    /// of a [`WorkerPool::run_batch`].  With `bands <= 1` or at most one
    /// item, `f` runs inline on the calling thread and no batch is
    /// submitted.  When `f`'s result depends only on its item, the output
    /// does not depend on which thread ran which band.  A panic in `f` reaches
    /// the caller as a `run_batch` task panic does: once every band
    /// finished, the first payload is re-thrown.
    pub fn map_bands<T, R, F>(&self, items: &[T], bands: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if bands <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let band = items.len().div_ceil(bands);
        let mut slots: Vec<Vec<R>> = Vec::new();
        slots.resize_with(items.len().div_ceil(band), Vec::new);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks(band)
            .zip(slots.iter_mut())
            .map(|(band_items, slot)| {
                Box::new(move || *slot = band_items.iter().map(f).collect())
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_batch(tasks);
        slots.into_iter().flatten().collect()
    }

    /// Runs every task to completion, sharing them between the pool's
    /// workers and the calling thread.  Tasks may borrow from the caller's
    /// stack (`'env`); the call only returns once all of them finished, and
    /// the first task panic is re-thrown here.  Each task runs with the
    /// calling thread's [`context`] word.
    pub fn run_batch<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len();
        // SAFETY: the transmute only erases the `'env` bound of each boxed
        // closure (same type, same layout).  It is sound if no task is run or
        // dropped after this frame is left, since after that the borrows in
        // `'env` may dangle.  That holds because:
        //
        // 1. A task is reachable only through `batch.tasks` until a
        //    participant pops it in `BatchCore::run_one`, which runs it to
        //    completion under `catch_unwind` and so consumes and drops it
        //    (also when it panics) before decrementing `remaining`.
        // 2. `remaining` starts at `n`, so it reaches zero only after all `n`
        //    tasks were popped, run and dropped.  The `AcqRel` decrement and
        //    the `done` mutex make every write a task made through its
        //    borrows visible here before the wait below returns.
        // 3. This frame is left only after `wait_batch` saw `remaining` at
        //    zero: the code between here and the wait cannot unwind.  Task
        //    panics are caught in `run_one`; a second payload's destructor
        //    runs under `catch_unwind` there too; poisoned locks are
        //    recovered by `recover_lock`/`recover_wait`; the rest is atomics,
        //    a condvar notify and stores to the `CONTEXT` thread-local, which
        //    is const-initialised and has no destructor, so access cannot
        //    fail.  Taking the batch's own handle back out of the injector
        //    drops an `Arc` that this frame still holds a clone of, so no
        //    destructor runs there.  An allocation failure aborts rather than
        //    unwinds.  The only unwind, `resume_unwind`, comes after the
        //    wait.
        // 4. A worker may still hold the `Arc<BatchCore>` when this returns
        //    (it dequeued the batch late), but `tasks` is empty by then and
        //    the rest of `BatchCore` holds no `'env` data: a panic payload is
        //    a `Box<dyn Any + Send>`, which is `'static`.
        let tasks: VecDeque<BatchTask> = tasks
            .into_iter()
            .map(|t| unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, BatchTask>(t)
            })
            .collect();
        let batch = Arc::new(BatchCore {
            tasks: Mutex::new(tasks),
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            poisonings: Arc::clone(&self.inner.counters.lock_poisonings),
            executed: Arc::clone(&self.inner.counters.batch_tasks_executed),
            context: context(),
        });
        let injected = self.inner.workers > 0 && n > 1;
        if injected {
            let mut injector = self.lock_injector();
            injector.push_back(Work::Batch(Arc::clone(&batch)));
            drop(injector);
            self.inner.work_cv.notify_all();
        }
        // The submitting thread works the batch too — claiming tasks back
        // from the pool until none remain — then waits out the stragglers.
        while batch.run_one() {}
        if injected {
            // Every task is claimed.  If no worker took the handle (all of
            // them busy elsewhere), take it back, so the injector does not
            // keep a dead batch and its buffers alive until a worker pops it.
            let mut injector = self.lock_injector();
            if let Some(i) = injector
                .iter()
                .position(|w| matches!(w, Work::Batch(b) if Arc::ptr_eq(b, &batch)))
            {
                injector.remove(i);
            }
        }
        wait_batch(&batch);
        let payload = recover_lock(&batch.panic, &batch.poisonings).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Locks the injector with poison recovery.
    fn lock_injector(&self) -> MutexGuard<'_, VecDeque<Work>> {
        recover_lock(&self.inner.injector, &self.inner.counters.lock_poisonings)
    }

    /// Submits a detached job.  The job runs on a worker under
    /// `catch_unwind`, with the calling thread's [`context`] word; a
    /// panicking job is counted and its worker recycled (see the crate
    /// docs).  Requires at least one worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        assert!(
            self.inner.workers > 0,
            "cannot spawn a detached job on a pool with zero workers"
        );
        let word = context();
        let mut injector = self.lock_injector();
        injector.push_back(Work::Job(Box::new(move || with_context(word, job))));
        drop(injector);
        self.inner.work_cv.notify_one();
    }

    /// Asks the pool to recycle the worker executing the *current* detached
    /// job once the job returns: the thread exits and the supervisor spawns
    /// a replacement (budget permitting).  Returns `false` when the calling
    /// thread is not running a pool job (the request then has no effect).
    ///
    /// `nnbo-serve` calls this after catching a session panic, so the next
    /// session starts on a worker with a pristine stack.
    pub fn recycle_current_worker(&self) -> bool {
        if ON_POOL_JOB.with(|c| c.get()) {
            RECYCLE_REQUESTED.with(|c| c.set(true));
            true
        } else {
            false
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        let handles: Vec<_> =
            recover_lock(&self.inner.handles, &self.inner.counters.lock_poisonings)
                .iter_mut()
                .filter_map(Option::take)
                .collect();
        // The pool can be dropped *from one of its own workers* (the last
        // owner of an embedding structure may be a detached job); joining
        // the current thread would deadlock, so that handle is released
        // unjoined — the worker exits on its own once it observes shutdown.
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

/// The message of a caught panic payload: `panic!` with a literal yields a
/// `&str`, with a format string a `String`; any other payload is named as
/// such.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Blocks until every task of `batch` completed.
fn wait_batch(batch: &BatchCore) {
    if batch.is_done() {
        return;
    }
    let mut done = recover_lock(&batch.done, &batch.poisonings);
    while !*done {
        done = recover_wait(&batch.done_cv, done, &batch.poisonings);
    }
}

/// Spawns (or respawns) worker `id` and registers its join handle.
fn spawn_worker(inner: &Arc<PoolInner>, id: usize) {
    let pool = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("nnbo-pool-{id}"))
        .spawn(move || worker_main(pool, id))
        .expect("failed to spawn pool worker");
    recover_lock(&inner.handles, &inner.counters.lock_poisonings)[id] = Some(handle);
}

/// Worker thread entry: run the loop; on a recycle exit (or an unexpected
/// loop panic — a pool bug, not a job panic) hand the slot to the
/// supervisor for replacement.
fn worker_main(inner: Arc<PoolInner>, id: usize) {
    let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(&inner)));
    match exit {
        Ok(WorkerExit::Shutdown) => {}
        Ok(WorkerExit::Recycle) | Err(_) => supervise_worker_down(&inner, id),
    }
}

/// The supervisor: replaces a downed worker with a fresh thread while the
/// restart budget lasts; past it, nothing is spawned (the caller that
/// triggered a deliberate recycle keeps its old thread alive instead — see
/// `worker_loop`, which consults the budget *before* exiting).
fn supervise_worker_down(inner: &Arc<PoolInner>, id: usize) {
    if inner.shutdown.load(Ordering::SeqCst) {
        return;
    }
    inner
        .counters
        .worker_restarts
        .fetch_add(1, Ordering::Relaxed);
    spawn_worker(inner, id);
}

/// Reserves one unit of restart budget; `false` when the budget is spent.
fn try_reserve_restart(inner: &PoolInner) -> bool {
    let budget = inner.config.restart_budget;
    let mut used = inner.restarts.load(Ordering::Relaxed);
    loop {
        if used >= budget {
            return false;
        }
        match inner
            .restarts
            .compare_exchange(used, used + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return true,
            Err(now) => used = now,
        }
    }
}

fn worker_loop(inner: &Arc<PoolInner>) -> WorkerExit {
    loop {
        let work = {
            let poisonings = &inner.counters.lock_poisonings;
            let mut injector = recover_lock(&inner.injector, poisonings);
            loop {
                if let Some(work) = injector.pop_front() {
                    break work;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return WorkerExit::Shutdown;
                }
                injector = recover_wait(&inner.work_cv, injector, poisonings);
            }
        };
        match work {
            Work::Job(job) => {
                ON_POOL_JOB.with(|c| c.set(true));
                RECYCLE_REQUESTED.with(|c| c.set(false));
                inner.counters.jobs_executed.fetch_add(1, Ordering::Relaxed);
                let outcome = catch_unwind(AssertUnwindSafe(job));
                ON_POOL_JOB.with(|c| c.set(false));
                let recycle = match outcome {
                    Err(_) => {
                        inner.counters.job_panics.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    Ok(()) => RECYCLE_REQUESTED.with(|c| c.get()),
                };
                if recycle {
                    if try_reserve_restart(inner) {
                        return WorkerExit::Recycle;
                    }
                    inner
                        .counters
                        .restart_budget_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Work::Batch(batch) => {
                if batch.run_one() {
                    // The handle left the injector when this worker took
                    // it, so no other idle worker could join the batch while
                    // that first task ran.  If tasks remain, re-inject the
                    // handle now so one more worker can join, then keep
                    // draining the batch here (cheaper than one injector
                    // trip per task).  An exhausted handle is dropped on
                    // pop — run_one returns false and nothing is
                    // re-injected — so dead handles cannot circulate.
                    if !recover_lock(&batch.tasks, &batch.poisonings).is_empty() {
                        let mut injector =
                            recover_lock(&inner.injector, &inner.counters.lock_poisonings);
                        injector.push_front(Work::Batch(Arc::clone(&batch)));
                        drop(injector);
                        inner.work_cv.notify_one();
                    }
                    while batch.run_one() {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn batch_runs_every_task_exactly_once_and_supports_borrows() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 64];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(7)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for v in chunk.iter_mut() {
                            *v += i + 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks);
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7 + 1, "element {i}");
        }
        assert_eq!(pool.stats().batch_tasks_executed, 64usize.div_ceil(7));
    }

    #[test]
    fn run_batch_returns_with_every_task_counted() {
        // Workers finish tasks while the submitter waits, so the last task to
        // complete is often a worker's: its count must land before the latch
        // releases the submitter.
        let pool = WorkerPool::new(3);
        let batches = 20_000;
        let mut short = 0;
        for b in 1..=batches {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.run_batch(tasks);
            if pool.stats().batch_tasks_executed < 4 * b {
                short += 1;
            }
        }
        assert_eq!(
            short, 0,
            "{short} of {batches} batches returned under-counted"
        );
        assert_eq!(pool.stats().batch_tasks_executed, 4 * batches);
    }

    #[test]
    fn zero_worker_pool_runs_batches_on_the_caller() {
        let pool = WorkerPool::new(0);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn batch_task_panic_is_rethrown_on_the_submitter_after_all_tasks_ran() {
        let pool = WorkerPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let completed2 = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            tasks.push(Box::new(|| panic!("scripted batch panic")));
            for _ in 0..4 {
                let c = Arc::clone(&completed2);
                tasks.push(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
            pool.run_batch(tasks);
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(msg.contains("scripted batch panic"), "{msg}");
        // The panic must not abort the rest of the batch.
        assert_eq!(completed.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn batch_task_panic_waits_for_tasks_still_borrowing_the_callers_frame() {
        /// Set once the panicking task has started to unwind.
        struct ReleaseOnUnwind<'a>(&'a AtomicBool);
        impl Drop for ReleaseOnUnwind<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let pool = WorkerPool::new(2);
        // Stack data of this frame, borrowed by the tasks.
        let mut slots = [0u64; 6];
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let unwinding = AtomicBool::new(false);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (started, finished, unwinding) = (&started, &finished, &unwinding);
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            tasks.push(Box::new(move || {
                // Panic once the next task holds its borrow.  The first two
                // tasks run at once, on the submitting thread and on the
                // worker that dequeued the batch (others join only as that
                // worker re-injects it after finishing a task).
                while started.load(Ordering::SeqCst) < 1 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let _release = ReleaseOnUnwind(unwinding);
                panic!("scripted panic while other tasks borrow the frame");
            }));
            for (i, slot) in slots.iter_mut().enumerate() {
                tasks.push(Box::new(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    // Hold the borrow until the panic is unwinding; the
                    // first borrower also outlasts every other task, and
                    // then waits a little longer, so that a submitter
                    // returning before it finished would find its slot
                    // unwritten.
                    let others = if i == 0 { 5 } else { 0 };
                    while (!unwinding.load(Ordering::SeqCst)
                        || finished.load(Ordering::SeqCst) < others)
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    *slot = i as u64 + 1;
                    finished.fetch_add(1, Ordering::SeqCst);
                }));
            }
            pool.run_batch(tasks);
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        // The unwind left `run_batch` only after every borrowing task wrote
        // its slot.
        assert_eq!(slots, [1, 2, 3, 4, 5, 6]);
        assert_eq!(finished.load(Ordering::SeqCst), 6);
        assert!(
            std::time::Instant::now() < deadline,
            "the interleaving was not forced"
        );
    }

    #[test]
    fn detached_jobs_run_and_panics_recycle_the_worker() {
        let pool = WorkerPool::with_config(1, PoolConfig { restart_budget: 2 });
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u32>();
        let tx = done_tx.clone();
        pool.spawn(move || {
            let _ = tx.send(1);
            panic!("scripted job panic");
        });
        let tx = done_tx.clone();
        // The pool must keep serving after the panic (fresh worker).
        pool.spawn(move || {
            let _ = tx.send(2);
        });
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.push(done_rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        // Stats settle after the second job observed both executions.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.stats().worker_restarts < 1 {
            assert!(std::time::Instant::now() < deadline, "restart not observed");
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.job_panics, 1);
        assert_eq!(stats.worker_restarts, 1);
    }

    #[test]
    fn restart_budget_bounds_recycling_but_keeps_the_worker() {
        let pool = WorkerPool::with_config(1, PoolConfig { restart_budget: 1 });
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        for i in 0..3 {
            let tx = tx.clone();
            pool.spawn(move || {
                let _ = tx.send(i);
                panic!("panic {i}");
            });
        }
        let tx_ok = tx.clone();
        pool.spawn(move || {
            let _ = tx_ok.send(99);
        });
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 99]);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.stats().restart_budget_exhausted < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "exhaustion not observed"
            );
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.job_panics, 3);
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!(stats.restart_budget_exhausted, 2);
    }

    #[test]
    fn a_detached_job_is_counted_before_it_signals_its_caller() {
        // A job that releases a waiting caller from inside its closure (as
        // a service's step job releases `drain`) must already be counted
        // when the caller wakes, not only once the closure returns.
        let pool = WorkerPool::new(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
        });
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the job starts");
        assert_eq!(pool.stats().jobs_executed, 1);
        let _ = release_tx.send(());
    }

    #[test]
    fn recycle_request_outside_a_pool_job_is_a_no_op() {
        let pool = WorkerPool::new(1);
        assert!(!pool.recycle_current_worker());
        assert_eq!(pool.stats().worker_restarts, 0);
    }

    #[test]
    fn explicit_recycle_from_inside_a_job_respawns_the_worker() {
        let pool = Arc::new(WorkerPool::new(1));
        let (tx, rx) = std::sync::mpsc::channel::<bool>();
        // recycle_current_worker needs the pool reference from inside the
        // job; the global() instance is avoided to keep the test hermetic.
        let p = Arc::clone(&pool);
        pool.spawn(move || {
            let _ = tx.send(p.recycle_current_worker());
        });
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.stats().worker_restarts < 1 {
            assert!(std::time::Instant::now() < deadline, "restart not observed");
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().job_panics, 0);
    }

    #[test]
    fn batches_drained_while_every_worker_is_busy_leave_no_handle_queued() {
        let pool = WorkerPool::new(1);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            parked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        parked_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let runs: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
        for batch in runs.chunks(3) {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = batch
                .iter()
                .map(|r| {
                    Box::new(move || {
                        r.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks);
        }
        let queued_batches = pool
            .lock_injector()
            .iter()
            .filter(|w| matches!(w, Work::Batch(_)))
            .count();
        release_tx.send(()).unwrap();
        assert_eq!(queued_batches, 0, "dead batch handles left in the injector");
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(pool.stats().batch_tasks_executed, 300);
    }

    #[test]
    fn nested_batches_complete_even_when_all_workers_are_busy() {
        // One worker, one long job occupying it: a scoped batch submitted
        // from the outside must still complete (on the submitting thread),
        // and a batch submitted from *inside* the busy worker must too.
        let pool = Arc::new(WorkerPool::new(1));
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let p = Arc::clone(&pool);
        pool.spawn(move || {
            let inner_sum = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let s = &inner_sum;
                    Box::new(move || {
                        s.fetch_add(i, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            p.run_batch(tasks);
            let _ = tx.send(inner_sum.load(Ordering::SeqCst));
        });
        let outer_sum = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|i| {
                let s = &outer_sum;
                Box::new(move || {
                    s.fetch_add(i * 10, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(outer_sum.load(Ordering::SeqCst), 60);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 6);
    }

    #[test]
    fn poisoned_injector_lock_recovers_instead_of_cascading() {
        let pool = WorkerPool::new(1);
        // Poison the injector lock the only way it can happen in practice:
        // a thread dies while holding it.
        let inner = Arc::clone(&pool.inner);
        let _ = std::thread::spawn(move || {
            let _guard = inner.injector.lock().unwrap();
            panic!("die holding the injector lock");
        })
        .join();
        assert!(pool.inner.injector.is_poisoned());
        // Detached jobs and scoped batches must both keep working.
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        pool.spawn(move || {
            let _ = tx.send(7);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        assert!(
            pool.stats().lock_poisonings >= 1,
            "the recovery must be counted"
        );
    }

    #[test]
    fn map_bands_returns_results_in_item_order_for_every_band_count() {
        let pool = WorkerPool::new(2);
        for len in [0usize, 1, 7] {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<usize> = items.iter().map(|i| i * 10 + 1).collect();
            for bands in [0, 1, 2, 3, len, len + 5] {
                let got = pool.map_bands(&items, bands, |i| i * 10 + 1);
                assert_eq!(got, expected, "len={len} bands={bands}");
            }
        }
    }

    #[test]
    fn one_band_submits_no_batch_and_k_bands_run_one_task_each() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..7).collect();
        let before = pool.stats().batch_tasks_executed;
        pool.map_bands(&items, 1, |i| *i);
        pool.map_bands(&items[..1], 4, |i| *i);
        assert_eq!(pool.stats().batch_tasks_executed, before);
        for bands in [2, 3, items.len(), items.len() + 5] {
            let before = pool.stats().batch_tasks_executed;
            pool.map_bands(&items, bands, |i| *i);
            assert_eq!(
                pool.stats().batch_tasks_executed - before,
                bands.min(items.len()),
                "bands={bands}"
            );
        }
    }

    #[test]
    fn map_bands_panic_reaches_the_caller_like_a_run_batch_panic() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..7).collect();
        for bands in [1, 3] {
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_bands(&items, bands, |&i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 4 {
                        panic!("scripted map panic at item {i}");
                    }
                    i
                })
            }));
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(
                panic_message(payload.as_ref()),
                "scripted map panic at item 4",
                "bands={bands}"
            );
            // Inline, the panic stops the loop at item 4.  Banded (0..3,
            // 3..6, 6..7), it stops only its own band; the others finish
            // before the payload is re-thrown.
            let expected = if bands == 1 { 5 } else { 6 };
            assert_eq!(ran.load(Ordering::SeqCst), expected, "bands={bands}");
        }
    }

    #[test]
    fn fan_out_is_the_participants_capped_at_eight() {
        for (workers, fan_out) in [(0, 1), (3, 4), (7, 8), (9, 8)] {
            assert_eq!(WorkerPool::new(workers).fan_out(), fan_out, "{workers}");
        }
    }

    #[test]
    fn panic_message_renders_str_and_string_payloads() {
        let payload = catch_unwind(|| panic!("a literal")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "a literal");
        let payload = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "formatted 7");
        let payload = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }

    /// Runs `f` in two batch tasks that wait for each other, so that the
    /// caller runs one and a worker the other, and returns the thread and
    /// result of each.
    fn on_two_threads<R: Send>(
        pool: &WorkerPool,
        f: impl Fn() -> R + Sync,
    ) -> Vec<(std::thread::ThreadId, R)> {
        let started = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        pool.map_bands(&[0, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            (std::thread::current().id(), f())
        })
    }

    #[test]
    fn the_context_word_follows_work_onto_the_workers_and_is_restored() {
        const WORD: u64 = 0b101;
        // One worker, so the task that panics under the scope and the task
        // checked after it run on the same worker thread.
        let pool = Arc::new(WorkerPool::new(1));
        let caller = std::thread::current().id();
        assert_eq!(context(), 0);
        with_context(WORD, || {
            // A task run by the worker, and a batch nested in each task.
            let seen = on_two_threads(&pool, || {
                (context(), pool.map_bands(&[0, 1, 2], 3, |_| context()))
            });
            assert!(
                seen.iter().any(|(id, _)| *id != caller),
                "no task ran on the worker"
            );
            for (_, (word, nested)) in &seen {
                assert_eq!(*word, WORD);
                assert_eq!(nested, &[WORD; 3]);
            }
            // Every band of a map_bands.
            assert_eq!(pool.map_bands(&[0; 6], 6, |_| context()), [WORD; 6]);
            // A detached job.
            let (tx, rx) = std::sync::mpsc::channel();
            pool.spawn(move || {
                let _ = tx.send(context());
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), WORD);
            // Tasks that panic on the caller and on the worker.
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                on_two_threads(&pool, || -> u64 { panic!("scripted task panic") })
            }));
            assert!(panicked.is_err());
            assert_eq!(context(), WORD);
        });
        assert_eq!(context(), 0, "the scope restores the caller's word");
        let after = on_two_threads(&pool, context);
        assert!(
            after.iter().any(|(id, _)| *id != caller),
            "no task ran on the worker"
        );
        assert!(after.iter().all(|(_, word)| *word == 0), "{after:?}");
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            let _ = tx.send(context());
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 0);
        // A scope that unwinds restores the word too.
        assert!(catch_unwind(|| with_context(WORD, || panic!("scripted scope panic"))).is_err());
        assert_eq!(context(), 0);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().participants() >= 1);
    }
}
