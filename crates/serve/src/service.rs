//! The supervised multi-session service loop.
//!
//! # Execution model
//!
//! A [`BoService`] advances every admitted session through its
//! [`BayesOpt`] loop one *step job* at a time on a bounded
//! [`nnbo_pool::WorkerPool`].  Each job performs exactly one unit of
//! session work — the space-filling initial design on the first job, one
//! model-guided iteration after that — then persists the resulting
//! checkpoint through the [`SessionStore`] and re-enqueues the session's
//! next job.  Sessions therefore interleave fairly on a fixed number of
//! worker threads, and a session is only ever touched by one job at a time.
//!
//! # Supervision tree
//!
//! ```text
//! BoService
//! ├─ WorkerPool supervisor      (nnbo-pool: respawns crashed/recycled workers)
//! │   ├─ worker 0 … worker N-1  (pinned threads; steal step jobs + batch tasks)
//! │   └─ [watchdogs]            (sacrificial deadline threads, abandonable)
//! └─ sessions                   (one step-job chain each)
//!     ├─ Active                 → stepping, checkpointed after every job
//!     ├─ Parked                 → checkpointed, shed under overload
//!     ├─ Completed              → result available
//!     └─ Quarantined            → panicked; last checkpoint still recoverable
//! ```
//!
//! Every step job body runs under `catch_unwind`: a panic (a crashing
//! surrogate, a poisoned evaluation) quarantines *only the panicking
//! session* — the payload is recorded, the session's in-memory state is
//! discarded (its last persisted checkpoint remains authoritative), the
//! worker that ran the job is recycled for a pristine stack, and every
//! other session keeps stepping.
//!
//! # Shedding policy
//!
//! Admission is bounded by [`ServeConfig::max_sessions`].  When a submit
//! (or recover) arrives at capacity, the service sheds load gracefully: the
//! *oldest idle* active session — smallest admission sequence number, not
//! currently inside a step — is parked.  Parking is free of data loss by
//! construction: a session is checkpointed after every completed job, so
//! the parked session's durable state is exactly its progress.  When no
//! session is idle, the submit is rejected with [`ServeError::Overloaded`]
//! — the explicit backpressure signal.  [`BoService::resume_parked`]
//! re-admits a parked session under the same admission rule.
//!
//! # Crash behaviour
//!
//! [`BoService::kill`] trips a process-death simulation: in-flight jobs
//! stop before persisting, queued jobs drop on the floor, and nothing else
//! runs.  Because checkpoints are written *after* every completed step with
//! [`SessionStore`]'s write-then-rename protocol, a kill at any instant
//! loses at most each session's single in-flight step; recovering the
//! sessions into a fresh service ([`BoService::recover`]) resumes them
//! bit-identically from the last completed step.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nnbo_core::{
    BayesOpt, BoSnapshot, BoState, Evaluation, OptimizationResult, Problem, RecoveryLog,
    SurrogateTrainer,
};
use nnbo_pool::{PoolStats, WorkerPool};
use serde::{Deserialize, Serialize};

use crate::deadline::DeadlineProblem;
use crate::error::ServeError;
use crate::shard::ShardHealth;
use crate::store::{SessionStore, SnapshotStore};

/// Service construction knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum number of concurrently *active* sessions (admission
    /// capacity); submits past it shed an idle session or are rejected.
    pub max_sessions: usize,
    /// Wall-clock budget for each evaluation attempt inside a step; an
    /// overrun yields `EvalOutcome::Timeout` into the session's failure
    /// policy.  `None` disables deadline enforcement.
    pub step_deadline: Option<Duration>,
    /// `Some(n)`: the service runs on its own private pool with `n`
    /// workers (used by tests that assert exact supervision counters).
    /// `None`: the process-wide [`WorkerPool::global`] serves the jobs.
    pub workers: Option<usize>,
    /// Fail-point for chaos tests: once this many step jobs have
    /// *computed*, the kill switch trips before the triggering job
    /// persists — deterministically simulating process death mid-step.
    pub kill_after_steps: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 8,
            step_deadline: None,
            workers: None,
            kill_after_steps: None,
        }
    }
}

/// Where a session is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Stepping (or queued to step).
    Active,
    /// Shed under overload; durable at its last checkpoint, resumable with
    /// [`BoService::resume_parked`].
    Parked,
    /// Ran its full evaluation budget; result available.
    Completed,
    /// A step panicked (or could not persist); only its last checkpoint
    /// survives.
    Quarantined,
}

impl SessionStatus {
    fn describe(self) -> &'static str {
        match self {
            SessionStatus::Active => "active",
            SessionStatus::Parked => "parked",
            SessionStatus::Completed => "completed",
            SessionStatus::Quarantined => "quarantined",
        }
    }
}

/// Counters describing everything the service has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Sessions admitted through [`BoService::submit`].
    pub sessions_submitted: usize,
    /// Sessions admitted through [`BoService::recover`].
    pub sessions_recovered: usize,
    /// Sessions that ran their full budget.
    pub sessions_completed: usize,
    /// Sessions quarantined (panic, step error, or persist failure).
    pub sessions_quarantined: usize,
    /// Step jobs that panicked (each quarantined its session and recycled
    /// its worker).
    pub session_panics: usize,
    /// Step jobs that failed with an optimization error.
    pub step_errors: usize,
    /// Step jobs whose checkpoint could not be persisted.
    pub persist_failures: usize,
    /// Sessions parked by the shedding policy.
    pub sessions_parked: usize,
    /// Parked sessions re-admitted.
    pub sessions_unparked: usize,
    /// Submits rejected with [`ServeError::Overloaded`].
    pub overload_rejections: usize,
    /// Step jobs that computed a step (persisted or not).
    pub steps_completed: usize,
    /// Step jobs whose checkpoint reached the store.
    pub steps_persisted: usize,
    /// Computed steps dropped by the kill switch before persisting.
    pub steps_lost_to_kill: usize,
    /// Recoveries that had to fall back to the backup generation.
    pub recovered_from_backup: usize,
    /// Recoveries that detected (and survived) a corrupt primary.
    pub corruption_detected: usize,
    /// Sessions parked because a persist hit a `Down` shard (distinct from
    /// shed parks: the in-memory state is intact, only durability waits).
    pub shard_parks: usize,
    /// Admissions rejected because the session's shard was `Down`.
    pub shard_rejections: usize,
}

struct StatCounters {
    sessions_submitted: AtomicUsize,
    sessions_recovered: AtomicUsize,
    sessions_completed: AtomicUsize,
    sessions_quarantined: AtomicUsize,
    session_panics: AtomicUsize,
    step_errors: AtomicUsize,
    persist_failures: AtomicUsize,
    sessions_parked: AtomicUsize,
    sessions_unparked: AtomicUsize,
    overload_rejections: AtomicUsize,
    steps_completed: AtomicUsize,
    steps_persisted: AtomicUsize,
    steps_lost_to_kill: AtomicUsize,
    recovered_from_backup: AtomicUsize,
    corruption_detected: AtomicUsize,
    shard_parks: AtomicUsize,
    shard_rejections: AtomicUsize,
}

impl StatCounters {
    fn new() -> Self {
        StatCounters {
            sessions_submitted: AtomicUsize::new(0),
            sessions_recovered: AtomicUsize::new(0),
            sessions_completed: AtomicUsize::new(0),
            sessions_quarantined: AtomicUsize::new(0),
            session_panics: AtomicUsize::new(0),
            step_errors: AtomicUsize::new(0),
            persist_failures: AtomicUsize::new(0),
            sessions_parked: AtomicUsize::new(0),
            sessions_unparked: AtomicUsize::new(0),
            overload_rejections: AtomicUsize::new(0),
            steps_completed: AtomicUsize::new(0),
            steps_persisted: AtomicUsize::new(0),
            steps_lost_to_kill: AtomicUsize::new(0),
            recovered_from_backup: AtomicUsize::new(0),
            corruption_detected: AtomicUsize::new(0),
            shard_parks: AtomicUsize::new(0),
            shard_rejections: AtomicUsize::new(0),
        }
    }

    fn snapshot(&self) -> ServeStats {
        let get = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        ServeStats {
            sessions_submitted: get(&self.sessions_submitted),
            sessions_recovered: get(&self.sessions_recovered),
            sessions_completed: get(&self.sessions_completed),
            sessions_quarantined: get(&self.sessions_quarantined),
            session_panics: get(&self.session_panics),
            step_errors: get(&self.step_errors),
            persist_failures: get(&self.persist_failures),
            sessions_parked: get(&self.sessions_parked),
            sessions_unparked: get(&self.sessions_unparked),
            overload_rejections: get(&self.overload_rejections),
            steps_completed: get(&self.steps_completed),
            steps_persisted: get(&self.steps_persisted),
            steps_lost_to_kill: get(&self.steps_lost_to_kill),
            recovered_from_backup: get(&self.recovered_from_backup),
            corruption_detected: get(&self.corruption_detected),
            shard_parks: get(&self.shard_parks),
            shard_rejections: get(&self.shard_rejections),
        }
    }
}

/// The pool the service runs on: the process-wide singleton, or a private
/// pool owned by (and torn down with) the service.
enum PoolRef {
    Global,
    Private(WorkerPool),
}

impl PoolRef {
    fn get(&self) -> &WorkerPool {
        match self {
            PoolRef::Global => WorkerPool::global(),
            PoolRef::Private(pool) => pool,
        }
    }
}

/// Per-session bookkeeping behind the session's own mutex.
struct SessionState<M> {
    status: SessionStatus,
    bo: Option<BoState<M>>,
    result: Option<OptimizationResult>,
    panic: Option<String>,
}

struct Session<T: SurrogateTrainer> {
    id: String,
    /// Admission order; the shedding policy parks the smallest.
    seq: usize,
    driver: BayesOpt<T>,
    problem: Arc<dyn Problem + Send + Sync>,
    deadline: Option<Arc<DeadlineProblem>>,
    state: Mutex<SessionState<T::Model>>,
    /// `true` only while a job is inside this session's step body — the
    /// shedding policy's definition of "not idle".
    stepping: AtomicBool,
}

impl<T: SurrogateTrainer> Session<T> {
    /// Locks the session state, recovering from mutex poisoning: a panic
    /// inside a step quarantines the session through its status (and drops
    /// its in-memory state), so the poison flag itself carries no extra
    /// information.
    fn lock_state(&self) -> MutexGuard<'_, SessionState<T::Model>> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The problem reference a step should evaluate against (the
    /// deadline-wrapped view when a deadline is configured).
    fn problem_view(&self) -> &dyn Problem {
        match &self.deadline {
            Some(d) => d.as_ref(),
            None => self.problem.as_ref(),
        }
    }
}

struct ServeInner<T: SurrogateTrainer, S: SnapshotStore> {
    store: S,
    config: ServeConfig,
    pool: PoolRef,
    registry: Mutex<HashMap<String, Arc<Session<T>>>>,
    change_cv: Condvar,
    killed: AtomicBool,
    in_flight: AtomicUsize,
    next_seq: AtomicUsize,
    stats: StatCounters,
    latencies_ms: Mutex<Vec<f64>>,
}

impl<T: SurrogateTrainer, S: SnapshotStore> ServeInner<T, S> {
    fn pool(&self) -> &WorkerPool {
        self.pool.get()
    }

    fn lock_registry(&self) -> MutexGuard<'_, HashMap<String, Arc<Session<T>>>> {
        match self.registry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Wakes everyone blocked on service state (drain, tests).
    fn note_change(&self) {
        let _guard = self.lock_registry();
        self.change_cv.notify_all();
    }
}

/// The supervised multi-session Bayesian-optimization service.  See the
/// module docs for the execution, supervision, shedding, and crash models.
///
/// Generic over its persistence backend: the default [`SessionStore`] is
/// one directory; [`crate::ShardedStore`] adds rendezvous-routed shards
/// with retry and per-shard degradation, which the service's admission and
/// persist paths respect (see [`ServeError::ShardUnavailable`]).
pub struct BoService<T: SurrogateTrainer, S: SnapshotStore = SessionStore> {
    inner: Arc<ServeInner<T, S>>,
}

impl<T, S> BoService<T, S>
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
    S: SnapshotStore + 'static,
{
    /// Creates a service persisting through `store`.
    pub fn new(store: S, config: ServeConfig) -> Self {
        let pool = match config.workers {
            Some(n) => PoolRef::Private(WorkerPool::new(n.max(1))),
            None => PoolRef::Global,
        };
        BoService {
            inner: Arc::new(ServeInner {
                store,
                config,
                pool,
                registry: Mutex::new(HashMap::new()),
                change_cv: Condvar::new(),
                killed: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                next_seq: AtomicUsize::new(0),
                stats: StatCounters::new(),
                latencies_ms: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The store this service persists through.
    pub fn store(&self) -> &S {
        &self.inner.store
    }

    /// Admits a fresh session and starts stepping it.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSessionId`] for unsafe ids,
    /// [`ServeError::SessionBusy`] when the id is already registered,
    /// [`ServeError::Overloaded`] when the service is at capacity with no
    /// idle session to park, and [`ServeError::ServiceKilled`] after
    /// [`BoService::kill`].
    pub fn submit(
        &self,
        id: &str,
        driver: BayesOpt<T>,
        problem: Arc<dyn Problem + Send + Sync>,
    ) -> Result<(), ServeError> {
        let session = self.admit(id, driver, problem, None)?;
        self.inner
            .stats
            .sessions_submitted
            .fetch_add(1, Ordering::Relaxed);
        spawn_step_job(&self.inner, &session);
        Ok(())
    }

    /// Recovers a session from its last intact checkpoint in the store and
    /// resumes stepping it bit-identically.  Returns the number of
    /// evaluations the checkpoint already contained.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`] when the store has no generation
    /// for `id`, [`ServeError::CorruptSnapshot`] when no generation
    /// verifies, [`ServeError::Bo`] when the checkpoint does not match
    /// `driver`'s configuration, plus every [`BoService::submit`] error.
    pub fn recover(
        &self,
        id: &str,
        driver: BayesOpt<T>,
        problem: Arc<dyn Problem + Send + Sync>,
    ) -> Result<usize, ServeError> {
        // Scrub the session's generations first, so recovery after a torn
        // write or dropped rename reads the repaired store rather than
        // tripping over the debris.  What the scrub healed still counts as
        // provenance: a promoted backup IS a recovery from backup.
        let repaired = self.inner.store.repair_session(id)?;
        if repaired.action == crate::scrub::ScrubAction::PromotedBackup {
            self.inner
                .stats
                .recovered_from_backup
                .fetch_add(1, Ordering::Relaxed);
        }
        if repaired.latest_was_corrupt {
            self.inner
                .stats
                .corruption_detected
                .fetch_add(1, Ordering::Relaxed);
        }
        let loaded = self
            .inner
            .store
            .load(id)?
            .ok_or_else(|| ServeError::SessionNotFound {
                session: id.to_string(),
            })?;
        if loaded.recovered_from_backup {
            self.inner
                .stats
                .recovered_from_backup
                .fetch_add(1, Ordering::Relaxed);
        }
        if loaded.corruption.is_some() {
            self.inner
                .stats
                .corruption_detected
                .fetch_add(1, Ordering::Relaxed);
        }
        let snapshot = BoSnapshot::from_json(&loaded.snapshot_json)?;
        let state = driver.resume(&snapshot)?;
        let evaluations = state.evaluations().len();
        let session = self.admit(id, driver, problem, Some(state))?;
        self.inner
            .stats
            .sessions_recovered
            .fetch_add(1, Ordering::Relaxed);
        spawn_step_job(&self.inner, &session);
        Ok(evaluations)
    }

    /// Registers a session under the admission policy.
    fn admit(
        &self,
        id: &str,
        driver: BayesOpt<T>,
        problem: Arc<dyn Problem + Send + Sync>,
        resumed: Option<BoState<T::Model>>,
    ) -> Result<Arc<Session<T>>, ServeError> {
        SessionStore::validate_id(id)?;
        if self.inner.killed.load(Ordering::SeqCst) {
            return Err(ServeError::ServiceKilled);
        }
        // Admission respects shard health: a session routed to a Down
        // shard cannot checkpoint, so it is rejected up-front instead of
        // admitted into guaranteed persist failures.
        if self.inner.store.health_for(id) == ShardHealth::Down {
            self.inner
                .stats
                .shard_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShardUnavailable {
                shard: self.inner.store.placement(id).unwrap_or_default(),
                session: id.to_string(),
            });
        }
        let deadline = self
            .inner
            .config
            .step_deadline
            .map(|budget| Arc::new(DeadlineProblem::new(Arc::clone(&problem), budget)));
        let mut registry = self.inner.lock_registry();
        if let Some(existing) = registry.get(id) {
            let status = existing.lock_state().status;
            return Err(ServeError::SessionBusy {
                session: id.to_string(),
                status: status.describe().to_string(),
            });
        }
        self.make_room(&registry)?;
        let session = Arc::new(Session {
            id: id.to_string(),
            seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
            driver,
            problem,
            deadline,
            state: Mutex::new(SessionState {
                status: SessionStatus::Active,
                bo: resumed,
                result: None,
                panic: None,
            }),
            stepping: AtomicBool::new(false),
        });
        registry.insert(id.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Enforces the capacity bound, parking the oldest idle session when
    /// the service is full.
    fn make_room(&self, registry: &HashMap<String, Arc<Session<T>>>) -> Result<(), ServeError> {
        let capacity = self.inner.config.max_sessions.max(1);
        let active: Vec<&Arc<Session<T>>> = registry
            .values()
            .filter(|s| {
                // A racing step may hold the state lock; such a session is
                // busy by definition, and counting it active keeps the
                // bound conservative.
                s.state
                    .try_lock()
                    .map(|g| g.status == SessionStatus::Active)
                    .unwrap_or(true)
            })
            .collect();
        if active.len() < capacity {
            return Ok(());
        }
        // Shed: the oldest session not currently inside a step body.
        let victim = active
            .iter()
            .filter(|s| !s.stepping.load(Ordering::SeqCst))
            .min_by_key(|s| s.seq);
        match victim {
            Some(victim) => {
                if let Ok(mut st) = victim.state.try_lock() {
                    if st.status == SessionStatus::Active {
                        st.status = SessionStatus::Parked;
                        self.inner
                            .stats
                            .sessions_parked
                            .fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                self.inner
                    .stats
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { capacity })
            }
            None => {
                self.inner
                    .stats
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { capacity })
            }
        }
    }

    /// Re-admits a parked session (under the same admission policy) and
    /// resumes stepping it.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`], [`ServeError::SessionBusy`] when
    /// the session is not parked, [`ServeError::Overloaded`], and
    /// [`ServeError::ServiceKilled`].
    pub fn resume_parked(&self, id: &str) -> Result<(), ServeError> {
        if self.inner.killed.load(Ordering::SeqCst) {
            return Err(ServeError::ServiceKilled);
        }
        let session = {
            let registry = self.inner.lock_registry();
            let session = registry
                .get(id)
                .cloned()
                .ok_or_else(|| ServeError::SessionNotFound {
                    session: id.to_string(),
                })?;
            {
                let st = session.lock_state();
                if st.status != SessionStatus::Parked {
                    return Err(ServeError::SessionBusy {
                        session: id.to_string(),
                        status: st.status.describe().to_string(),
                    });
                }
            }
            self.make_room(&registry)?;
            session.lock_state().status = SessionStatus::Active;
            session
        };
        self.inner
            .stats
            .sessions_unparked
            .fetch_add(1, Ordering::Relaxed);
        spawn_step_job(&self.inner, &session);
        Ok(())
    }

    /// Trips the kill switch: queued and in-flight jobs stop without
    /// persisting, simulating abrupt process death (see the module docs).
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.note_change();
    }

    /// Blocks until no step job is queued or running.  After a drain on a
    /// live service every session is `Completed`, `Parked`, or
    /// `Quarantined`; after a kill it is simply quiescent.
    pub fn drain(&self) {
        let mut registry = self.inner.lock_registry();
        while self.inner.in_flight.load(Ordering::SeqCst) != 0 {
            registry = match self.inner.change_cv.wait(registry) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The session's lifecycle status.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`].
    pub fn status(&self, id: &str) -> Result<SessionStatus, ServeError> {
        Ok(self.session(id)?.lock_state().status)
    }

    /// The result of a completed session.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`], [`ServeError::SessionPanicked`]
    /// for a quarantined session, and [`ServeError::SessionBusy`] while
    /// the session is still running.
    pub fn result(&self, id: &str) -> Result<OptimizationResult, ServeError> {
        let session = self.session(id)?;
        let st = session.lock_state();
        match st.status {
            SessionStatus::Completed => Ok(st
                .result
                .clone()
                .expect("completed session always stores its result")),
            SessionStatus::Quarantined => Err(ServeError::SessionPanicked {
                session: id.to_string(),
                payload: st.panic.clone().unwrap_or_default(),
            }),
            status => Err(ServeError::SessionBusy {
                session: id.to_string(),
                status: status.describe().to_string(),
            }),
        }
    }

    /// The evaluations a session has accumulated so far (empty before its
    /// initial design lands, or after a quarantine discarded the in-memory
    /// state).
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`].
    pub fn history(&self, id: &str) -> Result<Vec<(Vec<f64>, Evaluation)>, ServeError> {
        let session = self.session(id)?;
        let st = session.lock_state();
        if let Some(result) = &st.result {
            return Ok(result.evaluations().to_vec());
        }
        Ok(st
            .bo
            .as_ref()
            .map(|b| b.evaluations().to_vec())
            .unwrap_or_default())
    }

    /// The session's recovery log so far (timeouts, retries, imputations).
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionNotFound`].
    pub fn recovery_log(&self, id: &str) -> Result<RecoveryLog, ServeError> {
        let session = self.session(id)?;
        let st = session.lock_state();
        if let Some(result) = &st.result {
            return Ok(result.recovery().clone());
        }
        Ok(st
            .bo
            .as_ref()
            .map(|b| b.recovery().clone())
            .unwrap_or_default())
    }

    /// Quarantined sessions with their rendered panic payloads.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        let registry = self.inner.lock_registry();
        let mut out: Vec<(String, String)> = registry
            .values()
            .filter_map(|s| {
                let st = s.lock_state();
                (st.status == SessionStatus::Quarantined)
                    .then(|| (s.id.clone(), st.panic.clone().unwrap_or_default()))
            })
            .collect();
        out.sort();
        out
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats.snapshot()
    }

    /// Counters of the pool this service runs on (process-wide values for
    /// the global pool).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool().stats()
    }

    /// A percentile (0–100) of the observed step-job latencies, in
    /// milliseconds; `None` before any step completed.
    pub fn step_latency_ms(&self, percentile: f64) -> Option<f64> {
        let samples = match self.inner.latencies_ms.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        percentile_of(&samples, percentile)
    }

    fn session(&self, id: &str) -> Result<Arc<Session<T>>, ServeError> {
        self.inner
            .lock_registry()
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::SessionNotFound {
                session: id.to_string(),
            })
    }
}

/// A percentile (0–100) by nearest-rank interpolation over a copy of
/// `samples`.
pub fn percentile_of(samples: &[f64], percentile: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    let rank = (percentile.clamp(0.0, 100.0) / 100.0) * ((sorted.len() - 1) as f64);
    Some(sorted[rank.round() as usize])
}

/// Enqueues the session's next step job, keeping the invariant that an
/// active session always has exactly one job queued or running.
fn spawn_step_job<T, S>(inner: &Arc<ServeInner<T, S>>, session: &Arc<Session<T>>)
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
    S: SnapshotStore + 'static,
{
    inner.in_flight.fetch_add(1, Ordering::SeqCst);
    let inner_job = Arc::clone(inner);
    let session_job = Arc::clone(session);
    inner.pool().spawn(move || {
        step_job(&inner_job, &session_job);
        inner_job.in_flight.fetch_sub(1, Ordering::SeqCst);
        inner_job.note_change();
    });
}

/// One unit of session work: start or step, checkpoint, re-enqueue.  Never
/// unwinds — panics quarantine the session and recycle the worker.
fn step_job<T, S>(inner: &Arc<ServeInner<T, S>>, session: &Arc<Session<T>>)
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
    S: SnapshotStore + 'static,
{
    if inner.killed.load(Ordering::SeqCst) {
        return;
    }
    if session.lock_state().status != SessionStatus::Active {
        return;
    }
    session.stepping.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut st = session.lock_state();
        let problem = session.problem_view();
        if st.bo.is_none() {
            st.bo = Some(session.driver.start(problem)?);
        }
        let bo = st.bo.as_mut().expect("state initialised above");
        let more = session.driver.step(problem, bo)?;
        Ok::<_, nnbo_core::BoError>((more, session.driver.snapshot(bo).to_json()))
    }));
    session.stepping.store(false, Ordering::SeqCst);
    match outcome {
        Err(payload) => {
            inner.stats.session_panics.fetch_add(1, Ordering::Relaxed);
            quarantine(inner, session, nnbo_pool::panic_message(payload.as_ref()));
            // A pristine stack for whoever steps next on this worker.
            inner.pool().recycle_current_worker();
        }
        Ok(Err(bo_err)) => {
            inner.stats.step_errors.fetch_add(1, Ordering::Relaxed);
            quarantine(inner, session, format!("step failed: {bo_err}"));
        }
        Ok(Ok((more, snapshot_json))) => {
            let computed = inner.stats.steps_completed.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(fail_at) = inner.config.kill_after_steps {
                if computed >= fail_at {
                    inner.killed.store(true, Ordering::SeqCst);
                }
            }
            if inner.killed.load(Ordering::SeqCst) {
                // Process death between compute and persist: this step is
                // the (at most one per session) lost iteration.
                inner
                    .stats
                    .steps_lost_to_kill
                    .fetch_add(1, Ordering::Relaxed);
                inner.note_change();
                return;
            }
            if let Err(e) = inner.store.persist(&session.id, &snapshot_json) {
                if matches!(e, ServeError::ShardUnavailable { .. }) {
                    // The session's shard went Down mid-run.  Its in-memory
                    // state is intact and its durable state is the last
                    // acked checkpoint, so park it instead of quarantining:
                    // once a scrub revives the shard, `resume_parked`
                    // continues the run and the next persist catches up.
                    inner.stats.shard_parks.fetch_add(1, Ordering::Relaxed);
                    session.lock_state().status = SessionStatus::Parked;
                    inner.note_change();
                    return;
                }
                inner.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
                quarantine(inner, session, format!("checkpoint persist failed: {e}"));
                return;
            }
            inner.stats.steps_persisted.fetch_add(1, Ordering::Relaxed);
            {
                let mut samples = match inner.latencies_ms.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                samples.push(started.elapsed().as_secs_f64() * 1e3);
            }
            if more {
                spawn_step_job(inner, session);
            } else {
                let mut st = session.lock_state();
                let bo = st.bo.take().expect("state present at completion");
                st.result = Some(session.driver.finish(bo));
                st.status = SessionStatus::Completed;
                drop(st);
                inner
                    .stats
                    .sessions_completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            inner.note_change();
        }
    }
}

/// Marks a session quarantined, discarding its (suspect) in-memory state;
/// the last persisted checkpoint stays authoritative.
fn quarantine<T: SurrogateTrainer, S: SnapshotStore>(
    inner: &ServeInner<T, S>,
    session: &Session<T>,
    reason: String,
) {
    let mut st = session.lock_state();
    st.bo = None;
    st.status = SessionStatus::Quarantined;
    st.panic = Some(reason);
    drop(st);
    inner
        .stats
        .sessions_quarantined
        .fetch_add(1, Ordering::Relaxed);
    inner.note_change();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_by_nearest_rank() {
        assert_eq!(percentile_of(&[], 99.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of(&xs, 0.0), Some(1.0));
        assert_eq!(percentile_of(&xs, 100.0), Some(100.0));
        assert_eq!(percentile_of(&xs, 50.0), Some(51.0));
        let p99 = percentile_of(&xs, 99.0).unwrap();
        assert!((99.0..=100.0).contains(&p99));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.max_sessions, 8);
        assert!(c.step_deadline.is_none());
        assert!(c.workers.is_none());
        assert!(c.kill_after_steps.is_none());
    }
}
