//! Chaos suite for the serving layer: scripted worker panics, step
//! timeouts, store corruption, overload shedding, and kill-and-restart
//! recovery — each asserting *exact* recovery counters and bit-identical
//! surviving sessions.
//!
//! Every service here runs on a private worker pool so the supervision
//! counters (worker restarts, panics) are exact rather than shared with
//! other tests in the process.  CI runs this suite under both the
//! vectorised and the `NNBO_PORTABLE_KERNELS=1` dispatch paths.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nnbo_core::problems::{ConstrainedBranin, CornerContext, CornerSweep, PvtCorner, Testbench};
use nnbo_core::{
    BayesOpt, BoConfig, BoError, EvalOutcome, Evaluation, Prediction, Problem, SurrogateModel,
    SurrogateTrainer, SweepProblem,
};
use nnbo_serve::{BoService, ServeConfig, ServeError, SessionStatus, SessionStore};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A deliberately trivial surrogate (predicts the training mean) so chaos
/// runs are fast and fully deterministic; the loop machinery it drives is
/// exactly the one the neural ensemble uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MeanModel {
    mean: f64,
    var: f64,
}

impl SurrogateModel for MeanModel {
    fn predict(&self, _x: &[f64]) -> Prediction {
        Prediction::new(self.mean, self.var)
    }
}

#[derive(Debug, Clone)]
struct MeanTrainer;

impl SurrogateTrainer for MeanTrainer {
    type Model = MeanModel;

    fn fit(&self, _xs: &[Vec<f64>], ys: &[f64], _rng: &mut StdRng) -> Result<MeanModel, String> {
        if ys.is_empty() {
            return Err("no data".to_string());
        }
        let n = ys.len() as f64;
        let mean = ys.iter().sum::<f64>() / n;
        let var = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / n;
        Ok(MeanModel {
            mean,
            var: var.max(1e-6),
        })
    }
}

fn driver(seed: u64) -> BayesOpt<MeanTrainer> {
    BayesOpt::with_trainer(BoConfig::fast(4, 10).with_seed(seed), MeanTrainer)
}

/// The evaluations the same driver produces without any service around it.
fn sequential_reference(seed: u64) -> Vec<(Vec<f64>, Evaluation)> {
    driver(seed)
        .run(&ConstrainedBranin)
        .expect("reference run succeeds")
        .evaluations()
        .to_vec()
}

fn scratch_store(tag: &str) -> SessionStore {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nnbo-serve-chaos-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SessionStore::open(dir).expect("scratch store opens")
}

/// Panics on one scripted `try_evaluate` call (per-instance counter).
struct PanicAt {
    inner: ConstrainedBranin,
    at: usize,
    calls: AtomicUsize,
}

impl PanicAt {
    fn new(at: usize) -> Self {
        PanicAt {
            inner: ConstrainedBranin,
            at,
            calls: AtomicUsize::new(0),
        }
    }
}

impl Problem for PanicAt {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.inner.evaluate(x)
    }
    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.at {
            panic!("chaos: scripted simulator crash at call {}", self.at);
        }
        self.inner.try_evaluate(x)
    }
}

/// Sleeps well past any deadline on one scripted call.
struct HangAt {
    inner: ConstrainedBranin,
    at: usize,
    calls: AtomicUsize,
}

impl Problem for HangAt {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.inner.evaluate(x)
    }
    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.at {
            std::thread::sleep(Duration::from_secs(60));
        }
        self.inner.try_evaluate(x)
    }
}

/// Blocks its first `try_evaluate` until the test opens the gate, and
/// reports when the evaluation has been entered (so tests can wait for the
/// worker to be provably busy).
struct GatedProblem {
    inner: ConstrainedBranin,
    gate: Mutex<bool>,
    opened: Condvar,
    entered: AtomicBool,
    calls: AtomicUsize,
}

impl GatedProblem {
    fn new() -> Self {
        GatedProblem {
            inner: ConstrainedBranin,
            gate: Mutex::new(false),
            opened: Condvar::new(),
            entered: AtomicBool::new(false),
            calls: AtomicUsize::new(0),
        }
    }

    fn open(&self) {
        *self.gate.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait_entered(&self) {
        while !self.entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Problem for GatedProblem {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.inner.evaluate(x)
    }
    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            self.entered.store(true, Ordering::SeqCst);
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
        self.inner.try_evaluate(x)
    }
}

/// Step jobs a `fast(4, 10)` session needs: one start+step job, then one
/// job per remaining iteration, then the budget-exhausted finishing job.
const JOBS_PER_SESSION: usize = 10 - 4 + 1;

#[test]
fn sessions_complete_and_match_the_sequential_loop_bit_identically() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("baseline"),
        ServeConfig {
            workers: Some(3),
            ..ServeConfig::default()
        },
    );
    let seeds = [11u64, 22, 33, 44];
    for seed in seeds {
        service
            .submit(
                &format!("s{seed}"),
                driver(seed),
                Arc::new(ConstrainedBranin),
            )
            .unwrap();
    }
    service.drain();

    for seed in seeds {
        let id = format!("s{seed}");
        assert_eq!(service.status(&id).unwrap(), SessionStatus::Completed);
        assert_eq!(
            service.history(&id).unwrap(),
            sequential_reference(seed),
            "served session {id} diverged from the sequential loop"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.sessions_submitted, 4);
    assert_eq!(stats.sessions_completed, 4);
    assert_eq!(stats.sessions_quarantined, 0);
    assert_eq!(stats.steps_completed, 4 * JOBS_PER_SESSION);
    assert_eq!(stats.steps_persisted, 4 * JOBS_PER_SESSION);
    assert!(service.step_latency_ms(99.0).unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn a_panicking_session_is_quarantined_alone_and_its_worker_recycled() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("panic"),
        ServeConfig {
            workers: Some(2),
            ..ServeConfig::default()
        },
    );
    service
        .submit("healthy-1", driver(1), Arc::new(ConstrainedBranin))
        .unwrap();
    // Crashes during the 7th evaluation — mid way through the model-guided
    // phase, after several checkpoints have landed.
    service
        .submit("doomed", driver(2), Arc::new(PanicAt::new(6)))
        .unwrap();
    service
        .submit("healthy-2", driver(3), Arc::new(ConstrainedBranin))
        .unwrap();
    service.drain();

    // Exactly one quarantine, with the payload preserved.
    let quarantined = service.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, "doomed");
    assert!(quarantined[0].1.contains("scripted simulator crash"));
    assert!(matches!(
        service.result("doomed"),
        Err(ServeError::SessionPanicked { .. })
    ));

    // The pool recycled exactly the one worker that ran the panicking job
    // (the respawn completes just after the job returns — wait it out).
    let waiting = std::time::Instant::now();
    while service.pool_stats().worker_restarts < 1 && waiting.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.pool_stats().worker_restarts, 1);

    // The survivors are bit-identical to unfaulted sequential runs.
    for (id, seed) in [("healthy-1", 1u64), ("healthy-2", 3u64)] {
        assert_eq!(service.status(id).unwrap(), SessionStatus::Completed);
        assert_eq!(service.history(id).unwrap(), sequential_reference(seed));
    }
    let stats = service.stats();
    assert_eq!(stats.session_panics, 1);
    assert_eq!(stats.sessions_quarantined, 1);
    assert_eq!(stats.sessions_completed, 2);

    // The doomed session's last checkpoint is intact: recovering it with a
    // healthy problem finishes the run exactly as the unfaulted loop would.
    let fresh: BoService<MeanTrainer> = BoService::new(
        SessionStore::open(service.store().dir()).unwrap(),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    let resumed_evals = fresh
        .recover("doomed", driver(2), Arc::new(ConstrainedBranin))
        .unwrap();
    assert!(
        resumed_evals >= 4,
        "checkpoints were landing before the crash"
    );
    fresh.drain();
    assert_eq!(fresh.status("doomed").unwrap(), SessionStatus::Completed);
    assert_eq!(fresh.history("doomed").unwrap(), sequential_reference(2));
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn a_hung_evaluation_times_out_into_the_resilience_path() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("deadline"),
        ServeConfig {
            workers: Some(1),
            step_deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    );
    service
        .submit(
            "laggard",
            driver(5),
            Arc::new(HangAt {
                inner: ConstrainedBranin,
                at: 5,
                calls: AtomicUsize::new(0),
            }),
        )
        .unwrap();
    service.drain();

    assert_eq!(service.status("laggard").unwrap(), SessionStatus::Completed);
    let log = service.recovery_log("laggard").unwrap();
    assert_eq!(
        log.eval_timeouts, 1,
        "the hung attempt must surface as a timeout"
    );
    assert!(
        log.eval_retries >= 1,
        "the failure policy retries the timed-out point"
    );
    let result = service.result("laggard").unwrap();
    assert_eq!(result.num_evaluations(), 10, "the budget still completes");
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn corrupted_latest_checkpoint_recovers_from_the_backup_generation() {
    let store = scratch_store("corrupt");
    let dir = store.dir().to_path_buf();
    let service: BoService<MeanTrainer> = BoService::new(
        store,
        ServeConfig {
            workers: Some(1),
            kill_after_steps: Some(4),
            ..ServeConfig::default()
        },
    );
    service
        .submit("victim", driver(9), Arc::new(ConstrainedBranin))
        .unwrap();
    service.drain();
    assert!(service.stats().steps_lost_to_kill >= 1);

    // Bit-rot the primary generation on disk.
    let latest = dir.join("victim.session");
    let mut bytes = std::fs::read(&latest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&latest, &bytes).unwrap();

    let fresh: BoService<MeanTrainer> = BoService::new(
        SessionStore::open(&dir).unwrap(),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    fresh
        .recover("victim", driver(9), Arc::new(ConstrainedBranin))
        .unwrap();
    let stats = fresh.stats();
    assert_eq!(
        stats.corruption_detected, 1,
        "the flipped bit must be noticed"
    );
    assert_eq!(
        stats.recovered_from_backup, 1,
        "recovery must use prev, not the damaged file"
    );
    fresh.drain();
    assert_eq!(fresh.status("victim").unwrap(), SessionStatus::Completed);
    // Replaying the lost steps is deterministic: the final history is still
    // exactly the unfaulted run's.
    assert_eq!(fresh.history("victim").unwrap(), sequential_reference(9));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_service_recovers_every_session_bit_identically() {
    let store = scratch_store("kill");
    let dir = store.dir().to_path_buf();
    let seeds = [71u64, 72, 73];
    let service: BoService<MeanTrainer> = BoService::new(
        store,
        ServeConfig {
            workers: Some(2),
            // Dies after 11 computed step jobs — mid-flight for all three
            // sessions (3 sessions need 21 jobs total).
            kill_after_steps: Some(11),
            ..ServeConfig::default()
        },
    );
    for seed in seeds {
        service
            .submit(
                &format!("k{seed}"),
                driver(seed),
                Arc::new(ConstrainedBranin),
            )
            .unwrap();
    }
    service.drain();

    let stats = service.stats();
    assert!(
        stats.steps_lost_to_kill >= 1,
        "the kill must catch a step before persist"
    );
    assert!(
        stats.steps_lost_to_kill <= seeds.len(),
        "each session loses at most its one in-flight step"
    );
    assert!(
        stats.sessions_completed < seeds.len(),
        "the kill interrupts the fleet"
    );
    assert!(matches!(
        service.submit("late", driver(99), Arc::new(ConstrainedBranin)),
        Err(ServeError::ServiceKilled)
    ));

    // "Restart the process": a fresh service over the same store directory.
    let fresh: BoService<MeanTrainer> = BoService::new(
        SessionStore::open(&dir).unwrap(),
        ServeConfig {
            workers: Some(2),
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        fresh.store().list().unwrap().len(),
        seeds.len(),
        "every session left a checkpoint behind"
    );
    for seed in seeds {
        let id = format!("k{seed}");
        let resumed = fresh
            .recover(&id, driver(seed), Arc::new(ConstrainedBranin))
            .unwrap();
        assert!(resumed >= 4, "at least the initial design was durable");
    }
    fresh.drain();
    for seed in seeds {
        let id = format!("k{seed}");
        assert_eq!(fresh.status(&id).unwrap(), SessionStatus::Completed);
        assert_eq!(
            fresh.history(&id).unwrap(),
            sequential_reference(seed),
            "recovered session {id} must be bit-identical to the unfaulted run"
        );
    }
    assert_eq!(fresh.stats().sessions_recovered, seeds.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_the_oldest_idle_session_and_resumes_it_later() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("shed"),
        ServeConfig {
            workers: Some(1),
            max_sessions: 2,
            ..ServeConfig::default()
        },
    );
    // Occupy the single worker: the blocker parks itself inside its first
    // evaluation until the gate opens.
    let gate = Arc::new(GatedProblem::new());
    service
        .submit("blocker", driver(50), Arc::clone(&gate) as Arc<_>)
        .unwrap();
    gate.wait_entered();

    // Queued behind the busy worker: idle by definition.
    service
        .submit("idle-1", driver(51), Arc::new(ConstrainedBranin))
        .unwrap();
    // At capacity; the oldest idle session (idle-1 — the blocker is mid
    // step) is checkpoint-parked to make room.
    service
        .submit("idle-2", driver(52), Arc::new(ConstrainedBranin))
        .unwrap();
    assert_eq!(service.status("idle-1").unwrap(), SessionStatus::Parked);
    assert_eq!(service.stats().sessions_parked, 1);

    gate.open();
    service.drain();
    assert_eq!(service.status("blocker").unwrap(), SessionStatus::Completed);
    assert_eq!(service.status("idle-2").unwrap(), SessionStatus::Completed);
    assert_eq!(service.status("idle-1").unwrap(), SessionStatus::Parked);

    // Capacity is free again: the parked session resumes and completes
    // exactly as if it had never been shed.
    service.resume_parked("idle-1").unwrap();
    service.drain();
    assert_eq!(service.status("idle-1").unwrap(), SessionStatus::Completed);
    assert_eq!(service.history("idle-1").unwrap(), sequential_reference(51));
    let stats = service.stats();
    assert_eq!(stats.sessions_unparked, 1);
    assert_eq!(stats.overload_rejections, 0);
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn overload_with_no_idle_session_is_rejected_with_backpressure() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("reject"),
        ServeConfig {
            workers: Some(1),
            max_sessions: 1,
            ..ServeConfig::default()
        },
    );
    let gate = Arc::new(GatedProblem::new());
    service
        .submit("busy", driver(60), Arc::clone(&gate) as Arc<_>)
        .unwrap();
    gate.wait_entered();

    // The only active session is mid-step: nothing can be parked.
    let err = service
        .submit("turned-away", driver(61), Arc::new(ConstrainedBranin))
        .unwrap_err();
    assert_eq!(err, ServeError::Overloaded { capacity: 1 });
    assert_eq!(service.stats().overload_rejections, 1);
    assert!(matches!(
        service.status("turned-away"),
        Err(ServeError::SessionNotFound { .. })
    ));

    gate.open();
    service.drain();
    assert_eq!(service.status("busy").unwrap(), SessionStatus::Completed);
    let _ = std::fs::remove_dir_all(service.store().dir());
}

/// A deterministic analytic testbench for sweep sessions: the measurement
/// depends only on the design point and the corner context, so parallel
/// corner fan-out is bit-identical to the sequential reference.
#[derive(Debug, Clone)]
struct CornerBench;

impl Testbench for CornerBench {
    type Output = f64;

    fn name(&self) -> &str {
        "corner-bench"
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); 2]
    }

    fn measure(&self, x: &[f64], ctx: &CornerContext) -> Result<f64, String> {
        Ok((x[0] * ctx.corner.vdd
            + x[1] * (ctx.corner.temperature + 40.0) / 165.0
            + 0.1 * ctx.index as f64)
            .sin())
    }
}

/// `CornerBench`, but one scripted corner measurement panics (per-instance
/// counter over all corners of all evaluations) — a simulator crash in the
/// middle of a fanned-out PVT sweep.
struct FlakyCornerBench {
    at: usize,
    calls: AtomicUsize,
}

impl Testbench for FlakyCornerBench {
    type Output = f64;

    fn name(&self) -> &str {
        "flaky-corner-bench"
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        CornerBench.bounds()
    }

    fn measure(&self, x: &[f64], ctx: &CornerContext) -> Result<f64, String> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.at {
            panic!("chaos: corner simulator crash at corner call {}", self.at);
        }
        CornerBench.measure(x, ctx)
    }
}

fn sweep_problem<T: Testbench<Output = f64>>(bench: T) -> SweepProblem<T> {
    SweepProblem::new(
        CornerSweep::new(bench, PvtCorner::standard_18()),
        "corner-bench-pvt",
        1,
        |out: &f64| Evaluation::new(*out, vec![*out - 0.9]),
    )
}

/// The evaluations an unfaulted, *sequential* (no pool fan-out) sweep run
/// produces — the bit-identity reference for served parallel sweeps.
fn sweep_reference(seed: u64) -> Vec<(Vec<f64>, Evaluation)> {
    driver(seed)
        .run(&sweep_problem(CornerBench).with_parallel(false))
        .expect("sequential sweep reference succeeds")
        .evaluations()
        .to_vec()
}

#[test]
fn sweep_sessions_share_the_pool_and_match_the_sequential_sweep_bit_identically() {
    // Sessions carry sweep problems unchanged: each step job (on the
    // service's pool) fans its 18 corners out over the global pool, and the
    // result must still be exactly the sequential sweep's.
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("sweep"),
        ServeConfig {
            workers: Some(3),
            ..ServeConfig::default()
        },
    );
    let seeds = [101u64, 102, 103];
    for seed in seeds {
        service
            .submit(
                &format!("sweep{seed}"),
                driver(seed),
                Arc::new(sweep_problem(CornerBench)),
            )
            .unwrap();
    }
    service.drain();

    for seed in seeds {
        let id = format!("sweep{seed}");
        assert_eq!(service.status(&id).unwrap(), SessionStatus::Completed);
        assert_eq!(
            service.history(&id).unwrap(),
            sweep_reference(seed),
            "served sweep session {id} diverged from the sequential sweep"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.sessions_completed, 3);
    assert_eq!(stats.sessions_quarantined, 0);
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn a_mid_sweep_corner_panic_quarantines_only_its_session() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("sweep-panic"),
        ServeConfig {
            workers: Some(2),
            ..ServeConfig::default()
        },
    );
    service
        .submit("healthy-1", driver(1), Arc::new(sweep_problem(CornerBench)))
        .unwrap();
    // 18 corners per evaluation: corner call 99 lands mid-sweep of the 6th
    // evaluation, well into the model-guided phase.  The panic surfaces on
    // a *global-pool* corner task, is re-thrown into the session's step job
    // on the service pool, and must quarantine only that session.
    service
        .submit(
            "doomed",
            driver(2),
            Arc::new(sweep_problem(FlakyCornerBench {
                at: 99,
                calls: AtomicUsize::new(0),
            })),
        )
        .unwrap();
    service
        .submit("healthy-2", driver(3), Arc::new(sweep_problem(CornerBench)))
        .unwrap();
    service.drain();

    // Exactly one quarantine, with the corner-panic payload preserved.
    let quarantined = service.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, "doomed");
    assert!(
        quarantined[0].1.contains("corner simulator crash"),
        "payload: {}",
        quarantined[0].1
    );
    assert!(matches!(
        service.result("doomed"),
        Err(ServeError::SessionPanicked { .. })
    ));

    // The service worker that ran the doomed step job is recycled (the
    // global pool's corner workers are untouched: batch-task panics are not
    // a worker-health signal there).
    let waiting = std::time::Instant::now();
    while service.pool_stats().worker_restarts < 1 && waiting.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.pool_stats().worker_restarts, 1);

    // The surviving sweep sessions are bit-identical to unfaulted
    // sequential sweeps.
    for (id, seed) in [("healthy-1", 1u64), ("healthy-2", 3u64)] {
        assert_eq!(service.status(id).unwrap(), SessionStatus::Completed);
        assert_eq!(service.history(id).unwrap(), sweep_reference(seed));
    }
    let stats = service.stats();
    assert_eq!(stats.session_panics, 1);
    assert_eq!(stats.sessions_quarantined, 1);
    assert_eq!(stats.sessions_completed, 2);

    // The doomed session's checkpoints survived the corner panic: recovery
    // with a healthy sweep bench completes exactly as the unfaulted run.
    let fresh: BoService<MeanTrainer> = BoService::new(
        SessionStore::open(service.store().dir()).unwrap(),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    let resumed = fresh
        .recover("doomed", driver(2), Arc::new(sweep_problem(CornerBench)))
        .unwrap();
    assert!(resumed >= 4, "checkpoints were landing before the crash");
    fresh.drain();
    assert_eq!(fresh.status("doomed").unwrap(), SessionStatus::Completed);
    assert_eq!(fresh.history("doomed").unwrap(), sweep_reference(2));
    let _ = std::fs::remove_dir_all(service.store().dir());
}

#[test]
fn admission_rejects_duplicates_bad_ids_and_mismatched_recoveries() {
    let service: BoService<MeanTrainer> = BoService::new(
        scratch_store("admission"),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    service
        .submit("dup", driver(80), Arc::new(ConstrainedBranin))
        .unwrap();
    assert!(matches!(
        service.submit("dup", driver(80), Arc::new(ConstrainedBranin)),
        Err(ServeError::SessionBusy { .. })
    ));
    assert!(matches!(
        service.submit("../escape", driver(80), Arc::new(ConstrainedBranin)),
        Err(ServeError::InvalidSessionId { .. })
    ));
    service.drain();

    // Recovering under a different configuration must refuse, not resume
    // wrongly.
    let fresh: BoService<MeanTrainer> = BoService::new(
        SessionStore::open(service.store().dir()).unwrap(),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    let mismatched = BayesOpt::with_trainer(BoConfig::fast(4, 12).with_seed(80), MeanTrainer);
    assert!(matches!(
        fresh.recover("dup", mismatched, Arc::new(ConstrainedBranin)),
        Err(ServeError::Bo(BoError::SnapshotMismatch { .. }))
    ));
    assert!(matches!(
        fresh.recover("never-seen", driver(1), Arc::new(ConstrainedBranin)),
        Err(ServeError::SessionNotFound { .. })
    ));
    let _ = std::fs::remove_dir_all(service.store().dir());
}

/// Finds `want` session ids that the sharded store routes to `shard`.
fn ids_on_shard(
    store: &nnbo_serve::ShardedStore,
    shard: &str,
    want: usize,
    tag: &str,
) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0.. {
        let id = format!("{tag}-{i}");
        if store.shard_for(&id) == shard {
            out.push(id);
            if out.len() == want {
                break;
            }
        }
    }
    out
}

#[test]
fn down_shard_parks_its_sessions_while_the_other_shard_completes() {
    use nnbo_serve::{
        FaultIo, FaultKind, FaultPlan, RetryPolicy, ShardConfig, ShardedStore, StdIo,
    };

    let root = std::env::temp_dir().join(format!("nnbo-chaos-shard-down-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ShardConfig::new(2)
        .with_retry(RetryPolicy::no_backoff(1))
        .with_down_after(1);
    // shard-00's disk dies on its very first write and never comes back.
    let store = ShardedStore::open_with(&root, cfg, |name| {
        if name == "shard-00" {
            Arc::new(FaultIo::new(FaultPlan::one(0, FaultKind::TornWrite)))
        } else {
            Arc::new(StdIo)
        }
    })
    .unwrap();
    let bad = ids_on_shard(&store, "shard-00", 2, "bad");
    let good = ids_on_shard(&store, "shard-01", 2, "good");
    let service: BoService<MeanTrainer, ShardedStore> = BoService::new(
        store,
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    // One worker => deterministic job order: bad[0] hits the dead disk
    // first (quarantined, shard goes Down), bad[1]'s persist then sees the
    // Down shard and parks instead.  bad[0] waits at the gate until every
    // session is submitted: a Down shard would refuse the later submits.
    let gate = Arc::new(GatedProblem::new());
    service
        .submit(&bad[0], driver(21), Arc::clone(&gate) as Arc<_>)
        .unwrap();
    for id in bad[1..].iter().chain(&good) {
        service
            .submit(id, driver(21), Arc::new(ConstrainedBranin))
            .unwrap();
    }
    gate.open();
    service.drain();

    assert_eq!(service.status(&bad[0]).unwrap(), SessionStatus::Quarantined);
    assert_eq!(service.status(&bad[1]).unwrap(), SessionStatus::Parked);
    for id in &good {
        assert_eq!(
            service.status(id).unwrap(),
            SessionStatus::Completed,
            "{id}: the healthy shard must keep serving through the outage"
        );
        assert_eq!(service.history(id).unwrap(), sequential_reference(21));
    }
    let stats = service.stats();
    assert_eq!(stats.sessions_completed, 2);
    assert_eq!(
        stats.persist_failures, 1,
        "only the downing failure touches disk"
    );
    assert_eq!(stats.shard_parks, 1);

    // Admission also respects shard health: a *new* session routed to the
    // Down shard is rejected up-front with the typed error.
    let extra = ids_on_shard(service.store(), "shard-00", 1, "extra");
    match service.submit(&extra[0], driver(22), Arc::new(ConstrainedBranin)) {
        Err(ServeError::ShardUnavailable { shard, session }) => {
            assert_eq!(shard, "shard-00");
            assert_eq!(session, extra[0]);
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert_eq!(service.stats().shard_rejections, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scrub_revives_the_shard_and_the_parked_session_finishes_bit_identically() {
    use nnbo_serve::{FaultIo, FaultKind, FaultPlan, RetryPolicy, ShardConfig, ShardedStore};

    let root = std::env::temp_dir().join(format!("nnbo-chaos-shard-revive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ShardConfig::new(1)
        .with_retry(RetryPolicy::no_backoff(1))
        .with_down_after(1);
    // One transient EIO, then the disk is fine — but with no retries and
    // down_after=1 that single fault downs the only shard.
    let store = ShardedStore::open_with(&root, cfg, |_| {
        Arc::new(FaultIo::new(FaultPlan::one(0, FaultKind::TransientEio)))
    })
    .unwrap();
    let service: BoService<MeanTrainer, ShardedStore> = BoService::new(
        store,
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    // a waits at the gate until b is submitted: a Down shard would refuse
    // b's submit.
    let gate = Arc::new(GatedProblem::new());
    service
        .submit("a", driver(31), Arc::clone(&gate) as Arc<_>)
        .unwrap();
    service
        .submit("b", driver(32), Arc::new(ConstrainedBranin))
        .unwrap();
    gate.open();
    service.drain();
    // a's first persist ate the EIO (quarantine + shard Down); b parked.
    assert_eq!(service.status("a").unwrap(), SessionStatus::Quarantined);
    assert_eq!(service.status("b").unwrap(), SessionStatus::Parked);

    // Operator runs a scrub: the shard answers again, so it is revived and
    // the parked session resumes from its intact in-memory state.
    let report = service.store().scrub().unwrap();
    assert_eq!(report.shards_revived, 1);
    service.resume_parked("b").unwrap();
    service.drain();
    assert_eq!(service.status("b").unwrap(), SessionStatus::Completed);
    assert_eq!(
        service.history("b").unwrap(),
        sequential_reference(32),
        "the outage must not change what the session computes"
    );
    let _ = std::fs::remove_dir_all(&root);
}
