//! Serving-layer benchmark: throughput, tail latency, crash recovery and
//! load shedding of the supervised multi-session service (`nnbo-serve`),
//! emitted as `BENCH_serve.json`.
//!
//! Four sections:
//!
//! * **throughput** — N concurrent neural-GP sessions driven end to end
//!   through the service on the shared worker pool: sessions/second, p50 and
//!   p99 per-step latency (step compute + checkpoint persist), and a
//!   bit-identity check of every session's history against the same driver
//!   run sequentially without the service.
//! * **overhead** — the supervision tax: one session run through the service
//!   (job scheduling, panic isolation, admission bookkeeping, latency
//!   accounting) vs the same driver stepped in a bare loop that persists an
//!   identical checkpoint per step to the same kind of store.  The budget is
//!   < 2 % on a full run.
//! * **recovery** — M sessions killed mid-flight by the deterministic
//!   kill-switch fail-point (process death between compute and persist),
//!   then recovered by a fresh service over the same store: time to re-admit
//!   every session from its last intact checkpoint, time to replay to
//!   completion, steps lost to the kill (at most one in-flight step per
//!   worker), and a bit-identity check of the recovered histories.
//! * **shedding** — the admission-control counters under scripted overload:
//!   a full pool of wedged evaluations forces an `Overloaded` rejection,
//!   then an idle session is checkpointed-and-parked to admit a newcomer and
//!   later resumed to completion.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nnbo_core::problems::ConstrainedBranin;
use nnbo_core::{BayesOpt, BoConfig, EnsembleConfig, Evaluation, NeuralGpEnsembleTrainer, Problem};
use nnbo_serve::{BoService, ServeConfig, ServeError, SessionStatus, SessionStore};

use crate::json;
use crate::BenchError;

/// Everything `BENCH_serve.json` reports.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Concurrent sessions of the throughput section.
    pub sessions: usize,
    /// Evaluation budget of every session.
    pub evals_per_session: usize,
    /// Wall time of the throughput section (milliseconds).
    pub wall_ms: f64,
    /// Completed sessions per second.
    pub sessions_per_sec: f64,
    /// Median per-step latency (compute + persist) in milliseconds.
    pub p50_step_ms: f64,
    /// 99th-percentile per-step latency in milliseconds.
    pub p99_step_ms: f64,
    /// Whether every concurrently-served history matched the sequential run.
    pub throughput_bit_identical: bool,
    /// Bare start/step/persist loop, best of the reps (milliseconds).
    pub bare_loop_ms: f64,
    /// The same session through the service, best of the reps (milliseconds).
    pub supervised_ms: f64,
    /// Supervision overhead as a percent of the bare loop (clamped at 0).
    pub supervision_overhead_pct: f64,
    /// Sessions killed mid-flight and recovered.
    pub killed_sessions: usize,
    /// Computed steps the kill switch discarded before persist.
    pub steps_lost_to_kill: usize,
    /// Time for the fresh service to re-admit every session from its last
    /// intact checkpoint (milliseconds).
    pub recover_ms: f64,
    /// Time to replay every recovered session to completion (milliseconds).
    pub replay_ms: f64,
    /// Whether every recovered history matched the sequential run.
    pub recovery_bit_identical: bool,
    /// Sessions checkpointed-and-parked under overload.
    pub sessions_parked: usize,
    /// Parked sessions later re-admitted.
    pub sessions_unparked: usize,
    /// Submissions rejected with explicit backpressure.
    pub overload_rejections: usize,
    /// Whether the parked session ran to completion after resumption.
    pub parked_session_completed: bool,
}

fn bench_config(quick: bool, seed: u64) -> BoConfig {
    if quick {
        BoConfig::fast(6, 10).with_seed(seed)
    } else {
        BoConfig::new(10, 30).with_seed(seed)
    }
}

fn driver(quick: bool, seed: u64) -> BayesOpt<NeuralGpEnsembleTrainer> {
    let ensemble = if quick {
        EnsembleConfig::fast()
    } else {
        EnsembleConfig::default()
    };
    BayesOpt::neural_with(bench_config(quick, seed), ensemble)
}

fn scratch_store(tag: &str) -> Result<SessionStore, ServeError> {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nnbo-serve-bench-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SessionStore::open(dir)
}

fn discard_store(store: &SessionStore) {
    let _ = std::fs::remove_dir_all(store.dir());
}

/// The evaluations the same driver produces without any service around it.
fn sequential_reference(quick: bool, seed: u64) -> Result<Vec<(Vec<f64>, Evaluation)>, BenchError> {
    Ok(driver(quick, seed)
        .run(&ConstrainedBranin::new())?
        .evaluations()
        .to_vec())
}

/// Wedges every evaluation until released (and flags when the first one has
/// actually entered), so the shedding section can hold workers busy
/// deterministically instead of racing a timer.
struct GatedProblem {
    inner: ConstrainedBranin,
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicBool,
}

impl GatedProblem {
    fn new() -> Arc<Self> {
        Arc::new(GatedProblem {
            inner: ConstrainedBranin::new(),
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicBool::new(false),
        })
    }

    fn release(&self) {
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        *open = true;
        self.cv.notify_all();
    }

    /// Waits (bounded) until an evaluation is actually blocked inside.
    fn wait_entered(&self) -> Result<(), BenchError> {
        let start = Instant::now();
        while !self.entered.load(Ordering::SeqCst) {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("gated evaluation never started".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
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
        self.entered.store(true, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|p| p.into_inner());
        }
        drop(open);
        self.inner.evaluate(x)
    }
}

fn session_id(i: usize) -> String {
    format!("bench-{i}")
}

/// Runs the four sections and assembles the report.
pub fn run_serve_bench(quick: bool) -> Result<ServeBenchReport, BenchError> {
    let sessions = if quick { 2 } else { 6 };
    let killed_sessions = if quick { 2 } else { 3 };
    let evals_per_session = bench_config(quick, 0).max_evaluations;
    let problem: Arc<dyn Problem + Send + Sync> = Arc::new(ConstrainedBranin::new());
    let seed = |i: usize| 300 + i as u64;

    // Sequential references for the bit-identity checks (the recovery
    // section reuses the first `killed_sessions` of them).
    let mut references = Vec::with_capacity(sessions);
    for i in 0..sessions {
        references.push(sequential_reference(quick, seed(i))?);
    }

    // --- throughput section ------------------------------------------------
    let store = scratch_store("throughput")?;
    let service = BoService::new(
        store,
        ServeConfig {
            max_sessions: sessions,
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    for i in 0..sessions {
        service.submit(&session_id(i), driver(quick, seed(i)), Arc::clone(&problem))?;
    }
    service.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut throughput_bit_identical = true;
    for (i, reference) in references.iter().enumerate() {
        if service.status(&session_id(i))? != SessionStatus::Completed
            || service.history(&session_id(i))? != *reference
        {
            throughput_bit_identical = false;
        }
    }
    let sessions_per_sec = sessions as f64 / (wall_ms / 1e3).max(1e-9);
    let p50_step_ms = service.step_latency_ms(50.0).unwrap_or(f64::NAN);
    let p99_step_ms = service.step_latency_ms(99.0).unwrap_or(f64::NAN);
    discard_store(service.store());
    drop(service);

    // --- overhead section --------------------------------------------------
    // The same single-session workload with and without the service around
    // it; both persist one checkpoint per step through the same store
    // machinery, so the delta is exactly the supervision layer.
    let reps = if quick { 2 } else { 5 };
    let mut bare_loop_ms = f64::INFINITY;
    for _ in 0..reps {
        let store = scratch_store("bare")?;
        let bo = driver(quick, seed(0));
        let start = Instant::now();
        let mut state = bo.start(problem.as_ref())?;
        store.persist("bench-0", &bo.snapshot(&state).to_json())?;
        while bo.step(problem.as_ref(), &mut state)? {
            store.persist("bench-0", &bo.snapshot(&state).to_json())?;
        }
        store.persist("bench-0", &bo.snapshot(&state).to_json())?;
        let result = bo.finish(state);
        bare_loop_ms = bare_loop_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if result.evaluations() != references[0].as_slice() {
            return Err("bare loop diverged from the sequential reference".into());
        }
        discard_store(&store);
    }
    let mut supervised_ms = f64::INFINITY;
    for _ in 0..reps {
        let store = scratch_store("supervised")?;
        let service = BoService::new(store, ServeConfig::default());
        let start = Instant::now();
        service.submit("bench-0", driver(quick, seed(0)), Arc::clone(&problem))?;
        service.drain();
        supervised_ms = supervised_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if service.history("bench-0")? != references[0] {
            return Err("supervised session diverged from the sequential reference".into());
        }
        discard_store(service.store());
    }
    let supervision_overhead_pct = ((supervised_ms - bare_loop_ms) / bare_loop_ms * 100.0).max(0.0);

    // --- recovery section --------------------------------------------------
    // Kill the service mid-flight (the fail-point trips between a step's
    // compute and its persist, exactly where `kill -9` hurts most), then
    // bring up a fresh service over the same store.
    let store = scratch_store("recovery")?;
    let store_dir = store.dir().to_path_buf();
    let steps_per_session = evals_per_session - bench_config(quick, 0).initial_samples + 1;
    let kill_after = (killed_sessions * steps_per_session) / 2;
    let doomed = BoService::new(
        store,
        ServeConfig {
            max_sessions: killed_sessions,
            kill_after_steps: Some(kill_after.max(1)),
            ..ServeConfig::default()
        },
    );
    for i in 0..killed_sessions {
        doomed.submit(&session_id(i), driver(quick, seed(i)), Arc::clone(&problem))?;
    }
    doomed.drain();
    let steps_lost_to_kill = doomed.stats().steps_lost_to_kill;
    drop(doomed);

    let fresh = BoService::new(
        SessionStore::open(&store_dir)?,
        ServeConfig {
            max_sessions: killed_sessions,
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    for i in 0..killed_sessions {
        fresh.recover(&session_id(i), driver(quick, seed(i)), Arc::clone(&problem))?;
    }
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    fresh.drain();
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut recovery_bit_identical = true;
    for (i, reference) in references.iter().enumerate().take(killed_sessions) {
        if service_history_ne(&fresh, &session_id(i), reference)? {
            recovery_bit_identical = false;
        }
    }
    discard_store(fresh.store());
    drop(fresh);

    // --- shedding section --------------------------------------------------
    // Both sub-scenarios run on small private pools so "every worker busy"
    // is a scripted condition, not a race.  First: a full pool of wedged
    // evaluations => explicit backpressure.
    let shed_config = BoConfig::fast(4, 8);
    let shed_driver =
        |s: u64| BayesOpt::neural_with(shed_config.clone().with_seed(s), EnsembleConfig::fast());
    let store = scratch_store("reject")?;
    let reject = BoService::new(
        store,
        ServeConfig {
            max_sessions: 2,
            workers: Some(2),
            ..ServeConfig::default()
        },
    );
    let gate_a = GatedProblem::new();
    let gate_b = GatedProblem::new();
    reject.submit("busy-a", shed_driver(1), gate_a.clone())?;
    gate_a.wait_entered()?;
    reject.submit("busy-b", shed_driver(2), gate_b.clone())?;
    gate_b.wait_entered()?;
    let rejected = matches!(
        reject.submit("extra", shed_driver(3), Arc::clone(&problem)),
        Err(ServeError::Overloaded { .. })
    );
    gate_a.release();
    gate_b.release();
    reject.drain();
    let overload_rejections = reject.stats().overload_rejections;
    discard_store(reject.store());
    drop(reject);

    // Second: a single worker wedged by one session leaves the next one
    // idle-in-queue; a further submission parks it (checkpoint-and-park the
    // oldest idle session) instead of failing, and it resumes later.
    let store = scratch_store("park")?;
    let park = BoService::new(
        store,
        ServeConfig {
            max_sessions: 2,
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    let gate_c = GatedProblem::new();
    park.submit("busy-c", shed_driver(4), gate_c.clone())?;
    gate_c.wait_entered()?;
    park.submit("idle-d", shed_driver(5), Arc::clone(&problem))?;
    park.submit("extra-e", shed_driver(6), Arc::clone(&problem))?;
    let parked_now = park.status("idle-d")? == SessionStatus::Parked;
    gate_c.release();
    park.drain();
    park.resume_parked("idle-d")?;
    park.drain();
    let parked_session_completed = parked_now && park.status("idle-d")? == SessionStatus::Completed;
    let park_stats = park.stats();
    let sessions_parked = park_stats.sessions_parked;
    let sessions_unparked = park_stats.sessions_unparked;
    discard_store(park.store());
    drop(park);
    if !rejected && overload_rejections == 0 {
        return Err("overload scenario produced no backpressure".into());
    }

    Ok(ServeBenchReport {
        sessions,
        evals_per_session,
        wall_ms,
        sessions_per_sec,
        p50_step_ms,
        p99_step_ms,
        throughput_bit_identical,
        bare_loop_ms,
        supervised_ms,
        supervision_overhead_pct,
        killed_sessions,
        steps_lost_to_kill,
        recover_ms,
        replay_ms,
        recovery_bit_identical,
        sessions_parked,
        sessions_unparked,
        overload_rejections,
        parked_session_completed,
    })
}

fn service_history_ne(
    service: &BoService<NeuralGpEnsembleTrainer>,
    id: &str,
    reference: &[(Vec<f64>, Evaluation)],
) -> Result<bool, BenchError> {
    Ok(service.status(id)? != SessionStatus::Completed || service.history(id)? != reference)
}

/// Human-readable summary of the report.
pub fn format_serve_table(r: &ServeBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "throughput       {} sessions x {} evals in {:>7.1} ms   {:.2} sessions/s   step p50 {:.2} ms  p99 {:.2} ms   bit-identical {}\n",
        r.sessions,
        r.evals_per_session,
        r.wall_ms,
        r.sessions_per_sec,
        r.p50_step_ms,
        r.p99_step_ms,
        r.throughput_bit_identical
    ));
    out.push_str(&format!(
        "supervision      bare loop {:>7.1} ms   supervised {:>7.1} ms   overhead {:.2}%\n",
        r.bare_loop_ms, r.supervised_ms, r.supervision_overhead_pct
    ));
    out.push_str(&format!(
        "recovery         {} sessions killed mid-step ({} steps lost)   recover {:.2} ms   replay {:>7.1} ms   bit-identical {}\n",
        r.killed_sessions,
        r.steps_lost_to_kill,
        r.recover_ms,
        r.replay_ms,
        r.recovery_bit_identical
    ));
    out.push_str(&format!(
        "shedding         parked {}  unparked {}  rejected {}   parked session completed {}\n",
        r.sessions_parked, r.sessions_unparked, r.overload_rejections, r.parked_session_completed
    ));
    out
}

/// Serialises the report as the `BENCH_serve.json` document.
pub fn format_serve_json(r: &ServeBenchReport, quick: bool) -> String {
    let rows = vec![
        json::row(&[
            ("section", &"throughput"),
            ("sessions", &r.sessions),
            ("evals_per_session", &r.evals_per_session),
            ("wall_ms", &r.wall_ms),
            ("sessions_per_sec", &r.sessions_per_sec),
            ("p50_step_ms", &r.p50_step_ms),
            ("p99_step_ms", &r.p99_step_ms),
            ("bit_identical", &r.throughput_bit_identical),
        ]),
        json::row(&[
            ("section", &"overhead"),
            ("bare_loop_ms", &r.bare_loop_ms),
            ("supervised_ms", &r.supervised_ms),
            ("supervision_overhead_pct", &r.supervision_overhead_pct),
        ]),
        json::row(&[
            ("section", &"recovery"),
            ("killed_sessions", &r.killed_sessions),
            ("steps_lost_to_kill", &r.steps_lost_to_kill),
            ("recover_ms", &r.recover_ms),
            ("replay_ms", &r.replay_ms),
            ("bit_identical", &r.recovery_bit_identical),
        ]),
        json::row(&[
            ("section", &"shedding"),
            ("sessions_parked", &r.sessions_parked),
            ("sessions_unparked", &r.sessions_unparked),
            ("overload_rejections", &r.overload_rejections),
            ("parked_session_completed", &r.parked_session_completed),
        ]),
    ];
    json::document("nnbo-serve-v1", "serve", quick, &[("sections", rows)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_bench_is_consistent_and_serialises() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let r = run_serve_bench(true).expect("quick serve bench runs");
        assert!(r.throughput_bit_identical, "served histories must match");
        assert!(r.recovery_bit_identical, "recovered histories must match");
        assert!(
            r.steps_lost_to_kill >= 1,
            "the kill switch must have cost work"
        );
        assert!(r.sessions_parked >= 1 && r.sessions_unparked >= 1);
        assert!(r.overload_rejections >= 1);
        assert!(r.parked_session_completed);
        assert!(r.sessions_per_sec > 0.0);
        let json = format_serve_json(&r, true);
        assert!(json.contains("\"schema\": \"nnbo-serve-v1\""));
        assert!(json.contains("\"section\": \"recovery\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!format_serve_table(&r).is_empty());
    }
}
