//! Per-evaluation deadline enforcement.
//!
//! A [`DeadlineProblem`] wraps any [`Problem`] and bounds each evaluation
//! attempt by a wall-clock budget: an attempt that overruns yields
//! [`EvalOutcome::Timeout`] *immediately*, which the optimization loop's
//! `FailurePolicy` (retry → impute) absorbs like any other evaluation
//! failure.  This is how a served session with a step deadline keeps its
//! latency bound even when the underlying simulator hangs.
//!
//! The overrunning evaluation itself cannot be cancelled (there is no safe
//! way to kill a thread mid-computation), so it is abandoned on a dedicated
//! watchdog thread that exits on its own once the evaluation returns.  This
//! is deliberately *not* a pool worker: a pool worker must never be
//! abandoned, and an evaluation that can be orphaned therefore runs on a
//! sacrificial thread instead — the one justified thread spawn outside
//! `nnbo-pool` in this workspace.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nnbo_core::{EvalOutcome, Evaluation, Problem};

/// A [`Problem`] decorator that bounds every evaluation attempt by a
/// wall-clock deadline (see the module docs).
pub struct DeadlineProblem {
    inner: Arc<dyn Problem + Send + Sync>,
    deadline: Duration,
    timeouts: AtomicUsize,
}

impl DeadlineProblem {
    /// Wraps `inner` so each evaluation attempt observes `deadline`.
    pub fn new(inner: Arc<dyn Problem + Send + Sync>, deadline: Duration) -> Self {
        DeadlineProblem {
            inner,
            deadline,
            timeouts: AtomicUsize::new(0),
        }
    }

    /// Number of evaluation attempts this wrapper has timed out so far.
    pub fn timeouts(&self) -> usize {
        self.timeouts.load(Ordering::Relaxed)
    }
}

impl Problem for DeadlineProblem {
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
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&self.inner);
        let x_owned = x.to_vec();
        // The watchdog runs under the caller's pool context word, as a pool
        // job would (a portable-kernel scope, for one).
        let word = nnbo_pool::context();
        let spawned = std::thread::Builder::new()
            .name("nnbo-serve-eval".to_string())
            .spawn(move || {
                let outcome = nnbo_pool::with_context(word, || {
                    catch_unwind(AssertUnwindSafe(|| inner.try_evaluate(&x_owned)))
                });
                // The receiver may have timed out and gone away; a dead
                // channel just means the result is discarded.
                let _ = tx.send(outcome);
            });
        if spawned.is_err() {
            // Cannot enforce the deadline without a watchdog thread; run
            // inline rather than failing the evaluation outright.
            return self.inner.try_evaluate(x);
        }
        match rx.recv_timeout(self.deadline) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                EvalOutcome::Timeout
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                EvalOutcome::Failed("evaluation thread died without reporting".to_string())
            }
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SlowAt {
        trigger: f64,
        sleep: Duration,
    }

    impl Problem for SlowAt {
        fn dim(&self) -> usize {
            1
        }
        fn num_constraints(&self) -> usize {
            0
        }
        fn evaluate(&self, x: &[f64]) -> Evaluation {
            if (x[0] - self.trigger).abs() < 1e-9 {
                std::thread::sleep(self.sleep);
            }
            Evaluation::unconstrained(x[0])
        }
    }

    #[test]
    fn fast_evaluations_pass_through_unchanged() {
        let p = DeadlineProblem::new(
            Arc::new(SlowAt {
                trigger: 0.5,
                sleep: Duration::from_secs(5),
            }),
            Duration::from_secs(30),
        );
        let out = p.try_evaluate(&[0.25]);
        assert_eq!(out.ok().unwrap().objective, 0.25);
        assert_eq!(p.timeouts(), 0);
    }

    #[test]
    fn overrunning_evaluation_times_out_immediately() {
        let p = DeadlineProblem::new(
            Arc::new(SlowAt {
                trigger: 0.5,
                sleep: Duration::from_secs(30),
            }),
            Duration::from_millis(50),
        );
        let started = std::time::Instant::now();
        let out = p.try_evaluate(&[0.5]);
        assert_eq!(out, EvalOutcome::Timeout);
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(p.timeouts(), 1);
    }

    struct Panicker;
    impl Problem for Panicker {
        fn dim(&self) -> usize {
            1
        }
        fn num_constraints(&self) -> usize {
            0
        }
        fn evaluate(&self, _x: &[f64]) -> Evaluation {
            panic!("simulator crashed hard")
        }
    }

    #[test]
    fn evaluation_panics_propagate_to_the_caller() {
        let p = DeadlineProblem::new(Arc::new(Panicker), Duration::from_secs(30));
        let caught = catch_unwind(AssertUnwindSafe(|| p.try_evaluate(&[0.1])));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("simulator crashed hard"));
    }

    /// Reports the pool context word of the thread that evaluates it.
    struct ContextProbe;
    impl Problem for ContextProbe {
        fn dim(&self) -> usize {
            1
        }
        fn num_constraints(&self) -> usize {
            0
        }
        fn evaluate(&self, _x: &[f64]) -> Evaluation {
            Evaluation::unconstrained(nnbo_pool::context() as f64)
        }
    }

    #[test]
    fn the_evaluation_thread_runs_under_the_callers_context_word() {
        let p = DeadlineProblem::new(Arc::new(ContextProbe), Duration::from_secs(30));
        let inside = nnbo_pool::with_context(5, || p.try_evaluate(&[0.1]));
        assert_eq!(inside.ok().unwrap().objective, 5.0);
        assert_eq!(p.try_evaluate(&[0.1]).ok().unwrap().objective, 0.0);
    }
}
