//! A configuration `validate` accepts must write checkpoints that read back.
//! `RefitPolicy::nll_drift(f64::INFINITY)` means "refit at `max_gap` only";
//! the JSON writer stores its threshold as `"threshold":"inf"`, which the
//! float reader used to refuse, so neither `resume` nor a service recovery
//! could use the session's durable state.

use std::sync::Arc;

use nnbo_core::problems::OpAmpProblem;
use nnbo_core::{BayesOpt, BoConfig, BoSnapshot, EnsembleConfig, NeuralGpEnsembleTrainer};
use nnbo_core::{Evaluation, RefitPolicy};
use nnbo_serve::{BoService, ServeConfig, SessionStatus, SessionStore};

fn optimizer() -> BayesOpt<NeuralGpEnsembleTrainer> {
    let config = BoConfig::fast(6, 12)
        .with_seed(3)
        .with_refit_policy(RefitPolicy::nll_drift(f64::INFINITY));
    BayesOpt::neural_with(config, EnsembleConfig::fast())
}

fn uninterrupted() -> Vec<(Vec<f64>, Evaluation)> {
    optimizer()
        .run(&OpAmpProblem::new())
        .expect("reference run succeeds")
        .evaluations()
        .to_vec()
}

#[test]
fn a_snapshot_with_an_infinite_drift_threshold_resumes() {
    let (bo, problem) = (optimizer(), OpAmpProblem::new());
    let mut state = bo.start(&problem).expect("start");
    assert!(bo.step(&problem, &mut state).expect("step"));
    let text = bo.snapshot(&state).to_json();
    assert!(text.contains(r#""threshold":"inf""#), "{text}");
    let snapshot = BoSnapshot::from_json(&text).expect("the snapshot parses");
    let mut resumed = bo.resume(&snapshot).expect("the snapshot resumes");
    while bo.step(&problem, &mut resumed).expect("resumed step") {}
    assert_eq!(bo.finish(resumed).evaluations(), &uninterrupted()[..]);
}

#[test]
fn a_killed_session_with_an_infinite_drift_threshold_recovers() {
    let dir = std::env::temp_dir().join(format!("nnbo-serve-inf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service: BoService<NeuralGpEnsembleTrainer> = BoService::new(
        SessionStore::open(&dir).expect("store opens"),
        ServeConfig {
            workers: Some(1),
            // Dies mid-run: the session needs seven step jobs.
            kill_after_steps: Some(3),
            ..ServeConfig::default()
        },
    );
    service
        .submit("inf", optimizer(), Arc::new(OpAmpProblem::new()))
        .expect("submit");
    service.drain();
    assert_ne!(
        service.status("inf").expect("status"),
        SessionStatus::Completed
    );

    // A fresh service over the same directory, as after a restart.
    let fresh: BoService<NeuralGpEnsembleTrainer> = BoService::new(
        SessionStore::open(&dir).expect("store reopens"),
        ServeConfig {
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    let durable = fresh
        .recover("inf", optimizer(), Arc::new(OpAmpProblem::new()))
        .expect("the checkpoint recovers");
    assert!(durable >= 6, "at least the initial design was durable");
    fresh.drain();
    assert_eq!(
        fresh.status("inf").expect("status"),
        SessionStatus::Completed
    );
    let result = fresh.result("inf").expect("result");
    assert_eq!(result.evaluations(), &uninterrupted()[..]);
    let _ = std::fs::remove_dir_all(&dir);
}
